"""Every coded rule can fire, and every overflow guard can run.

Each ``raise`` of a package error in the numeric modules must run on at
least one of the inputs below, which run under ``sys.settrace``.  A rule
that no input reaches is either dead code or a rule without a test, and a
new rule fails this test until an input that fires it is added here.  The
same holds for each ``except OverflowError`` handler, the guard that reads
a modulus beyond the float range as inf instead of raising.
"""

import ast
import builtins
import importlib
import sys
from contextlib import contextmanager

import pytest

from spectral_pair import (
    CubicPoly,
    CurveCoefficients,
    DivisorPoint,
    GL2ZMatrix,
    Generator,
    Mat3,
    MatrixPair,
    SpectralPairError,
    act_word_spectral,
    canonical_form,
    curve_residual,
    eig3,
    inv3,
    invert_spectral,
    kernel_vector,
    normalize_pair,
    random_pair,
    reconstruct,
    shear_spectral,
    solve_cubic,
    spectral_data,
    swap_spectral,
    validate_spectral_data,
)
from spectral_pair import _kernels_py as kernels
from spectral_pair.linalg import check_nonsingular, separation
from spectral_pair.spectral import relative_difference

from conftest import FIXTURE_A, FIXTURE_B, third_intersection

MODULES = ("linalg", "spectral", "reconstruct", "gl2z", "cubic")

reconstruct_module = importlib.import_module("spectral_pair.reconstruct")


def node_spans(modules, span) -> dict[str, list[tuple[int, int]]]:
    """File -> every (first, last) line span that ``span`` gives for a node
    of the module's syntax tree; a node for which it gives None is skipped."""
    sites = {}
    for name in modules:
        path = importlib.import_module(f"spectral_pair.{name}").__file__
        with open(path) as fh:
            tree = ast.parse(fh.read())
        sites[path] = [s for s in map(span, ast.walk(tree)) if s is not None]
    return sites


def raise_sites() -> dict[str, list[tuple[int, int]]]:
    """File -> (first, last) line of every raise of a called class that is
    not a builtin: the package's errors, and the error class that
    ``check_separation`` is handed."""
    def span(node):
        if (isinstance(node, ast.Raise)
                and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name)
                and not hasattr(builtins, node.exc.func.id)):
            return node.lineno, node.end_lineno
    return node_spans(MODULES, span)


def overflow_guards() -> dict[str, list[tuple[int, int]]]:
    """File -> (first, last) line of the body of every ``except
    OverflowError`` handler, the kernels included."""
    def span(node):
        if (isinstance(node, ast.ExceptHandler)
                and isinstance(node.type, ast.Name)
                and node.type.id == "OverflowError"):
            return node.body[0].lineno, node.end_lineno
    return node_spans(("_kernels_py", *MODULES), span)


@contextmanager
def tracing(paths):
    """The set of (file, line) of every line of ``paths`` that runs inside
    the block, filled as it runs."""
    seen = set()

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in paths else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        yield seen
    finally:
        sys.settrace(previous)


def executed_lines(paths, triggers) -> set[tuple[str, int]]:
    """(file, line) of every line of ``paths`` that runs while each trigger
    raises its coded error."""
    with tracing(paths) as seen:
        for trigger in triggers:
            with pytest.raises(SpectralPairError):
                trigger()
    return seen


def unreached(sites, seen) -> list[tuple[str, int]]:
    """(file, first line) of every site of which no line is in ``seen``."""
    return [(path, first) for path, spans in sites.items()
            for first, last in spans
            if not any((path, line) in seen for line in range(first, last + 1))]


def fixture_sd():
    return spectral_data(MatrixPair(FIXTURE_A, FIXTURE_B))


def reducible_curve_chord():
    # (lam + mu)(lam^2 + mu^2 + nu^2) contains the line through its points
    # (1 : -1 : 0) and (0 : 0 : 1)
    coeffs = CurveCoefficients(d1=1, d2=0, p_plus=1, p_minus=1, q_plus=0,
                               q_minus=1, r_plus=0, r_minus=1, t=0)
    third_intersection(coeffs, (1, -1, 0), (0, 0, 1))


def chord_through_moved_divisor():
    # L moved by 1e-7 still passes the 1e-6 incidence test; the third point
    # then misses the curve (1 + 1e-8 does not)
    sd = spectral_data(random_pair(1))
    third_intersection(sd.coeffs, (sd.h[0], -1.0, 0.0),
                       (sd.divisor.L * (1 + 1e-7), sd.divisor.M, 1.0))


def third_intersection_off_the_curve():
    sd = fixture_sd()
    third_intersection(sd.coeffs, (1, -1, 0), (0.1, 0.2, 1.0))


def swap_to_gauge_degenerate_pair():
    # A's (1,2) entry is 0 in B's eigenbasis, so the exchanged pair (B, A)
    # has no gauge and its divisor point lies at infinity
    a = Mat3.from_rows([[2, 0, 1], [5, 3, -2], [7, 1, 4]])
    swap_spectral(spectral_data(MatrixPair(a, Mat3.diagonal(1, 2, 3))))


def swap_with_repeated_second_spectrum():
    v = Mat3.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    b = v @ Mat3.diagonal(1, 1, 2) @ inv3(v)
    sd = spectral_data(MatrixPair(FIXTURE_A, b))
    act_word_spectral((Generator.SWAP,), sd)


def biased_closed_form(monkeypatch, run=lambda: reconstruct(fixture_sd())):
    """A trigger that runs ``run`` with the closed forms for (u21, u31)
    biased by 1e-6."""
    original = reconstruct_module._closed_form_lower_left

    def biased(*args):
        u21, u31 = original(*args)
        return u21 * (1 + 1e-6), u31

    def trigger():
        with monkeypatch.context() as m:
            m.setattr(reconstruct_module, "_closed_form_lower_left", biased)
            run()
    return trigger


def test_every_coded_raise_runs(monkeypatch):
    sd = fixture_sd()
    triggers = [
        # linalg; a product whose entries overflow is not a Mat3
        lambda: FIXTURE_A.scaled(1e160) @ FIXTURE_B.scaled(1e160),
        lambda: solve_cubic(CubicPoly(0.0, 1.0, 2.0, 3.0)),
        lambda: inv3(Mat3.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]])),
        lambda: kernel_vector(Mat3.identity().entries),
        lambda: kernel_vector(Mat3.diagonal(1, 1, 3e-8).entries),
        lambda: eig3(Mat3.diagonal(1, 1, 2)),
        # spectral
        lambda: normalize_pair(MatrixPair(FIXTURE_A, Mat3.identity())),
        lambda: spectral_data(MatrixPair(Mat3.diagonal(1, 2, 2 + 5e-6),
                                         FIXTURE_B.scaled(100))),
        lambda: validate_spectral_data(sd._replace(h=(1, 2, 4))),
        lambda: validate_spectral_data(sd._replace(divisor=DivisorPoint(-8, 2))),
        # reconstruct
        biased_closed_form(monkeypatch),
        # a relisting that passes through tests d2 = det U for singularity
        lambda: canonical_form(sd._replace(coeffs=sd.coeffs._replace(d2=0))),
        # gl2z
        lambda: GL2ZMatrix(2, 0, 0, 1),
        swap_to_gauge_degenerate_pair,
        swap_with_repeated_second_spectrum,
        lambda: invert_spectral(sd._replace(h=(0, 2, 3))),
        lambda: shear_spectral(sd._replace(coeffs=sd.coeffs._replace(d1=0))),
        # the input's relisting passes through; the result's, h relisted
        # from (1, 1/2, 1/3) to (1/3, 1/2, 1), reconstructs
        biased_closed_form(monkeypatch, lambda: act_word_spectral(
            (Generator.INVERT,), sd)),
        # cubic
        lambda: third_intersection(sd.coeffs, (1, 2, 3), (2, 4, 6)),
        third_intersection_off_the_curve,
        reducible_curve_chord,
        chord_through_moved_divisor,
    ]
    sites = raise_sites()
    seen = executed_lines(set(sites), triggers)
    assert sum(map(len, sites.values())) == 21
    assert unreached(sites, seen) == []


def test_every_overflow_guard_runs():
    """Each guard runs on an input below, and the input ends in a result or
    a coded error.  Most inputs hold z, whose parts are finite but whose
    modulus is beyond the float range."""
    z = 1.5e308 * (1 + 1j)
    sd = fixture_sd()
    seed_0 = spectral_data(random_pair(0))
    triggers = [
        # _kernels_py: the tie quantum, the kernel's determinant row and
        # its column squares (1e155 ** 2), and the moduli and norm
        lambda: kernels.canonical_order((z, 1, 2)),
        lambda: kernel_vector(Mat3((1, 0, z, 0, 1, 0, 0, 0, 3.5)).entries),
        lambda: kernel_vector(Mat3.diagonal(1e155, 1, 1).entries),
        lambda: kernels.modulus(z),
        lambda: kernels.square_modulus(z),
        lambda: kernels.vec_norm((z, 0, 0)),
        # linalg
        lambda: CubicPoly(1, z, 0, 0).max_coefficient(),
        lambda: check_nonsingular(z, 1.0),
        lambda: separation((z, 0, 1)),
        # spectral: the coefficient scale, the curve's value (d2 at
        # (0 : 0 : 1)) and the point's scale, a symmetric function, and a
        # relative difference
        lambda: sd.coeffs._replace(t=z).max_magnitude(),
        lambda: curve_residual(sd.coeffs._replace(d2=z), 0, 0, 1),
        lambda: curve_residual(sd.coeffs, z, 0, 1),
        lambda: validate_spectral_data(sd._replace(h=(z, 2, 3))),
        lambda: relative_difference(z, 0),
        # reconstruct: the closed forms' (h1 - h2) ** 2, and the scale of
        # U's invariants
        lambda: reconstruct(sd._replace(h=(1e308 + 0j, -1e308 + 0j, sd.h[2]))),
        lambda: canonical_form(sd._replace(coeffs=sd.coeffs._replace(q_plus=z))),
        # gl2z: the moduli, and the cube of 1e200
        lambda: invert_spectral(sd._replace(h=(z, 2, 3))),
        lambda: invert_spectral(sd._replace(h=(1e200, 2, 3))),
        # cubic: a point's moduli, and the curve's value at a point of a
        # curve whose p_plus is near z
        lambda: third_intersection(sd.coeffs, (z, -1, 0), (0.1, 0.2, 1)),
        lambda: third_intersection(
            seed_0.coeffs._replace(p_plus=1.3e308 * (1 + 1j)),
            (seed_0.h[0], -1, 0), (0.1, 0.2, 1)),
    ]
    guards = overflow_guards()
    with tracing(set(guards)) as seen:
        for trigger in triggers:
            try:
                trigger()
            except SpectralPairError:
                pass
    assert sum(map(len, guards.values())) == 20
    assert unreached(guards, seen) == []
