"""Acceptance suite: every criterion at its stated seed count and tolerance,
one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import random

import numpy as np
import pytest

from spectral_pair import (
    CubicPoly,
    CurveCoefficients,
    Generator,
    Mat3,
    MatrixPair,
    NormalizedPair,
    act_word_on_pair,
    act_word_spectral,
    canonical_form,
    chord_swap_divisor,
    curve_coefficients,
    decompose_gl2z,
    divisor_point,
    inv3,
    kernel_vector,
    matrix_of_word,
    normalize_pair,
    reconstruct,
    solve_cubic,
    spectral_data,
    spectral_residuals,
    swap_spectral,
    verify_commutation,
    well_conditioned_matrix,
)

from conftest import third_intersection
from oracles import (
    closed_form_lower_left,
    curve_point_near,
    expanded_coefficients,
    line_through,
    line_value,
    normalized,
)


def report(number: int, label: str, worst: float, bound: float) -> None:
    status = "PASS" if worst <= bound else "FAIL"
    print(f"{status} criterion {number}: {label} "
          f"(worst {worst:.3e}, bound {bound:.1e})")
    assert worst <= bound, f"criterion {number}: {worst:.3e} > {bound:.1e}"


def test_criterion_1_coefficient_oracle(seeded_pairs):
    worst = 0.0
    for pair in seeded_pairs:
        np_ = normalize_pair(pair)
        got = dict(curve_coefficients(np_).items())
        expected = expanded_coefficients(np_.h, np_.u)
        worst = max(worst, abs(expected.pop("lam3") - 1.0))
        for name, value in expected.items():
            worst = max(worst, abs(got[name] - value) / max(1.0, abs(value)))
    report(1, "curve coefficients match trilinear cofactor expansion",
           worst, 1e-10)


def test_criterion_2_divisor_kernel_property(seeded_pairs):
    worst = 0.0
    for pair in seeded_pairs:
        np_ = normalize_pair(pair)
        sd = spectral_data(pair)
        for lam, mu, nu in ((np_.h[1], -1.0, 0.0), (np_.h[2], -1.0, 0.0),
                            (sd.divisor.L, sd.divisor.M, 1.0)):
            pencil = (Mat3.identity().scaled(lam)
                      + Mat3.diagonal(*np_.h).scaled(mu)
                      + np_.u.scaled(nu))
            worst = max(worst, abs(kernel_vector(pencil.entries)[0]))
    report(2, "kernel first coordinate vanishes at the three divisor points",
           worst, 1e-7)


def test_criterion_3_round_trips(seeded_pairs):
    worst = 0.0
    for pair in seeded_pairs:
        np_ = normalize_pair(pair)
        sd = spectral_data(pair)
        back = reconstruct(sd)
        worst = max(worst, max(abs(x - y) for x, y in zip(np_.h, back.h)))
        worst = max(worst, max(abs(x - y) for x, y in
                               zip(np_.u.entries, back.u.entries)))
        again = spectral_data(back.as_pair())
        worst = max(worst, max(spectral_residuals(sd, again).values()))
    report(3, "reconstruct/spectral-data round trips both ways", worst, 1e-7)


def test_criterion_4_closed_form_cross_check(seeded_pairs):
    worst = 0.0
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        np_ = reconstruct(sd)
        u21_cf, u31_cf = closed_form_lower_left(
            sd.coeffs, sd.h, sd.divisor.L, sd.divisor.M)
        ref = max(1.0, abs(np_.u[1, 0]), abs(np_.u[2, 0]))
        worst = max(worst,
                    abs(np_.u[1, 0] - u21_cf) / ref,
                    abs(np_.u[2, 0] - u31_cf) / ref)
    report(4, "closed forms for (u21, u31) agree with the linear solve",
           worst, 1e-7)


@pytest.mark.parametrize("generator", list(Generator))
def test_criterion_5_commuting_diagrams(generator, seeded_pairs):
    worst = 0.0
    for pair in seeded_pairs:
        worst = max(worst, verify_commutation(generator, pair).max_residual)
    report(5, f"commuting diagram for {generator.name}", worst, 1e-6)


def test_criterion_6_chord_construction(seeded_pairs):
    worst = 0.0
    for pair in seeded_pairs:
        swapped = swap_spectral(spectral_data(pair))
        direct = spectral_data(MatrixPair(pair.b, pair.a))
        worst = max(worst, max(spectral_residuals(swapped, direct).values()))
    report(6, "chord-transported divisor equals the swapped pair's divisor",
           worst, 1e-6)


def test_criterion_6_zero_pole_probe(seeded_pairs):
    """|f| with f = (mu/nu) * (l2/l1) decays linearly toward its zeros and
    grows linearly toward its poles along the curve."""
    worst_zero, worst_pole = 0.0, float("inf")
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        c = sd.coeffs
        xi = sorted(solve_cubic(CubicPoly(1.0, -c.q_plus, c.q_minus, -c.d2)),
                    key=lambda z: (z.real, z.imag))
        p1, p2, p3 = ((h, -1.0, 0.0) for h in sd.h)
        x1, x2, x3 = ((x, 0.0, -1.0) for x in xi)
        q = (sd.divisor.L, sd.divisor.M, 1.0)
        t_point = third_intersection(c, x1, q)
        y = chord_swap_divisor(c, p1, x1, q)
        l1 = line_through(x1, q)
        l2 = line_through(p1, t_point)

        def f(point):
            pn = normalized(point)
            return (pn[1] / pn[2]) * (line_value(l2, pn) / line_value(l1, pn))

        for target, kind in ((x2, "zero"), (x3, "zero"), (y, "zero"),
                             (p2, "pole"), (p3, "pole"), (q, "pole")):
            near = abs(f(curve_point_near(c, target, 1e-4)))
            far = abs(f(curve_point_near(c, target, 1e-3)))
            ratio = near / far
            if kind == "zero":
                worst_zero = max(worst_zero, ratio)
            else:
                worst_pole = min(worst_pole, ratio)
    print(f"PASS criterion 6 (probe): zeros decay (ratio <= {worst_zero:.3f}),"
          f" poles grow (ratio >= {worst_pole:.3f})")
    assert worst_zero < 1 / 3, "zero ratios should shrink tenfold"
    assert worst_pole > 3.0, "pole ratios should grow tenfold"


def test_criterion_7_gl2z_decomposition():
    rng = random.Random(777)
    checked = 0
    max_ratio = 0.0
    while checked < 200:
        word = tuple(rng.choice(list(Generator)) for _ in range(40))
        m = matrix_of_word(word)
        if max(abs(x) for x in (m.a, m.b, m.c, m.d)) > 10 ** 6:
            continue
        recovered = decompose_gl2z(m)
        assert matrix_of_word(recovered) == m
        max_ratio = max(max_ratio, len(recovered) / 40.0)
        checked += 1
    report(7, "200 exact decomposition round trips, length ratio", max_ratio, 4.0)


def test_criterion_7_word_action(seeded_pairs):
    rng = random.Random(4242)
    worst = 0.0
    for trial in range(50):
        pair = seeded_pairs[trial % len(seeded_pairs)]
        word = tuple(rng.choice(list(Generator))
                     for _ in range(rng.randint(1, 6)))
        lhs = act_word_spectral(word, spectral_data(pair))
        rhs = canonical_form(spectral_data(act_word_on_pair(word, pair)))
        worst = max(worst, max(spectral_residuals(lhs, rhs).values()))
    report(7, "spectral word action matches matrix-side action", worst, 1e-5)


def test_criterion_8_conjugation_invariance(seeded_pairs):
    rng = random.Random(12321)
    worst = 0.0
    for pair in seeded_pairs:
        g = well_conditioned_matrix(rng)
        g_inv = inv3(g)
        conjugated = MatrixPair(g @ pair.a @ g_inv, g @ pair.b @ g_inv)
        worst = max(worst, max(spectral_residuals(
            spectral_data(pair), spectral_data(conjugated)).values()))
    report(8, "spectral data invariant under simultaneous conjugation",
           worst, 1e-7)


def test_criterion_9_jacobian_rank(seeded_pairs):
    """The forward map has full rank 10 (3 eigenvalues + 7 free entries) onto
    the 9 coefficients + 1 on-curve divisor freedom."""
    free = ["h1", "h2", "h3", "u11", "u21", "u31", "u22", "u32", "u23", "u33"]
    slots = {"u11": (0, 0), "u21": (1, 0), "u31": (2, 0), "u22": (1, 1),
             "u32": (2, 1), "u23": (1, 2), "u33": (2, 2)}

    def outputs(values):
        h = (values["h1"], values["h2"], values["h3"])
        entries = [values.get("u11"), 1.0, 1.0,
                   values.get("u21"), values.get("u22"), values.get("u23"),
                   values.get("u31"), values.get("u32"), values.get("u33")]
        np_ = NormalizedPair(h, Mat3(tuple(entries)))
        c = curve_coefficients(np_)
        d = divisor_point(np_)
        return np.array([*c, d.L, d.M])

    worst = 0.0
    for pair in seeded_pairs[:10]:
        np_ = normalize_pair(pair)
        base = {"h1": np_.h[0], "h2": np_.h[1], "h3": np_.h[2]}
        for name, (i, j) in slots.items():
            base[name] = np_.u[i, j]
        columns = []
        for name in free:
            delta = 1e-5 * max(1.0, abs(base[name]))
            up, down = dict(base), dict(base)
            up[name] += delta
            down[name] -= delta
            columns.append((outputs(up) - outputs(down)) / (2 * delta))
        jac = np.stack(columns, axis=1)
        singular = np.linalg.svd(jac, compute_uv=False)
        worst = max(worst, singular[0] / singular[9])
    # rank 10 means the smallest retained singular value stays within 1e6
    # of the largest
    report(9, "forward-map Jacobian has numerical rank 10", worst, 1e6)
