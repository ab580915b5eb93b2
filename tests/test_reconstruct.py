import math
import random
import sys

import numpy as np
import pytest

import spectral_pair.linalg
import spectral_pair.spectral
from spectral_pair import (
    CubicPoly,
    CurveCoefficients,
    DivisorPoint,
    GeneralPositionError,
    Generator,
    InvariantViolation,
    Mat3,
    MatrixPair,
    NormalizedPair,
    RepeatedEigenvalues,
    SingularMatrix,
    SpectralData,
    act_spectral,
    canonical_form,
    curve_coefficients,
    diagonal_entries,
    normalize_pair,
    random_pair,
    reconstruct,
    shear_spectral,
    solve_cubic,
    spectral_data,
    spectral_data_of_normalized,
    spectral_residuals,
    swap_spectral,
    validate_spectral_data,
    verify_commutation,
)
from spectral_pair._kernels_py import canonical_order, eval_curve9
from spectral_pair.linalg import nonsingular_det
from spectral_pair.reconstruct import _relisted
from spectral_pair.spectral import relative_difference, worst_residual

from conftest import FIXTURE_A, FIXTURE_B, FIXTURE_H, recording_validations
from oracles import (
    canonical_form_by_forward_map,
    closed_form_lower_left,
    divisor_by_minor_equations,
    expanded_coefficients,
    match_roots,
    random_exact_normalized_pair,
)
from test_spectral import near_gap_pair


def coeffs_for(**kw) -> CurveCoefficients:
    base = dict(d1=0, d2=0, p_plus=0, p_minus=0, q_plus=0, q_minus=0,
                r_plus=0, r_minus=0, t=0)
    base.update(kw)
    return CurveCoefficients(**base)


def first_spectrum(coeffs: CurveCoefficients):
    """A's eigenvalues read off the curve: the roots of
    x^3 - p_plus x^2 + p_minus x - d1."""
    return solve_cubic(
        CubicPoly(1.0, -coeffs.p_plus, coeffs.p_minus, -coeffs.d1))


def test_eigenvalues_from_symmetric_functions():
    got = first_spectrum(coeffs_for(d1=6, p_plus=6, p_minus=11))
    assert match_roots(got, (1, 2, 3)) < 1e-12


def test_eigenvalues_random_round_trip():
    rng = random.Random(77)
    for _ in range(100):
        h = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        if min(abs(h[0] - h[1]), abs(h[0] - h[2]), abs(h[1] - h[2])) < 0.1:
            continue
        c = coeffs_for(d1=h[0] * h[1] * h[2],
                       p_plus=h[0] + h[1] + h[2],
                       p_minus=h[0] * h[1] + h[0] * h[2] + h[1] * h[2])
        assert match_roots(first_spectrum(c), h) < 1e-9


def test_eigenvalues_triple_root_rejected():
    # reconstruction's first step refuses the spectrum of (x - 1)^3
    c = coeffs_for(d1=1, p_plus=3, p_minus=3)
    with pytest.raises(RepeatedEigenvalues):
        diagonal_entries(c, first_spectrum(c))


def test_diagonal_from_fixture(seeded_pairs):
    for pair in seeded_pairs[:50]:
        npair = normalize_pair(pair)
        c = spectral_data(pair).coeffs
        got = diagonal_entries(c, npair.h)
        expected = (npair.u[0, 0], npair.u[1, 1], npair.u[2, 2])
        assert max(abs(x - y) for x, y in zip(got, expected)) < 1e-9 * max(
            1.0, npair.u.norm())


def test_diagonal_identity_u():
    got = diagonal_entries(
        coeffs_for(q_plus=3, r_plus=11, t=12), (1, 2, 3))
    assert max(abs(x - 1) for x in got) < 1e-12


def test_diagonal_defining_system(seeded_pairs):
    for pair in seeded_pairs[:20]:
        npair = normalize_pair(pair)
        c = spectral_data(pair).coeffs
        h1, h2, h3 = npair.h
        u11, u22, u33 = diagonal_entries(c, npair.h)
        scale = max(1.0, abs(c.q_plus), abs(c.r_plus), abs(c.t))
        assert abs(u11 + u22 + u33 - c.q_plus) < 1e-10 * scale
        assert abs(h1 * h2 * u33 + h1 * h3 * u22 + h2 * h3 * u11
                   - c.r_plus) < 1e-10 * scale
        assert abs((h1 + h2) * u33 + (h1 + h3) * u22 + (h2 + h3) * u11
                   - c.t) < 1e-10 * scale


def test_reconstruct_integer_fixture(fixture_pair):
    npair = reconstruct(spectral_data(fixture_pair))
    assert max(abs(x - y) for x, y in zip(npair.h, FIXTURE_H)) < 1e-10
    assert max(abs(x - y) for x, y in
               zip(npair.u.entries, FIXTURE_B.entries)) < 1e-8


def test_round_trip_forward(seeded_pairs):
    for pair in seeded_pairs:
        npair = normalize_pair(pair)
        back = reconstruct(spectral_data(pair))
        assert max(abs(x - y) for x, y in zip(npair.h, back.h)) < 1e-7
        assert max(abs(x - y) for x, y in
                   zip(npair.u.entries, back.u.entries)) < 1e-7 * max(
                       1.0, npair.u.norm())


def test_round_trip_backward(seeded_pairs):
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        again = spectral_data(reconstruct(sd).as_pair())
        assert max(spectral_residuals(sd, again).values()) < 1e-7


def test_round_trip_backward_keeps_h_to_the_bit(seeded_pairs):
    """``reconstruct`` returns diag(h) with h in canonical order, and
    ``eig3`` reads a diagonal A's eigenvalues off its entries."""
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        again = spectral_data(reconstruct(sd).as_pair())
        assert repr(again.h) == repr(sd.h)


def test_closed_forms_agree_with_linear_solve(seeded_pairs):
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        npair = reconstruct(sd)
        u21_cf, u31_cf = closed_form_lower_left(sd.coeffs, sd.h, sd.divisor.L,
                                                sd.divisor.M)
        ref = max(1.0, abs(npair.u[1, 0]), abs(npair.u[2, 0]))
        assert abs(npair.u[1, 0] - u21_cf) / ref < 1e-7
        assert abs(npair.u[2, 0] - u31_cf) / ref < 1e-7


def test_a_nan_residual_fails_the_d2_test():
    """A NaN in the solve, here from a NaN q_minus, makes det U NaN, and
    the strict comparison fails it rather than passing it."""
    sd = spectral_data(random_pair(2))
    sd = sd._replace(coeffs=sd.coeffs._replace(q_minus=complex(math.nan, 0)))
    with pytest.raises(InvariantViolation) as info:
        reconstruct(sd)
    assert info.value.detail["component"] == "d2"
    assert math.isnan(info.value.detail["residual"])


def test_d2_set_to_0_fails_the_d2_test():
    """The comparison with tau |d2| is strict, so d2 = 0 fails it even
    where det U is 0 too; the residual then reads inf."""
    sd = spectral_data(random_pair(2))
    with pytest.raises(InvariantViolation) as info:
        reconstruct(sd._replace(coeffs=sd.coeffs._replace(d2=0j)))
    assert info.value.detail == {"component": "d2", "residual": math.inf}


@pytest.mark.parametrize("seed, name, value", [
    (4, "q_minus", 8e307), (18, "r_minus", 8e307), (5, "r_minus", 1.7e308),
    (11, "h", 1e308 + 0j)])
def test_an_overflowing_modulus_fails_the_agreement_test(seed, name, value):
    """Data that fails ``validate_spectral_data`` can overflow U's entries,
    its determinant or the moduli of the test of det U against d2, at
    (h1 - h2) ** 2 for h1 = -h2 = ``value``; ``kernels.modulus`` reads an
    overflowing modulus as inf, and the test fails with its coded error
    instead of ``OverflowError``."""
    sd = spectral_data(random_pair(seed))
    if name == "h":
        sd = sd._replace(h=(value, -value, sd.h[2]))
    else:
        sd = sd._replace(coeffs=sd.coeffs._replace(**{name: value}))
    with pytest.raises(InvariantViolation) as info:
        reconstruct(sd)
    assert info.value.detail["component"] == "d2"
    assert not math.isfinite(info.value.detail["residual"])


def test_reconstruct_rejects_nearly_equal_h2_h3():
    # |h3 - h2| = 1e-10 max|h|: the separation check in diagonal_entries
    # (1e-6 relative) rejects it before the (u21, u31) solve divides by
    # h3 - h2
    h = (1, 2, 2 + 2e-10)
    c = curve_coefficients(NormalizedPair(h, FIXTURE_B))
    # an on-curve point off the divisor formula, whose denominator
    # u12 u13 (h3 - h2) is degenerate here: (L : 0 : 1) with det(L + U) = 0
    root = solve_cubic(CubicPoly(1.0, c.q_plus, c.q_minus, c.d2))[0]
    sd = SpectralData(h, c, DivisorPoint(root, 0))
    validate_spectral_data(sd)
    with pytest.raises(RepeatedEigenvalues):
        reconstruct(sd)


def test_near_gap_reconstructions_end_coded_or_accurate():
    """300 near-gap pairs, at relative gaps log-uniform in 1e-6..3e-4,
    where the solve's U loses accuracy like 1/gap^2.  Each pair that maps
    forward either fails ``reconstruct`` with a coded
    ``GeneralPositionError``, or gives a U within 1e-6 of
    ``normalize_pair``'s and a backward round trip within 1e-6: no wrong
    pair is returned uncoded."""
    rng = random.Random("near-gap reconstructions")
    outcomes = []
    for _ in range(300):
        gap = math.exp(rng.uniform(math.log(1e-6), math.log(3e-4)))
        pair = near_gap_pair(rng, gap)
        try:
            sd = spectral_data(pair)
        except GeneralPositionError:
            continue
        try:
            back = reconstruct(sd)
        except GeneralPositionError as exc:
            outcomes.append(exc.code)
            continue
        want = normalize_pair(pair)
        assert worst_residual(list(map(
            relative_difference, (*back.h, *back.u.entries),
            (*want.h, *want.u.entries)))) <= 1e-6
        again = spectral_data(back.as_pair())
        assert worst_residual(spectral_residuals(sd, again).values()) <= 1e-6
        outcomes.append("ok")
    assert {"ok", "invariant_violation"} <= set(outcomes)


def test_off_curve_divisor_not_projected(fixture_pair):
    """The point is not projected onto the curve, and the pair it gives
    misses d2 by the curve's value there, so the d2 test rejects it."""
    sd = spectral_data(fixture_pair)
    bent = SpectralData(sd.h, sd.coeffs,
                        DivisorPoint(sd.divisor.L + 1e-2, sd.divisor.M))
    with pytest.raises(InvariantViolation) as info:
        reconstruct(bent)
    assert info.value.detail["component"] == "d2"
    value = eval_curve9(sd.coeffs, *bent.divisor, 1.0)
    assert math.isclose(info.value.detail["residual"] * abs(sd.coeffs.d2),
                        abs(value), rel_tol=1e-6)


def test_canonical_form_idempotent(seeded_pairs):
    """The forward map, the swap formula and the shear formula all list the
    eigenvalues in the canonical order already, so relisting keeps h and the
    coefficients and re-reads the divisor point to round-off."""
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        for listed in (sd, swap_spectral(sd), shear_spectral(sd)):
            again = canonical_form(listed)
            assert again.h == listed.h
            assert again.coeffs == listed.coeffs
            residuals = spectral_residuals(listed, again)
            assert max(residuals["L"], residuals["M"]) < 1e-12


def test_canonical_form_ordering_independent(seeded_pairs):
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        # list the eigenbasis as (1, 3, 2); the gauge row stays first, so
        # the permuted U is still gauge-fixed
        npair = reconstruct(sd)
        order = (0, 2, 1)
        swapped = NormalizedPair(
            tuple(npair.h[i] for i in order),
            Mat3(tuple(npair.u[i, j] for i in order for j in order)))
        sd_swapped = spectral_data_of_normalized(swapped)
        assert abs(sd_swapped.h[1] - sd.h[2]) < 1e-9
        lhs = canonical_form(sd_swapped)
        rhs = canonical_form(sd)
        assert max(spectral_residuals(lhs, rhs).values()) < 1e-7


def test_canonical_form_matches_forward_map(seeded_pairs):
    """The coefficients are the input's, bit for bit; h and the divisor
    point agree with the full forward map, whose re-derived coefficients
    are the part that drifts."""
    non_canonical = 0
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        for g in Generator:
            acted = act_spectral(g, sd)
            non_canonical += acted.h != canonical_order(acted.h)
            got = canonical_form(acted)
            want = canonical_form_by_forward_map(acted)
            assert got.coeffs == acted.coeffs
            residuals = spectral_residuals(got, want)
            assert max(residuals[k] for k in ("h1", "h2", "h3", "L", "M")) < 1e-12
    assert non_canonical > 0   # the permutation is exercised


def test_relisting_that_keeps_the_first_eigenvalue_passes_through(monkeypatch):
    """The divisor point depends only on which eigenvalue is listed first,
    so a relisting that keeps it in place returns the input's coefficients
    and divisor point bit for bit, and reconstructs nothing."""
    reconstructed = []
    monkeypatch.setattr(sys.modules["spectral_pair.reconstruct"],
                        "reconstruct", reconstructed.append)
    kept = 0
    for seed in range(100):
        sd = spectral_data(random_pair(seed))
        for g in Generator:
            image = act_spectral(g, sd)
            h = canonical_order(image.h)
            if h[0] != image.h[0]:
                continue
            kept += 1
            listed = canonical_form(image)
            assert listed.h == h
            assert listed.coeffs is image.coeffs
            assert listed.divisor is image.divisor
    assert reconstructed == []
    assert kept >= 250   # 266 of the 300 images


def test_relisting_an_action_output_in_kept_order_returns_it_unvalidated(
        seeded_pairs, monkeypatch):
    """An action validates its output, so the private relisting returns
    that very object when the canonical order keeps h, and validates
    nothing more; it runs the other checks all the same."""
    validated = recording_validations(monkeypatch)
    kept = 0
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        for g in Generator:
            image = act_spectral(g, sd)
            if canonical_order(image.h) != image.h:
                continue
            kept += 1
            validated.clear()
            assert _relisted(image) is image
            assert validated == []
            # data from outside: the public relisting validates it
            assert canonical_form(image) == image
            assert len(validated) == 1
    assert kept >= 10
    sd = spectral_data(seeded_pairs[0])
    with pytest.raises(SingularMatrix) as info:
        _relisted(sd._replace(coeffs=sd.coeffs._replace(d2=1e-300)))
    assert info.value.detail["which"] == "B"


@pytest.mark.parametrize("order", [(0, 2, 1), (1, 0, 2), (2, 1, 0)],
                         ids=["second-and-third", "first-and-second",
                              "first-and-third"])
def test_relisting_a_permuted_h_validates_it_again(seeded_pairs, order,
                                                   monkeypatch):
    """A permuted h sums the symmetric functions in another order, which
    can round differently, so the result is validated again, also when
    only the second and third eigenvalues swap."""
    sd = spectral_data(seeded_pairs[0])
    listed = sd._replace(h=tuple(sd.h[i] for i in order))
    validated = recording_validations(monkeypatch)
    out = _relisted(listed)
    assert out.h == sd.h and out.coeffs is sd.coeffs
    assert validated == [out]
    assert out == canonical_form(listed)


def test_canonical_form_validates_data_in_canonical_order(seeded_pairs):
    """Data from outside is validated even when its order is kept: an
    off-curve divisor point is an invariant violation.  The private
    relisting trusts its caller to have validated the data."""
    sd = spectral_data(seeded_pairs[0])
    off_curve = sd._replace(divisor=sd.divisor._replace(L=sd.divisor.L + 1))
    assert canonical_order(off_curve.h) == off_curve.h
    with pytest.raises(InvariantViolation) as info:
        canonical_form(off_curve)
    assert info.value.detail["component"] == "divisor"
    assert _relisted(off_curve) is off_curve


def singular_a_detail(call):
    """The detail of the ``SingularMatrix`` naming "A" that ``call``
    raises, or None when it raises none."""
    try:
        call()
    except SingularMatrix as exc:
        if exc.detail["which"] == "A":
            return exc.detail
    except GeneralPositionError:
        pass
    return None


@pytest.mark.parametrize("h", [
    (1 + 0j, 2 + 0j, 3 + 0j),
    (1e-110, 2e-110, 3e-110),
    (1e110 + 1j, -2e110 + 0j, 3e110j),
    (1e200 + 1e200j, 2e200 - 1e200j, -1e200 + 0j),
    (2.0 ** -600, 1.5, -3.25),
    (1 + 0j, 1e-6 + 0j, -1e-6 + 0j),
    (4 + 0j, 3e-6 + 0j, -3e-6j),
])
def test_diagonal_test_matches_the_padded_matrix(fixture_pair, h):
    """``canonical_form`` tests diag(h) by h1 (h2 h3) and the norm of h.
    These equal the determinant and norm of the padded matrix up to the
    sign of a zero, so the test raises, and reports, as ``nonsingular_det``
    of the padded entries does."""
    h = canonical_order(h)
    padded = tuple(map(complex, (h[0], 0, 0, 0, h[1], 0, 0, 0, h[2])))
    sd = spectral_data(fixture_pair)._replace(h=h)
    # repr, so that a NaN determinant compares equal
    assert repr(singular_a_detail(lambda: canonical_form(sd))) == \
        repr(singular_a_detail(lambda: nonsingular_det(padded, "A")))


def test_canonical_form_rejects_a_non_finite_h(fixture_pair):
    """A NaN eigenvalue fails the separation test, which tests finiteness
    apart from the gaps, since ``min`` and ``max`` skip a NaN that is not
    first."""
    sd = spectral_data(fixture_pair)
    with pytest.raises(RepeatedEigenvalues):
        canonical_form(sd._replace(h=(1 + 0j, 2 + 0j, complex(math.nan, 0))))


def test_pass_through_tests_d2_against_the_scale_of_its_invariants(
        fixture_pair):
    """Without U, B is singular when |d2| <= SINGULAR s^3 with s =
    max(|q_plus|, |q_minus|^(1/2), |d2|^(1/3)), 9 for the fixture.  The
    test is scale-free: (A, tB) relists down to t = 1e-60, where the
    gauge-fixed U, whose (1,2) and (1,3) entries stay 1, read as singular."""
    sd = spectral_data(fixture_pair)
    with pytest.raises(SingularMatrix) as info:
        canonical_form(sd._replace(coeffs=sd.coeffs._replace(d2=7e-10)))
    assert info.value.detail == {"which": "B", "det": 7e-10, "norm": 9.0}
    # a scale whose modulus overflows reads inf, as read from a document
    huge = complex(1.5e308, 1.5e308)
    with pytest.raises(SingularMatrix) as info:
        canonical_form(sd._replace(coeffs=sd.coeffs._replace(q_plus=huge)))
    assert info.value.detail["norm"] == math.inf
    for t in (1e-60, 1e-30, 1e-10):
        scaled = spectral_data(MatrixPair(FIXTURE_A, FIXTURE_B.scaled(t)))
        assert canonical_form(scaled) == scaled


def test_moved_first_eigenvalue_tests_d2_before_reconstructing(
        fixture_pair, monkeypatch):
    """Both routes test B by the same invariant rule, before the route
    that moves the first eigenvalue reconstructs anything."""
    def fail(sd):
        raise AssertionError("reconstruct called")
    monkeypatch.setattr(sys.modules["spectral_pair.reconstruct"],
                        "reconstruct", fail)
    sd = spectral_data(fixture_pair)
    h1, h2, h3 = sd.h
    moved = SpectralData((h2, h1, h3), sd.coeffs._replace(d2=7e-10),
                         sd.divisor)
    assert canonical_order(moved.h)[0] != moved.h[0]
    with pytest.raises(SingularMatrix) as info:
        canonical_form(moved)
    assert info.value.detail == {"which": "B", "det": 7e-10, "norm": 9.0}


def test_closed_forms_for_the_lower_left_are_exact():
    """At random Gaussian-rational (h, U), the oracle's closed forms for
    (u21, u31), fed the exact coefficients (by the Leibniz expansion) and
    the exact divisor point (by the two minor equations), give U's entries
    exactly.  Two different rational functions agree at a random point only
    with probability degree/N, so a few points pin the transcription, and
    ``test_closed_forms_agree_with_linear_solve`` holds the linear solve to
    them."""
    rng = random.Random("closed forms")
    for _ in range(4):
        h, u = random_exact_normalized_pair(rng)
        coeffs = expanded_coefficients(h, u)
        assert coeffs.pop("lam3") == 1
        L, M = divisor_by_minor_equations(h, u)
        assert closed_form_lower_left(CurveCoefficients(**coeffs), h, L, M) \
            == (u[1, 0], u[2, 0])


def test_canonical_form_solves_no_eigenproblem(seeded_pairs, monkeypatch):
    calls = []
    for name in ("eigenvalues", "eigenvector"):
        original = getattr(spectral_pair.spectral, name)

        def counting(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral_pair.spectral, name, counting)
    sd = act_spectral(Generator.INVERT, spectral_data(seeded_pairs[0]))
    assert len(calls) == 2
    calls.clear()
    canonical_form(sd)
    assert calls == []


def counting(monkeypatch, module, names) -> dict[str, int]:
    """Calls of each of the module's functions ``names`` from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_spectral_data_seeks_one_kernel_vector_and_no_eigenbasis(monkeypatch):
    """The forward map of a general pair seeks A's left eigenvector at h1
    and nothing more: no change of basis and no gauge fix.  The shear's
    diagram maps its image forward with A's h and w, so it seeks one
    kernel vector in all."""
    pair = random_pair(0)
    kernels = counting(monkeypatch, spectral_pair.linalg, ["kernel_vector"])
    stages = counting(monkeypatch, spectral_pair.spectral,
                      ["_in_eigenbasis", "_gauge_fix"])
    spectral_data(pair)
    assert (kernels, stages) == ({"kernel_vector": 1},
                                 {"_in_eigenbasis": 0, "_gauge_fix": 0})
    kernels["kernel_vector"] = 0
    verify_commutation(Generator.SHEAR, pair)
    assert (kernels, stages) == ({"kernel_vector": 1},
                                 {"_in_eigenbasis": 0, "_gauge_fix": 0})


def test_reconstruction_jacobian_rank(seeded_pairs, monkeypatch):
    """Sensitivity: the solve depends on exactly the 10 live input
    coordinates (h, q_pm, r_pm, t, L, M) with full rank, and never reads
    the redundant coordinates (d1, p_pm, d2).  A step of 1e-5 moves det U
    off d2 by far more than the d2 test allows, so the solve is
    differentiated alone, with that test's tolerance made infinite; d2 is
    read only by the test, which then rejects a moved d2."""
    sd = spectral_data(seeded_pairs[0])
    module = sys.modules["spectral_pair.reconstruct"]
    monkeypatch.setattr(module, "RECONSTRUCTED_D2", math.inf)

    live = ["h0", "h1", "h2", "q_plus", "q_minus", "r_plus", "r_minus", "t",
            "L", "M"]

    def pack(sd):
        return {"h0": sd.h[0], "h1": sd.h[1], "h2": sd.h[2],
                **dict(sd.coeffs.items()),
                "L": sd.divisor.L, "M": sd.divisor.M}

    def unpack(values):
        coeff_names = [n for n, _ in sd.coeffs.items()]
        return SpectralData(
            (values["h0"], values["h1"], values["h2"]),
            CurveCoefficients(**{n: values[n] for n in coeff_names}),
            DivisorPoint(values["L"], values["M"]))

    def outputs(values):
        npair = reconstruct(unpack(values))
        return np.array(list(npair.h) + list(npair.u.entries))

    base = pack(sd)
    delta = 1e-5
    columns = []
    for name in live:
        up, down = dict(base), dict(base)
        up[name] = up[name] + delta
        down[name] = down[name] - delta
        col = (outputs(up) - outputs(down)) / (2 * delta)
        assert np.linalg.norm(col) > 1e-6, f"{name} has no effect"
        assert np.linalg.norm(col) < 1e4, f"{name} effect unbounded"
        columns.append(col)
    jac = np.stack(columns, axis=1)
    singular = np.linalg.svd(jac, compute_uv=False)
    assert singular[9] >= 1e-6 * singular[0]

    # the four remaining coordinates are redundant for the solve
    for name in ("d1", "p_plus", "p_minus", "d2"):
        up = dict(base)
        up[name] = up[name] + 1e-4
        assert np.allclose(outputs(up), outputs(base))
    monkeypatch.undo()
    up = dict(base)
    up["d2"] = up["d2"] + 1e-4
    with pytest.raises(InvariantViolation):
        outputs(up)
