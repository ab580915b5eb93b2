import random

import pytest

from spectral_pair import _kernels_py as kernels
from spectral_pair import cubic as cubic_module
from spectral_pair import (
    CoincidentPoints,
    CubicPoly,
    CurveCoefficients,
    GeneralPositionError,
    InputsNotIncident,
    LineOnCurve,
    chord_swap_divisor,
    normalize_pair,
    solve_cubic,
    spectral_data,
    swap_spectral,
)

from conftest import third_intersection
from oracles import (
    chord_swap_divisor_renormalizing,
    curve_point_near,
    evaluate_curve,
    evaluate_curve_raw,
    match_roots,
    normalized,
    projective_distance,
)


def eigen_points(sd):
    return [(h, -1.0, 0.0) for h in sd.h]


def second_matrix_points(sd):
    xi = solve_cubic(CubicPoly(1.0, -sd.coeffs.q_plus, sd.coeffs.q_minus,
                               -sd.coeffs.d2))
    return [(x, 0.0, -1.0) for x in xi]


def divisor(sd):
    return (sd.divisor.L, sd.divisor.M, 1.0)


def test_eigenvalue_points_on_curve(seeded_pairs):
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        for p in eigen_points(sd):
            assert abs(evaluate_curve(sd.coeffs, p)) < 1e-10 * sd.coeffs.max_magnitude()


def test_divisor_point_on_curve(seeded_pairs):
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        assert (abs(evaluate_curve(sd.coeffs, divisor(sd)))
                < 1e-8 * sd.coeffs.max_magnitude())


def test_off_curve_point_nonzero(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    assert abs(evaluate_curve(sd.coeffs, (0.123, 4.5, 0.678))) > 1e-6


def test_third_intersection_infinity_line(seeded_pairs):
    # the nu = 0 line meets the curve at the three eigenvalue points
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        p1, p2, p3 = eigen_points(sd)
        got = third_intersection(sd.coeffs, p1, p2)
        assert projective_distance(got, p3) < 1e-9


def test_third_intersection_mu_zero_line(seeded_pairs):
    # the mu = 0 line meets the curve at the second matrix's spectrum
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        x1, x2, x3 = second_matrix_points(sd)
        got = third_intersection(sd.coeffs, x1, x2)
        assert projective_distance(got, x3) < 1e-8


def test_third_intersection_chord_symmetry(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        p1 = eigen_points(sd)[0]
        q = divisor(sd)
        a = third_intersection(sd.coeffs, p1, q)
        b = third_intersection(sd.coeffs, q, p1)
        assert projective_distance(a, b) < 1e-9


def test_third_intersection_requires_distinct_points(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    p1 = eigen_points(sd)[0]
    # 1e-9 away, p1's neighbour is still on the curve
    near = (sd.h[0] * (1 + 1e-9), -1.0, 0.0)
    for p2 in (p1, near):
        with pytest.raises(CoincidentPoints):
            third_intersection(sd.coeffs, p1, p2)


def test_normalized_scales_the_first_largest_coordinate():
    assert cubic_module._normalized((1, -1, 0)) == (1, -1, 0)
    assert cubic_module._normalized((0, 2j, -2)) == (0, 1, 1j)
    with pytest.raises(ValueError):
        cubic_module._normalized((0, 0, 0))


def test_third_intersection_requires_incidence(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    p1 = eigen_points(sd)[0]
    with pytest.raises(InputsNotIncident):
        third_intersection(sd.coeffs, p1, (0.1, 0.2, 1.0))


def test_line_component_of_reducible_curve_detected():
    # (lam + mu)(lam^2 + mu^2 + nu^2) written in the nine-coefficient form
    coeffs = CurveCoefficients(d1=1, d2=0, p_plus=1, p_minus=1, q_plus=0,
                               q_minus=1, r_plus=0, r_minus=1, t=0)
    p1, p2 = (1, -1, 0), (0, 0, 1)
    assert abs(evaluate_curve(coeffs, p1)) < 1e-14
    assert abs(evaluate_curve(coeffs, p2)) < 1e-14
    with pytest.raises(LineOnCurve):
        third_intersection(coeffs, p1, p2)


def test_restricted_cubic_has_three_roots(seeded_pairs):
    """Lines through one curve point: deflating the known root leaves a true
    quadratic, giving three intersections with multiplicity."""
    sd = spectral_data(seeded_pairs[3])
    c9 = sd.coeffs
    p0 = normalized(divisor(sd))
    rng = random.Random(12)
    for _ in range(50):
        q = normalized([complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(3)])

        def restricted(s, t):
            return evaluate_curve_raw(c9, *(s * a + t * b
                                            for a, b in zip(p0, q)))

        c30 = restricted(1.0, 0.0)
        c03 = restricted(0.0, 1.0)
        c21 = 0.5 * (restricted(1, 1) - restricted(1, -1)) - c03
        c12 = 0.5 * (restricted(1, 1) + restricted(1, -1)) - c30
        scale = c9.max_magnitude()
        assert abs(c30) < 1e-9 * scale  # the known root deflates cleanly
        # remaining quadratic c21 s^2 + c12 s t + c03 t^2 is nondegenerate
        assert max(abs(c21), abs(c03)) > 1e-6 * scale
        disc = (c12 * c12 - 4 * c21 * c03) ** 0.5
        for sign in (1, -1):
            if abs(c21) > abs(c03):
                s, t = (-c12 + sign * disc) / (2 * c21), 1.0
            else:
                s, t = 1.0, (-c12 + sign * disc) / (2 * c03)
            value = restricted(s, t)
            assert abs(value) < 1e-7 * scale * max(1.0, abs(s), abs(t)) ** 3


def test_chord_swap_coincident_inputs(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    x1 = second_matrix_points(sd)[0]
    p1 = eigen_points(sd)[0]
    with pytest.raises(CoincidentPoints):
        chord_swap_divisor(sd.coeffs, p1, x1, x1)


def test_curve_point_near_helper(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    q = divisor(sd)
    near = curve_point_near(sd.coeffs, q, 1e-4)
    assert 1e-6 < projective_distance(near, q) < 1e-2
    assert abs(evaluate_curve(sd.coeffs, near)) < 1e-10 * sd.coeffs.max_magnitude()


def chord_inputs(sd):
    """The three points ``swap_spectral`` hands the chord construction."""
    return (eigen_points(sd)[0], second_matrix_points(sd)[0], divisor(sd))


def chord_outcome(chord, coeffs, *points):
    try:
        return chord(coeffs, *points)
    except GeneralPositionError as exc:
        return exc.code


def test_chord_swap_matches_renormalizing_oracle(seeded_pairs):
    cases = []
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        cases.append((sd.coeffs, *chord_inputs(sd)))
    sd = spectral_data(seeded_pairs[0])
    p1, x1, q = chord_inputs(sd)
    t_point = third_intersection(sd.coeffs, x1, q)
    reducible = CurveCoefficients(d1=1, d2=0, p_plus=1, p_minus=1, q_plus=0,
                                  q_minus=1, r_plus=0, r_minus=1, t=0)
    degenerate = [
        ("coincident_points", (sd.coeffs, p1, x1, x1)),
        ("inputs_not_incident",
         (sd.coeffs, p1, x1, (0.1, 0.2, 1.0))),
        # p_first equal to the first chord's third intersection
        ("coincident_points", (sd.coeffs, t_point, x1, q)),
        ("line_on_curve", (reducible, (0, 1, 1), (1, -1, 0), (0, 0, 1))),
    ]
    for code, case in degenerate:
        assert chord_outcome(chord_swap_divisor, *case) == code
    for case in cases + [case for _, case in degenerate]:
        got = chord_outcome(chord_swap_divisor, *case)
        expected = chord_outcome(chord_swap_divisor_renormalizing, *case)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert type(got) is tuple and len(got) == 3
            assert max(abs(x - y) for x, y in zip(got, expected)) <= 1e-13


def test_swap_normalizes_each_chord_point_once(seeded_pairs, monkeypatch):
    calls = []
    original = cubic_module._normalized

    def counting_normalized(p):
        calls.append(p)
        return original(p)

    sd = spectral_data(seeded_pairs[0])
    monkeypatch.setattr(cubic_module, "_normalized", counting_normalized)
    swap_spectral(sd)
    assert len(calls) == 5   # 16 when every line and evaluation renormalized


def test_swap_evaluates_the_cubic_at_most_ten_times(seeded_pairs, monkeypatch):
    # once at each of the chord's five points, twice per chord for the
    # restricted cubic at p1 + p2 and p1 - p2, and once for the divisor check
    calls = []
    original = kernels.eval_curve9

    def counting_eval(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kernels, "eval_curve9", counting_eval)
    for pair in seeded_pairs[:20]:
        sd = spectral_data(pair)
        calls.clear()
        swap_spectral(sd)
        assert 0 < len(calls) <= 10
