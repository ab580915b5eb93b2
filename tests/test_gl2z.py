import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import spectral_pair.gl2z as gl2z_module
from spectral_pair import (
    CurveCoefficients,
    DeterminantNotUnit,
    DivisorPoint,
    GL2ZMatrix,
    Generator,
    GeneralPositionError,
    IntermediateDegeneracy,
    InvariantViolation,
    Mat3,
    MatrixPair,
    NormalizedPair,
    RepeatedEigenvalues,
    SingularMatrix,
    SpectralData,
    SpectralPairError,
    SwappedPairDegenerate,
    act_on_pair,
    act_spectral,
    act_word_on_pair,
    act_word_spectral,
    canonical_form,
    curve_coefficients,
    decompose_gl2z,
    det3,
    diagonal_entries,
    divisor_point,
    general_position_report,
    inv3,
    invert_spectral,
    matrix_of_word,
    normalize_pair,
    parse_word,
    random_pair,
    reconstruct,
    shear_spectral,
    spectral_data,
    spectral_residuals,
    swap_spectral,
    tilde_r_minus,
    validate_spectral_data,
    verify_commutation,
    well_conditioned_matrix,
    word_to_str,
)

from spectral_pair.verify import DEFAULT_TOLERANCE, TOLERANCE_MULTIPLIERS

from conftest import FIXTURE_B, extreme_entry_pairs, nan_eigenvalue_pair
from oracles import (
    act_word_spectral_relisting_each_step,
    divisor_by_minor_equations,
    evaluate_word_at,
    expanded_coefficients,
    exponent_sums,
    random_exact_normalized_pair,
    rescaled,
    word_images,
)

S, I, T = Generator.SWAP, Generator.INVERT, Generator.SHEAR


def random_word(rng, length):
    return tuple(rng.choice([S, I, T]) for _ in range(length))


def test_parse_and_format():
    assert parse_word("S,I,T") == (S, I, T)
    assert parse_word("") == ()
    assert word_to_str((T, T, S)) == "T,T,S"
    with pytest.raises(ValueError):
        parse_word("S,X")


def test_generator_matrices():
    assert GENERATORS_EXPECTED == {
        g: (m.a, m.b, m.c, m.d)
        for g, m in ((g, matrix_of_word((g,))) for g in Generator)}


GENERATORS_EXPECTED = {
    S: (0, 1, 1, 0),
    I: (-1, 0, 0, 1),
    T: (1, 1, 0, 1),
}


def test_act_on_pair_involutions(seeded_pairs):
    pair = seeded_pairs[0]
    double_swap = act_word_on_pair((S, S), pair)
    assert double_swap.a.entries == pair.a.entries
    double_invert = act_word_on_pair((I, I), pair)
    assert max(abs(x - y) for x, y in
               zip(double_invert.a.entries, pair.a.entries)) < 1e-10


def test_word_action_matches_free_group_evaluation(seeded_pairs):
    rng = random.Random(20)
    for trial in range(20):
        pair = seeded_pairs[trial]
        word = random_word(rng, rng.randint(1, 6))
        acted = act_word_on_pair(word, pair)
        img1, img2 = word_images([g.value for g in word])
        expected_a = evaluate_word_at(img1, pair.a, pair.b, inv3)
        expected_b = evaluate_word_at(img2, pair.a, pair.b, inv3)
        scale = max(1.0, acted.a.norm(), acted.b.norm())
        assert max(abs(x - y) for x, y in
                   zip(acted.a.entries, expected_a.entries)) < 1e-8 * scale
        assert max(abs(x - y) for x, y in
                   zip(acted.b.entries, expected_b.entries)) < 1e-8 * scale
        # first-matrix determinant equals d1 of the acted pair's data
        d1 = spectral_data(acted).coeffs.d1
        assert abs(d1 - det3(acted.a)) < 1e-8 * max(1.0, abs(d1))


def test_sigma_consistency():
    """Exponent-sum abelianization of a word equals the transpose of the
    generator-matrix product, pinning the composition convention."""
    rng = random.Random(8)
    for _ in range(50):
        word = random_word(rng, rng.randint(0, 8))
        img1, img2 = word_images([g.value for g in word])
        e11, e12 = exponent_sums(img1)
        e21, e22 = exponent_sums(img2)
        m = matrix_of_word(word)
        assert (m.a, m.b, m.c, m.d) == (e11, e21, e12, e22)


FIXTURE_INVERT = {
    "h": (1, Fraction(1, 2), Fraction(1, 3)),
    "d1": Fraction(1, 6), "d2": -22, "p_plus": Fraction(11, 6), "p_minus": 1,
    "q_plus": 9, "q_minus": 16, "r_plus": Fraction(10, 3),
    "r_minus": Fraction(89, 6), "t": Fraction(35, 3),
    "L": 1, "M": -12,
}

FIXTURE_SHEAR = {
    "h": (1, 2, 3),
    "d1": 6, "d2": -132, "p_plus": 6, "p_minus": 11, "q_plus": 20,
    "q_minus": 89, "r_plus": 54, "r_minus": 96, "t": 70,
    "L": -12, "M": 1,
}


def _assert_matches_fixture(sd, expected):
    for i in range(3):
        assert abs(sd.h[i] - float(expected["h"][i])) < 1e-10
    for name, value in sd.coeffs.items():
        assert abs(value - float(expected[name])) < 1e-9, name
    assert abs(sd.divisor.L - float(expected["L"])) < 1e-9
    assert abs(sd.divisor.M - float(expected["M"])) < 1e-9


def test_invert_spectral_integer_fixture(fixture_pair):
    _assert_matches_fixture(invert_spectral(spectral_data(fixture_pair)),
                            FIXTURE_INVERT)


def test_shear_spectral_integer_fixture(fixture_pair):
    _assert_matches_fixture(shear_spectral(spectral_data(fixture_pair)),
                            FIXTURE_SHEAR)


def test_invert_keeps_second_matrix_coefficients(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        tilde = invert_spectral(sd)
        assert tilde.coeffs.d2 == sd.coeffs.d2
        assert tilde.coeffs.q_plus == sd.coeffs.q_plus
        assert tilde.coeffs.q_minus == sd.coeffs.q_minus


def test_invert_symmetric_function_identity(fixture_pair):
    sd = spectral_data(fixture_pair)
    tilde = invert_spectral(sd)
    assert abs(tilde.coeffs.p_plus - (1 + 1 / 2 + 1 / 3)) < 1e-12


def test_shear_fixes_first_matrix_data(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        starred = shear_spectral(sd)
        assert starred.h == sd.h
        assert starred.coeffs.d1 == sd.coeffs.d1
        assert starred.coeffs.p_plus == sd.coeffs.p_plus
        assert starred.coeffs.p_minus == sd.coeffs.p_minus


def test_shear_d2_is_product_determinant(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        starred = shear_spectral(sd)
        expected = det3(pair.a @ pair.b)
        assert abs(starred.coeffs.d2 - expected) < 1e-8 * max(1.0, abs(expected))


def test_swap_coefficient_permutation(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        swapped = swap_spectral(sd)
        other = spectral_data(MatrixPair(pair.b, pair.a))
        for name, value in swapped.coeffs.items():
            expected = dict(other.coeffs.items())[name]
            assert abs(value - expected) < 1e-8 * max(1.0, abs(expected)), name


def test_swap_involution(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        back = canonical_form(swap_spectral(swap_spectral(sd)))
        assert max(spectral_residuals(back, canonical_form(sd)).values()) < 1e-6


def test_invert_involution(seeded_pairs):
    for pair in seeded_pairs[:10]:
        sd = spectral_data(pair)
        back = canonical_form(invert_spectral(invert_spectral(sd)))
        assert max(spectral_residuals(back, canonical_form(sd)).values()) < 1e-6


@pytest.mark.parametrize("generator", list(Generator))
def test_commuting_diagram(generator, seeded_pairs):
    for pair in seeded_pairs[:25]:
        report = verify_commutation(generator, pair)
        assert report.max_residual < 1e-6, report


def test_real_pairs_with_conjugate_eigenvalues_commute():
    """Real pairs, most with a conjugate pair of eigenvalues on some side
    of each diagram.  The real parts of a conjugate pair differ by
    round-off, which decided their order when it was a plain (re, im)
    sort: 13 of these 120 diagrams were then over tolerance by 0.2 to 2."""
    rng = random.Random("real pairs with conjugate eigenvalues")
    conjugate = 0
    for _ in range(40):
        pair = MatrixPair(Mat3(tuple(rng.uniform(-1, 1) for _ in range(9))),
                          Mat3(tuple(rng.uniform(-1, 1) for _ in range(9))))
        try:
            h = spectral_data(pair).h
        except GeneralPositionError:
            continue
        conjugate += any(abs(z.imag) > 1e-9 for z in h)
        for g in Generator:
            try:
                assert verify_commutation(g, pair).max_residual < 1e-6
            except GeneralPositionError:
                pass
    assert conjugate >= 30


def test_commutation_report_conjugation_invariant(seeded_pairs):
    rng = random.Random(5150)
    pair = seeded_pairs[1]
    g = well_conditioned_matrix(rng)
    g_inv = inv3(g)
    conj = MatrixPair(g @ pair.a @ g_inv, g @ pair.b @ g_inv)
    for generator in Generator:
        r1 = verify_commutation(generator, pair)
        r2 = verify_commutation(generator, conj)
        diff = max(abs(r1.per_component[k] - r2.per_component[k])
                   for k in r1.per_component)
        assert diff < 1e-7


@pytest.mark.parametrize("component", ["h2", "t", "L", "M"])
def test_a_nan_residual_is_the_commutation_maximum(component, monkeypatch):
    """A NaN residual in any component but the first is the report's
    maximum, as it is in the first (``max`` would drop it)."""
    def with_nan(lhs, rhs):
        return {**spectral_residuals(lhs, rhs), component: math.nan}
    monkeypatch.setattr(gl2z_module, "spectral_residuals", with_nan)
    report = verify_commutation(Generator.SWAP, random_pair(0))
    assert math.isnan(report.per_component[component])
    assert math.isnan(report.max_residual)


def test_commutation_degenerate_pair_raises():
    degenerate = MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.identity())
    with pytest.raises(GeneralPositionError):
        verify_commutation(Generator.SWAP, degenerate)


def test_act_word_spectral_empty_is_canonical(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    out = act_word_spectral((), sd)
    assert max(spectral_residuals(out, canonical_form(sd)).values()) < 1e-9


def test_act_word_spectral_double_swap(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    out = act_word_spectral((S, S), sd)
    assert max(spectral_residuals(out, canonical_form(sd)).values()) < 1e-6


def test_act_word_spectral_matches_matrix_side(seeded_pairs):
    rng = random.Random(99)
    for trial in range(15):
        pair = seeded_pairs[trial]
        word = random_word(rng, rng.randint(1, 6))
        lhs = act_word_spectral(word, spectral_data(pair))
        rhs = canonical_form(spectral_data(act_word_on_pair(word, pair)))
        assert max(spectral_residuals(lhs, rhs).values()) < 1e-5, word_to_str(word)


def test_act_word_spectral_matches_relisting_each_step(seeded_pairs):
    rng = random.Random(2024)
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        for _ in range(3):
            word = random_word(rng, rng.randint(1, 6))
            got = act_word_spectral(word, sd)
            want = act_word_spectral_relisting_each_step(word, sd)
            assert max(spectral_residuals(got, want).values()) < 1e-8, \
                word_to_str(word)


def recording_relistings(monkeypatch, hook=None) -> list:
    """The relistings ``gl2z`` makes from now on, in order: the public
    ``canonical_form``, or the private ``_relisted`` for data that an
    action has just validated.  ``hook`` runs before each one."""
    calls = []

    def patch(name):
        original = getattr(gl2z_module, name)

        def recording(*args):
            calls.append((name, *args))
            if hook is not None:
                hook(calls)
            return original(*args)

        monkeypatch.setattr(gl2z_module, name, recording)

    patch("canonical_form")
    patch("_relisted")
    return calls


def test_act_word_spectral_relists_input_and_result_only(seeded_pairs,
                                                         monkeypatch):
    calls = recording_relistings(monkeypatch)
    images = []
    act = gl2z_module.act_spectral

    def recording_act(g, sd):
        images.append(act(g, sd))
        return images[-1]

    monkeypatch.setattr(gl2z_module, "act_spectral", recording_act)
    sd = spectral_data(seeded_pairs[0])
    out = act_word_spectral((S, I, T, T, S, I), sd)
    assert len(calls) == 2 and len(images) == 6
    # the input is validated as data from outside; the result is the very
    # object that the last letter's action has just validated
    assert calls[0] == ("canonical_form", sd)
    assert calls[1][0] == "_relisted" and calls[1][1] is images[-1]
    assert out == canonical_form(calls[1][1])


def test_final_relisting_error_reports_whole_word(seeded_pairs, monkeypatch):
    def failing_second_call(calls):
        if len(calls) == 2:
            raise SingularMatrix("forced")

    calls = recording_relistings(monkeypatch, failing_second_call)
    with pytest.raises(IntermediateDegeneracy) as info:
        act_word_spectral((S, T), spectral_data(seeded_pairs[0]))
    assert len(calls) == 2
    assert info.value.detail == {"prefix": "S,T", "cause": "singular_matrix"}
    assert info.value.__cause__.code == "singular_matrix"


def test_tilde_r_minus_is_its_minor_sum_exactly():
    """At random Gaussian-rational (h, U), the closed form equals
    (h1 h2 M12 + h1 h3 M13 + h2 h3 M23) / d1 exactly, M_ij the principal
    minors of U; see ``test_closed_forms_for_the_lower_left_are_exact``."""
    rng = random.Random("tilde r_minus")
    for _ in range(4):
        h, u = random_exact_normalized_pair(rng)
        coeffs = expanded_coefficients(h, u)
        del coeffs["lam3"]
        divisor = DivisorPoint(*divisor_by_minor_equations(h, u))
        h1, h2, h3 = h

        def minor(i, j):
            return u[i, i] * u[j, j] - u[i, j] * u[j, i]

        want = (h1 * h2 * minor(0, 1) + h1 * h3 * minor(0, 2)
                + h2 * h3 * minor(1, 2)) / (h1 * h2 * h3)
        assert tilde_r_minus(CurveCoefficients(**coeffs), h, divisor) == want


def exact_spectral_data(h, u) -> SpectralData:
    """Spectral data of the normalized pair (h, U), by the Leibniz
    expansion and the two minor equations."""
    coeffs = expanded_coefficients(h, u)
    assert coeffs.pop("lam3") == 1
    return SpectralData(h, CurveCoefficients(**coeffs),
                        DivisorPoint(*divisor_by_minor_equations(h, u)))


def differing_components(got: SpectralData, want: SpectralData) -> list[str]:
    names = ("h1", "h2", "h3", *CurveCoefficients._fields, "L", "M")
    return [name for name, x, y in zip(
        names, (*got.h, *got.coeffs, *got.divisor),
        (*want.h, *want.coeffs, *want.divisor)) if not x == y]


def test_invert_and_shear_formulas_are_exact():
    """At random Gaussian-rational (h, U), I's formulas give the exact data
    of (1/h, U), and T's the exact data of (h, U') with U' = D diag(h) U
    D^-1 and D = diag(1, h1, h1): the eigenbasis of A is that of A^-1, and
    D gauge-fixes the product diag(h) U.  Every component must be equal
    exactly; see ``test_closed_forms_for_the_lower_left_are_exact``."""
    rng = random.Random("I and T")
    for _ in range(6):
        h, u = random_exact_normalized_pair(rng)
        sd = exact_spectral_data(h, u)
        inverted = exact_spectral_data(tuple(1 / z for z in h), u)
        assert differing_components(invert_spectral(sd), inverted) == []
        d = (1, h[0], h[0])
        u_sheared = {(i, j): d[i] * h[i] * u[i, j] / d[j]
                     for i in range(3) for j in range(3)}
        sheared = exact_spectral_data(h, u_sheared)
        assert differing_components(shear_spectral(sd), sheared) == []


def test_word_followed_by_its_inverse_returns_its_input():
    """The action on conjugacy classes of pairs factors through GL(2,Z), so
    a word whose matrix is the identity returns its input: a random word w
    of 1-4 letters, then the decomposition of w's inverse matrix.  This
    needs no forward map of the acted pair.  The loops reach 14 letters,
    and the largest residual is 2.5e-11 (seed 71)."""
    tolerance = DEFAULT_TOLERANCE * TOLERANCE_MULTIPLIERS["word_consistency"]
    for seed in range(100):
        rng = random.Random(seed)
        word = random_word(rng, rng.randint(1, 4))
        m = matrix_of_word(word)
        det = m.a * m.d - m.b * m.c
        loop = word + decompose_gl2z(
            GL2ZMatrix(det * m.d, -det * m.b, -det * m.c, det * m.a))
        assert matrix_of_word(loop) == GL2ZMatrix.identity()
        sd = spectral_data(random_pair(seed))
        residuals = spectral_residuals(act_word_spectral(loop, sd), sd)
        assert max(residuals.values()) <= tolerance, (seed, loop)


def test_intermediate_degeneracy_reports_prefix():
    # second matrix with a repeated spectrum: the swap is degenerate
    a = Mat3.diagonal(1, 2, 3)
    b = Mat3.from_rows([[1, 1, 1], [0, 1, 1], [0, 0, 2]])
    sd = spectral_data(MatrixPair(a, b))
    with pytest.raises(IntermediateDegeneracy) as info:
        act_word_spectral((S,), sd)
    assert info.value.detail["prefix"] == "S"


def test_invert_spectral_rejects_zero_eigenvalue():
    npair = NormalizedPair((0, 1, 2), FIXTURE_B)
    sd = SpectralData(npair.h, curve_coefficients(npair), divisor_point(npair))
    with pytest.raises(SingularMatrix) as info:
        invert_spectral(sd)
    assert info.value.detail["which"] == "A"


def test_invert_spectral_is_scale_free():
    """I of the data of (2^k A, B) and of (2^k A, 2^k B), relisted, is the
    data of (A^-1, B) rescaled to (2^-k A^-1, B) or (2^-k A^-1, 2^k B).
    Each part is compared in its own weight: the result is rescaled back
    to (A^-1, B), exactly, and compared there.  The test of A is scale-free,
    so every A-scaled pair inverts, A x 2^-172 too; a both-scaled one may
    end in a coded error, as 54 of these 170 end in the relisting's
    ``degenerate_divisor``."""
    for seed in range(10):
        a, b = random_pair(seed)
        want = spectral_data(MatrixPair(inv3(a), b))
        for k in range(-172, 5, 11):
            for f in (0, k):
                sd = spectral_data(MatrixPair(a.scaled(2.0 ** k),
                                              b.scaled(2.0 ** f)))
                try:
                    got = canonical_form(invert_spectral(sd))
                except SpectralPairError as exc:
                    assert f != 0, (seed, k, exc.code)
                    continue
                residuals = spectral_residuals(rescaled(got, k, -f), want)
                assert all(r <= 1e-9 for r in residuals.values()), (seed, k, f)


@pytest.mark.parametrize("name", ["t", "d1", "q_minus", "r_plus"])
def test_swap_with_an_overflowing_coefficient_modulus_is_coded(name):
    # the coefficient's parts are finite, its modulus 2.1e308 is not: the
    # chord's scale reads inf, and a scale that overflows certifies nothing
    sd = spectral_data(random_pair(0))
    huge = sd._replace(coeffs=sd.coeffs._replace(**{name: 1.5e308 * (1 + 1j)}))
    assert huge.coeffs.max_magnitude() == math.inf
    with pytest.raises(GeneralPositionError) as info:
        swap_spectral(huge)
    assert info.value.code in ("inputs_not_incident",
                               "degenerate_leading_coefficient")


@pytest.mark.parametrize("component, call", [
    ("h1", canonical_form),
    ("h1", reconstruct),
    ("h1", invert_spectral),
    ("h1", swap_spectral),
    ("h1", lambda sd: act_word_spectral((Generator.INVERT,), sd)),
    ("h1", lambda sd: diagonal_entries(sd.coeffs, sd.h)),
    ("L", swap_spectral),
], ids=["canonical_form", "reconstruct", "invert", "swap", "word",
        "diagonal_entries", "swap-L"])
def test_an_overflowing_modulus_in_h_or_the_divisor_is_coded(component, call):
    """A component whose parts are finite but whose modulus overflows
    reads inf wherever a modulus is taken, so each call ends in a coded
    error rather than ``OverflowError``.  A document cannot carry such a
    value, because loading validates it."""
    sd = spectral_data(random_pair(0))
    huge = complex(1.5e308, 1.5e308)
    if component == "h1":
        sd = sd._replace(h=(huge, *sd.h[1:]))
    else:
        sd = sd._replace(divisor=sd.divisor._replace(L=huge))
    with pytest.raises(SpectralPairError):
        call(sd)


@pytest.mark.parametrize("position", [0, 1, 2])
def test_a_nan_eigenvalue_in_any_place_is_coded(position):
    """The separation test rejects a NaN wherever h lists it, although
    ``min`` and ``max`` skip one that is not first: each call ends in
    ``repeated_eigenvalues``, not in ``ValueError`` or in NaN entries."""
    calls = [canonical_form, lambda sd: diagonal_entries(sd.coeffs, sd.h),
             *(partial(act_word_spectral, (g,)) for g in Generator)]
    for seed in range(3):
        sd = spectral_data(random_pair(seed))
        h = list(sd.h)
        h[position] = complex(math.nan, 0.0)
        for call in calls:
            with pytest.raises(RepeatedEigenvalues):
                call(sd._replace(h=tuple(h)))


def test_every_extreme_entry_pair_ends_ok_or_coded():
    """Pairs with entries up to 1e300, whose characteristic polynomials,
    eigenbases and products overflow: the report, the forward map, each
    commuting diagram and each letter's action on the matrices raise
    nothing but a package error, and each returns on some pair."""
    calls = [general_position_report, spectral_data, normalize_pair,
             *(partial(verify_commutation, g) for g in Generator),
             *(partial(act_word_on_pair, (g,)) for g in Generator)]
    returned, crashes = set(), []
    for k, pair in enumerate([nan_eigenvalue_pair(), *extreme_entry_pairs(600)]):
        for i, call in enumerate(calls):
            try:
                call(pair)
            except SpectralPairError:
                continue
            except Exception as exc:
                crashes.append((k, i, repr(exc)))
                continue
            returned.add(i)
    assert crashes == []
    assert returned == set(range(len(calls)))


def test_shear_spectral_rejects_a_zero_d1():
    # the closed form divides by nothing, so it tests nothing of A.  The
    # symmetric-function test's scale follows max|h|^3 below 1, so its
    # output, which keeps nonzero h and d1 = 0, fails validation, even for
    # A x 1e-5; a word rejects the input at the relisting's test of A,
    # before its first letter
    pair = random_pair(4)
    sd = spectral_data(pair._replace(a=pair.a.scaled(1e-5)))
    zero = sd._replace(coeffs=sd.coeffs._replace(d1=0j))
    with pytest.raises(InvariantViolation) as info:
        shear_spectral(zero)
    assert info.value.detail["component"] == "d1"
    with pytest.raises(SingularMatrix) as info:
        act_word_spectral((Generator.SHEAR,), zero)
    assert info.value.detail["which"] == "A"
    # data that small but nonzero still shears
    shear_spectral(sd)


def test_invert_spectral_rejects_an_overflowing_cube():
    # |diag(h)|^3 overflows; the bound reads inf, so |d1| = 1.2e285 fails it
    npair = NormalizedPair((1e91, 2e91, 6e102), FIXTURE_B)
    sd = validate_spectral_data(SpectralData(
        npair.h, curve_coefficients(npair), divisor_point(npair)))
    with pytest.raises(SingularMatrix) as info:
        invert_spectral(sd)
    assert info.value.detail["which"] == "A"


# hand-built spectral data off the general-position stratum, each consistent
# with its own coefficients, and the code act_word_spectral raises for it on
# every word: canonical_form rejects the input before the first letter acts
OFF_STRATUM_SPECTRAL = {
    "repeated_h": (NormalizedPair((1, 1, 2), FIXTURE_B), "repeated_eigenvalues"),
    "singular_u": (NormalizedPair((1, 2, 3), Mat3.from_rows(
        [[2, 1, 1], [2, 1, 1], [7, 1, 4]])), "singular_matrix"),
    "zero_h1": (NormalizedPair((0, 1, 2), FIXTURE_B), "singular_matrix"),
}


#: a document with d1 = 0 whose h passes the test of A: |h1 h2 h3| = 2e-10
#: against 1e-12 |diag(h)|^3 = 1.1e-11
ZERO_D1 = NormalizedPair((1, 2, 1e-10), Mat3.from_rows(
    [[0.3 + 0.1j, 1, 1], [0.5, -0.2 + 0.4j, 0.7], [0.1 - 0.3j, 0.9, 0.6j]]))


@pytest.mark.parametrize("word", ["", "S", "T", "I", "S,T"])
def test_act_word_spectral_rejects_a_zero_d1(word):
    """Such a document loads: the symmetric-function test's scale for d1
    is 1 here, and |h1 h2 h3 - d1| = 2e-10 is below 1e-9 times it.  The
    relisting tests d1 with h, so every word, the empty one too, rejects
    it before its first letter, naming A."""
    sd = SpectralData(ZERO_D1.h, curve_coefficients(ZERO_D1),
                      divisor_point(ZERO_D1))
    zero = sd._replace(coeffs=sd.coeffs._replace(d1=0j))
    validate_spectral_data(zero)
    with pytest.raises(SingularMatrix) as info:
        act_word_spectral(parse_word(word), zero)
    assert info.value.detail["which"] == "A"


@pytest.mark.parametrize("word", ["", "S", "T", "I", "S,T"])
@pytest.mark.parametrize("name", list(OFF_STRATUM_SPECTRAL))
def test_act_word_spectral_rejects_off_stratum_data(name, word):
    npair, code = OFF_STRATUM_SPECTRAL[name]
    sd = SpectralData(npair.h, curve_coefficients(npair), divisor_point(npair))
    validate_spectral_data(sd)
    with pytest.raises(GeneralPositionError) as info:
        act_word_spectral(parse_word(word), sd)
    assert info.value.code == code


def test_swap_spectral_rejects_repeated_second_spectrum():
    v = Mat3.from_rows([[1, 0, 1], [1, 1, 0], [0, 1, 1]])
    b = v @ Mat3.diagonal(1, 1, 2) @ inv3(v)
    sd = spectral_data(MatrixPair(Mat3.diagonal(1, 2, 3), b))
    with pytest.raises(SwappedPairDegenerate) as info:
        swap_spectral(sd)
    assert info.value.code == "swapped_pair_degenerate"


def test_swap_spectral_line_at_infinity_is_scaled_by_the_largest_coordinate(
        monkeypatch, fixture_pair):
    # |mu| = 1e-10 is at most 1e-9 of the largest coordinate, 1.0, but not
    # of |nu| = 1e-3: measured against nu alone the point would pass, and
    # fail later as an off-curve divisor
    monkeypatch.setattr(gl2z_module, "chord_swap_divisor",
                        lambda *args: (1.0, 1e-10, 1e-3))
    with pytest.raises(SwappedPairDegenerate) as info:
        swap_spectral(spectral_data(fixture_pair))
    assert info.value.detail == {"nu": 1e-10}


def test_gl2z_determinant_validation():
    with pytest.raises(DeterminantNotUnit):
        GL2ZMatrix(2, 0, 0, 1)


def test_decompose_identity_and_single_shear():
    assert decompose_gl2z(GL2ZMatrix.identity()) == ()
    assert decompose_gl2z(GL2ZMatrix(1, 1, 0, 1)) == (T,)


def test_decompose_generators_and_small_cases():
    for matrix in (GL2ZMatrix(0, 1, 1, 0), GL2ZMatrix(-1, 0, 0, 1),
                   GL2ZMatrix(1, -1, 0, 1), GL2ZMatrix(1, 0, 0, -1),
                   GL2ZMatrix(0, -1, 1, 0), GL2ZMatrix(-3, 2, 7, -5)):
        word = decompose_gl2z(matrix)
        assert matrix_of_word(word) == matrix


def test_decompose_random_products():
    rng = random.Random(1234)
    checked = 0
    while checked < 60:
        word = random_word(rng, 40)
        m = matrix_of_word(word)
        if max(abs(x) for x in (m.a, m.b, m.c, m.d)) > 10 ** 6:
            continue
        recovered = decompose_gl2z(m)
        assert matrix_of_word(recovered) == m
        assert len(recovered) <= 4 * 40
        checked += 1


#: run under ``python -O``: decompose (0 1; 1 0) with a ``matrix_of_word``
#: that multiplies every word to T
_WRONG_PRODUCT = """
import sys
from spectral_pair import gl2z
if not sys.flags.optimize:
    sys.exit("not run under -O")
gl2z.matrix_of_word = lambda word: gl2z.GL2ZMatrix(1, 1, 0, 1)
try:
    gl2z.decompose_gl2z(gl2z.GL2ZMatrix(0, 1, 1, 0))
except AssertionError as exc:
    print(exc)
"""


def test_decompose_checks_its_word_under_python_O():
    # -O strips assert statements; the word's exact matrix check is no
    # assert statement, so it still raises
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    run = subprocess.run([sys.executable, "-O", "-c", _WRONG_PRODUCT], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "word S does not multiply to GL2ZMatrix(a=0, b=1, c=1, d=0)\n"


def test_act_spectral_dispatch(seeded_pairs):
    sd = spectral_data(seeded_pairs[0])
    assert act_spectral(S, sd).coeffs.d1 == sd.coeffs.d2
    assert act_spectral(T, sd).h == sd.h
    pair = seeded_pairs[0]
    inv_pair = act_on_pair(I, pair)
    assert max(abs(x - y) for x, y in
               zip((inv_pair.a @ pair.a).entries, Mat3.identity().entries)) < 1e-10
