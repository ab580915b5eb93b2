import cmath
import importlib
import importlib.util
import itertools
import math
import random
from pathlib import Path

import pytest

import spectral_pair.spectral as spectral_module
from spectral_pair import _kernels_py as kernels
from spectral_pair import randgen
from spectral_pair import (
    GaugeDegenerate,
    GeneralPositionError,
    Generator,
    InvariantViolation,
    Mat3,
    MatrixPair,
    NormalizedPair,
    DegenerateDivisor,
    SingularMatrix,
    SpectralPairError,
    act_spectral,
    canonical_form,
    curve_coefficients,
    curve_residual,
    divisor_point,
    eig3,
    general_position_report,
    inv3,
    kernel_vector,
    normalize_pair,
    random_pair,
    spectral_data,
    spectral_residuals,
    validate_spectral_data,
    verify_commutation,
    well_conditioned_matrix,
)
from spectral_pair.linalg import eigenvector

from boundary_outcomes import axis_point_separation, axis_roots
from conftest import (
    FIXTURE_A,
    FIXTURE_B,
    FIXTURE_COEFFS,
    FIXTURE_DIVISOR,
    FIXTURE_H,
    extreme_entry_pairs,
    nan_eigenvalue_pair,
    rng_complex,
)
from oracles import (
    GaussianRational,
    axis_points,
    closed_form_coefficients,
    closed_form_divisor,
    divisor_by_comprehensions,
    divisor_by_minor_equations,
    eigenvector_by_identity_shift,
    expanded_coefficients,
    forward_by_stages,
    gauge_fix_by_matmul,
    in_eigenbasis_by_matmul,
    min_projective_distance,
    random_exact_normalized_pair,
    report_by_stages,
    spectral_by_stages,
    validated_by_loop,
)

# the package binds the name ``reconstruct`` to the function
reconstruct_module = importlib.import_module("spectral_pair.reconstruct")


def conjugated(pair: MatrixPair, g: Mat3) -> MatrixPair:
    g_inv = inv3(g)
    return MatrixPair(g @ pair.a @ g_inv, g @ pair.b @ g_inv)


def test_normalize_already_normalized():
    a = Mat3.diagonal(1, 2, 3)
    b = Mat3.from_rows([[2, 1, 1], [1, 3, 1], [1, 1, 4]])
    np = normalize_pair(MatrixPair(a, b))
    assert max(abs(x - y) for x, y in zip(np.h, (1, 2, 3))) < 1e-12
    assert max(abs(x - y) for x, y in zip(np.u.entries, b.entries)) < 1e-10


def test_normalize_conjugation_invariant(seeded_pairs):
    rng = random.Random(2024)
    for pair in seeded_pairs[:25]:
        g = well_conditioned_matrix(rng)
        np1 = normalize_pair(pair)
        np2 = normalize_pair(conjugated(pair, g))
        assert max(abs(x - y) for x, y in zip(np1.h, np2.h)) < 1e-8
        assert max(abs(x - y) for x, y in
                   zip(np1.u.entries, np2.u.entries)) < 1e-8 * max(1.0, np1.u.norm())


def test_normalize_gauge_degenerate():
    with pytest.raises(GaugeDegenerate):
        normalize_pair(MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.identity()))


def test_coefficients_identity_u():
    # with U = I the nu-coefficients collapse to symmetric functions;
    # expanding prod(lam + mu*h_i + nu) gives these exact values
    np = NormalizedPair((1, 2, 3), Mat3.identity())
    c = curve_coefficients(np)
    expected = {"d1": 6, "d2": 1, "p_plus": 6, "p_minus": 11, "q_plus": 3,
                "q_minus": 3, "r_plus": 11, "r_minus": 6, "t": 12}
    for name, value in c.items():
        assert abs(value - expected[name]) < 1e-12, name


def test_coefficients_integer_fixture(fixture_pair):
    sd = spectral_data(fixture_pair)
    assert max(abs(x - y) for x, y in zip(sd.h, FIXTURE_H)) < 1e-10
    for name, value in sd.coeffs.items():
        assert abs(value - FIXTURE_COEFFS[name]) < 1e-9, name
    assert abs(sd.divisor.L - FIXTURE_DIVISOR[0]) < 1e-9
    assert abs(sd.divisor.M - FIXTURE_DIVISOR[1]) < 1e-9


def test_coefficients_match_trilinear_expansion(seeded_pairs):
    for pair in seeded_pairs:
        np = normalize_pair(pair)
        got = dict(curve_coefficients(np).items())
        expected = expanded_coefficients(np.h, np.u)
        lam3 = expected.pop("lam3")
        assert abs(lam3 - 1) < 1e-12
        for name, value in expected.items():
            scale = max(1.0, abs(value))
            assert abs(got[name] - value) <= 1e-10 * scale, name


def test_coefficients_scaling_degrees():
    rng = random.Random(99)
    h = (1 + 0.5j, -1.2, 2 - 1j)
    u = Mat3(tuple(rng_complex(rng) for _ in range(9)))
    base = dict(curve_coefficients(NormalizedPair(h, u)).items())
    c = 1.7 - 0.4j
    scaled = dict(curve_coefficients(NormalizedPair(h, u.scaled(c))).items())
    degrees = {"d1": 0, "d2": 3, "p_plus": 0, "p_minus": 0, "q_plus": 1,
               "q_minus": 2, "r_plus": 1, "r_minus": 2, "t": 1}
    for name, degree in degrees.items():
        expected = base[name] * c ** degree
        assert abs(scaled[name] - expected) <= 1e-12 * max(1.0, abs(expected)), name


def test_divisor_matches_minor_equations(seeded_pairs):
    for pair in seeded_pairs[:50]:
        np = normalize_pair(pair)
        d = divisor_point(np)
        lam, mu = divisor_by_minor_equations(np.h, np.u)
        assert abs(d.L - lam) <= 1e-8 * max(1.0, abs(lam))
        assert abs(d.M - mu) <= 1e-8 * max(1.0, abs(mu))


def lattice_pair(rng):
    """(A, B, h, U, w): A = V diag(h) V^-1 and B = V U V^-1 as flat
    Gaussian-rational entries, for a unimodular integer V, the random
    Gaussian-rational (h, U) of ``random_exact_normalized_pair`` with its
    gauge entries drawn too, and w^T, the first row of V^-1, A's left
    eigenvector at h1."""
    h, u = random_exact_normalized_pair(rng)
    u[0, 1] = GaussianRational(rng.randint(-9, 9) or 1, rng.randint(-9, 9))
    u[0, 2] = GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9) or 1)
    # unit lower times unit upper triangular: an integer V with det 1,
    # whose inverse is its adjugate
    low = (1, 0, 0, rng.randint(-3, 3), 1, 0, rng.randint(-3, 3), rng.randint(-3, 3), 1)
    up = (1, rng.randint(-3, 3), rng.randint(-3, 3), 0, 1, rng.randint(-3, 3), 0, 0, 1)
    v = tuple(map(GaussianRational, spectral_module.kernels.matmul3(low, up)))
    v_inv = spectral_module.kernels.adj3(v)
    matmul = spectral_module.kernels.matmul3
    a = matmul(matmul(v, (h[0], 0, 0, 0, h[1], 0, 0, 0, h[2])), v_inv)
    b = matmul(matmul(v, tuple(u[i, j] for i in range(3) for j in range(3))), v_inv)
    return a, b, h, u, v_inv[:3]


def test_trace_invariants_and_divisor_are_exact_on_lattice_pairs():
    """At lattice pairs with Gaussian-rational (h, U), the forward map's
    trace invariants equal the Leibniz expansion of the pencil of (diag(h),
    U), and its divisor point, from A's exact left eigenvector, the
    solution of the two minor equations in the normal form, exactly.  Two
    different rational functions agree at a random point only with
    probability degree/N, so a few points pin the transcription."""
    rng = random.Random("trace invariants")
    for _ in range(6):
        a, b, h, u, w = lattice_pair(rng)
        want = expanded_coefficients(h, u)
        assert want.pop("lam3") == 1
        assert dict(spectral_module._coefficients(a, b).items()) == want
        divisor, margin = spectral_module._divisor(a, b, w)
        assert tuple(divisor) == divisor_by_minor_equations(h, u)
        assert margin > 0


def test_coefficients_and_divisor_match_the_normal_form_closed_forms():
    """In floats, on seeds 0-299, the spectral data agree with the closed
    forms in the normal form (h, U) within 1e-11 relative (measured:
    8.8e-14 for the coefficients, 2.8e-13 for the divisor point)."""
    worst = 0.0
    for seed in range(300):
        pair = random_pair(seed)
        sd, np = spectral_data(pair), normalize_pair(pair)
        want = closed_form_coefficients(np.h, np.u)
        residuals = [spectral_module.relative_difference(x, want[name])
                     for name, x in sd.coeffs.items()]
        residuals += map(spectral_module.relative_difference, sd.divisor,
                         closed_form_divisor(np.h, np.u))
        worst = max(worst, *residuals)
    assert worst <= 1e-11


def test_divisor_margin_is_scale_free(fixture_pair):
    """The divisor margin of A x 2^j and B x 2^k, for j and k in -60..60
    by 20, is the unscaled one within 1e-12 relative, and no such pair
    raises degenerate_divisor.  The margin is taken at A's left eigenvector
    for the exactly scaled h, since the leading-coefficient test of
    ``solve_cubic`` rejects a scaled A's cubic (ROADMAP item 3); where the
    report reaches the divisor stage, its margin is compared too."""
    steps = range(-60, 61, 20)
    for pair in [fixture_pair, *map(random_pair, range(10))]:
        hs = spectral_data(pair).h
        base = spectral_module.forward(pair).report.checks[3].margin
        for j in steps:
            for k in steps:
                a, b = pair.a.scaled(2.0 ** j), pair.b.scaled(2.0 ** k)
                h = tuple(2.0 ** j * z for z in hs)
                w = eigenvector(a, h[0], left=True)
                _, margin = spectral_module._divisor(a.entries, b.entries, w, h)
                assert math.isclose(margin, base, rel_tol=1e-12), (j, k)
                check = general_position_report(MatrixPair(a, b)).checks[3]
                assert check.margin is None or math.isclose(
                    check.margin, base, rel_tol=1e-12), (j, k)
                try:
                    spectral_data(MatrixPair(a, b))
                except GeneralPositionError as exc:
                    assert exc.code != "degenerate_divisor", (j, k)


#: near-gap pairs, A = V diag(h) V^-1 with a relative eigenvalue gap of
#: 1.5e-6 and 3.8e-6 (``boundary-mix`` seeds 201 and 204, ops 15 and 139):
#: in the first the close pair is listed first, in the second last
CLOSE_PAIR_FIRST = MatrixPair(Mat3((
    4.195182585720047+2.5397316853661804j, 1.25890142793077+3.1523375977200327j,
    2.167977635435254-3.382678013038714j, -1.2299907084153134+2.1318291673965315j,
    -1.2326496158184392+1.1225572927507894j, 2.000552605093093+1.218378822442523j,
    4.9309126813216135-1.2009356499167112j, 3.7493414740572835+1.6104759979418315j,
    -0.44348857791083507-4.371903890980161j)), Mat3((
    -0.08504150348395867+0.8950516980734133j, 0.5106531210218792+0.5331639846893323j,
    0.39460820808277686-0.5566579948454897j, -0.24267931558944822+0.12452294793310048j,
    0.4663930288969971+0.2190897323043135j, 0.6756752859838391+0.04768423952623713j,
    0.28586492935129626+0.08188724789083968j, -0.9045185416403383-0.2874174844427697j,
    -0.38358043602608727+0.1332828065660523j)))
CLOSE_PAIR_LAST = MatrixPair(Mat3((
    -4.0221486688149515-7.278064664512189j, -0.05500661064704282-3.5816078730021648j,
    -4.390395618884392+3.480356915750144j, 7.633191110054538+1.882116834627496j,
    2.652052061622676+1.4670076886081098j, 1.0569257121135922-6.189485513967263j,
    -5.868938433325162-0.9010247248128875j, -2.2499842114820097-2.0324562233837127j,
    -0.4524835182760778+3.2479376920525773j)), Mat3((
    -0.7787052193108666+0.3067848482423685j, 0.46823876624759464+0.22362148154999084j,
    0.646372270267501-0.1663424931418871j, -0.674284994188167+0.6477535986112881j,
    0.2667555989619901+0.43257935305590145j, 0.08336196669809603+0.46337162801370946j,
    0.0689669183559185+0.005640981945107981j, -0.5902923245687832-0.0917370296970268j,
    0.5160162587519588-0.44870175029096226j)))
#: the second pair's divisor point by a 60-digit forward map
CLOSE_PAIR_LAST_DIVISOR = (93445.86198596383-648098.7578731094j,
                           -433796.65853451757-85113.54157282144j)


def test_divisor_stage_rejects_h1_in_a_close_pair():
    """When h1 belongs to a close pair, A's computed left eigenvector at h1,
    and the divisor point with it, lose 1/g^2 for h1's relative gap g (on
    the first pair, 3.1e-4 against a 60-digit forward map): the margin,
    multiplied by g^2, fails the divisor stage, which the report records.
    With the close pair listed last, w is well conditioned and the data map
    forward within 1e-8 of the reference (measured: 1.1e-9)."""
    with pytest.raises(DegenerateDivisor) as info:
        spectral_data(CLOSE_PAIR_FIRST)
    check = general_position_report(CLOSE_PAIR_FIRST).checks[3]
    assert check.name == "divisor_denominator"
    assert (check.margin, check.note) == (info.value.detail["ratio"],
                                          "degenerate_divisor")
    sd = spectral_data(CLOSE_PAIR_LAST)
    assert max(map(spectral_module.relative_difference, sd.divisor,
                   CLOSE_PAIR_LAST_DIVISOR)) <= 1e-8


def test_divisor_kernel_first_coordinate(seeded_pairs):
    for pair in seeded_pairs[:50]:
        np = normalize_pair(pair)
        sd = spectral_data(pair)
        points = [(np.h[1], -1.0, 0.0), (np.h[2], -1.0, 0.0),
                  (sd.divisor.L, sd.divisor.M, 1.0)]
        for lam, mu, nu in points:
            pencil = (Mat3.identity().scaled(lam)
                      + Mat3.diagonal(*np.h).scaled(mu)
                      + np.u.scaled(nu))
            v = kernel_vector(pencil.entries)
            assert abs(v[0]) < 1e-7


def test_divisor_vanishing_differences():
    u = Mat3.from_rows([[5, 1, 1], [0.3, 2, 2], [-1.5, -1.5, -1.5 + 0j]])
    # u22 == u23 and u32 == u33 force L = M = 0
    d = divisor_point(NormalizedPair((1, 2, 3), u))
    assert abs(d.L) < 1e-12 and abs(d.M) < 1e-12


def test_divisor_degenerate_denominator():
    u = Mat3.from_rows([[1, 1, 1], [2, 3, 4], [5, 6, 7]])
    with pytest.raises(DegenerateDivisor):
        divisor_point(NormalizedPair((1.0, 2.0, 2.0 + 1e-12j), u))


def test_spectral_data_conjugation_invariant(seeded_pairs):
    rng = random.Random(31337)
    for pair in seeded_pairs[:25]:
        g = well_conditioned_matrix(rng)
        sd1 = spectral_data(pair)
        sd2 = spectral_data(conjugated(pair, g))
        assert max(spectral_residuals(sd1, sd2).values()) < 1e-7


def test_spectral_data_divisor_on_curve(seeded_pairs):
    for pair in seeded_pairs:
        sd = spectral_data(pair)
        assert curve_residual(sd.coeffs, sd.divisor.L, sd.divisor.M, 1.0) <= 1e-8


def test_polynomial_in_a_rejected():
    a = Mat3.diagonal(1, 2, 3)
    b = a @ a + a  # commuting pair: diagonal in the eigenbasis
    # both gauge entries vanish, which the divisor margin catches
    with pytest.raises(DegenerateDivisor):
        spectral_data(MatrixPair(a, b))
    with pytest.raises(GaugeDegenerate):
        normalize_pair(MatrixPair(a, b))


def test_report_generic_pair(fixture_pair):
    report = general_position_report(fixture_pair)
    assert report.passed, report.failing()


def test_report_gauge_failure():
    report = general_position_report(
        MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.identity()))
    assert not report.passed
    assert "gauge_entries" in report.failing()


def test_report_gauge_entries_alone_when_b_nearly_shares_a_left_eigenvector():
    """B = V U0 V^-1 whose U0 has its (1,2) and (1,3) entries scaled by eps,
    so that B nearly shares A's left eigenvector at h1: the gauge check is
    the report's only warning.  The divisor margin goes like
    |u12 u13| / (|u12|^2 + |u13|^2), scale-free in B, so it sees one gauge
    entry vanish against the other but not both against |U0|, and stays
    above 1e-3 (measured: 0.0034 at least, seeds 0-39)."""
    h = (-0.7 + 0.5j, 0.3 - 1.1j, 1 + 0.2j)
    for eps, seed in itertools.product((1e-7, 1e-8, 1e-10), range(40)):
        rng = random.Random(seed)
        v, v_inv = randgen._well_conditioned_with_inverse(rng)
        u0 = list(randgen._random_matrix(rng))
        u0[1] *= eps
        u0[2] *= eps
        a, b = (Mat3(kernels.matmul3(kernels.matmul3(v, m), v_inv))
                for m in ((h[0], 0j, 0j, 0j, h[1], 0j, 0j, 0j, h[2]), tuple(u0)))
        report = general_position_report(MatrixPair(a, b))
        assert report.failing() == ["gauge_entries"], (eps, seed)
        divisor = next(c for c in report.checks if c.name == "divisor_denominator")
        assert divisor.margin > 1e-3, (eps, seed)


def test_report_repeated_eigenvalues():
    b = Mat3.from_rows([[2, 1, 1], [1, 3, 1], [1, 1, 4]])
    report = general_position_report(MatrixPair(Mat3.diagonal(1, 1, 2), b))
    assert not report.passed
    assert "eigenvalue_separation" in report.failing()


CHECK_NAMES = ["determinant_a", "determinant_b", "eigenvalue_separation",
               "divisor_denominator", "divisor_on_curve", "gauge_entries"]


@pytest.mark.parametrize("b_rows, failing", [
    # u12 = 0 in the eigenbasis of diag(1, 2, 3): the divisor stage raises
    # and the stages after it cannot run
    ([[2, 0, 1], [5, 3, -2], [7, 1, 4]],
     ["divisor_denominator", "divisor_on_curve", "gauge_entries"]),
    # singular B: its determinant check fails, the later stages still run
    ([[1, 1, 1], [1, 1, 1], [2, 3, 4]], ["determinant_b"]),
])
def test_report_lists_each_check_once(b_rows, failing):
    report = general_position_report(
        MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.from_rows(b_rows)))
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert report.failing() == failing


def near_gap_pair(rng: random.Random, gap: float) -> MatrixPair:
    """A = V diag(h1, h2, h3) V^-1 with h2 = h1 + gap * max|h| * e^(i theta),
    h1 and h3 at least 0.3 apart in the annulus 0.5 <= |z| <= 1.5, V well
    conditioned, and B with entries in the unit disk."""
    h1, h3 = (rng_complex(rng, 1.5) for _ in range(2))
    while abs(h1) < 0.5:
        h1 = rng_complex(rng, 1.5)
    while abs(h3) < 0.5 or abs(h3 - h1) < 0.3:
        h3 = rng_complex(rng, 1.5)
    h2 = h1 + cmath.rect(gap * max(abs(h1), abs(h3)), rng.uniform(0, 2 * math.pi))
    v = well_conditioned_matrix(rng)
    a = v @ Mat3.diagonal(h1, h2, h3) @ inv3(v)
    return MatrixPair(a, Mat3(tuple(rng_complex(rng) for _ in range(9))))


def test_report_fails_the_eigenvalue_gap_of_a_near_gap_pair():
    """At a relative gap of 5e-4, below the report's 1e-3, the report fails
    ``eigenvalue_separation``, the one gap check of its six.  Near the gap
    ``reconstruct``'s U loses accuracy like 1/gap^2: on such pairs the
    round trip can miss 1e-6 while every hard stage passes."""
    rng = random.Random("near-gap report")
    for _ in range(20):
        report = general_position_report(near_gap_pair(rng, 5e-4))
        assert [c.name for c in report.checks] == CHECK_NAMES
        assert len(report.checks) == 6
        [gap] = [c for c in report.checks if c.name == "eigenvalue_separation"]
        assert not gap.passed and gap.threshold == 1e-3
        assert math.isclose(gap.margin, 5e-4, rel_tol=1e-3)


# pairs off the general-position stratum, each stopping the report at a
# different stage; "divisor" passes the eigenvalues but not the divisor
# margin, its u12 being 1e-10.  "near_gap_large_b" has a relative gap of
# 2.5e-6 and a large B; the divisor ratio floored by max(1, |U|)^2 once
# rejected it, and the scale-free margin passes it.
DEGENERATE_PAIRS = {
    "gauge": MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.identity()),
    "repeated": MatrixPair(Mat3.diagonal(1, 1, 2), Mat3.from_rows(
        [[2, 1, 1], [1, 3, 1], [1, 1, 4]])),
    "u12_zero": MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.from_rows(
        [[2, 0, 1], [5, 3, -2], [7, 1, 4]])),
    "singular_b": MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.from_rows(
        [[1, 1, 1], [1, 1, 1], [2, 3, 4]])),
    "divisor": MatrixPair(Mat3.diagonal(1, 2, 3), Mat3.from_rows(
        [[2, 1e-10, 1], [5, 3, -2], [7, 1, 4]])),
    "near_gap_large_b": MatrixPair(Mat3.diagonal(1, 2, 2 + 5e-6),
                                   FIXTURE_B.scaled(100)),
}


def test_report_matches_stage_by_stage_oracle(seeded_pairs, fixture_pair):
    pairs = [*seeded_pairs, fixture_pair, *DEGENERATE_PAIRS.values()]
    for pair in pairs:
        got = general_position_report(pair).checks
        expected = report_by_stages(pair).checks
        assert ([(c.name, c.passed, c.threshold, c.note) for c in got]
                == [(c.name, c.passed, c.threshold, c.note) for c in expected])
        for g, e in zip(got, expected):
            if e.margin is None:
                assert g.margin is None, g.name
            else:
                assert math.isclose(g.margin, e.margin, rel_tol=1e-9,
                                    abs_tol=0.0), g.name
    checks = report_by_stages(DEGENERATE_PAIRS["divisor"]).checks
    assert [c.name for c in checks] == CHECK_NAMES
    assert [c.note for c in checks[3:5]] == ["degenerate_divisor", "unavailable"]


def outcome_key(fn, *args) -> str:
    """repr of ``fn(*args)``, or of the class, code and detail of the error
    it raises."""
    try:
        return repr(fn(*args))
    except (SpectralPairError, ArithmeticError, ValueError) as exc:
        return repr(error_key(exc))


def error_key(exc):
    return exc if exc is None else (type(exc).__name__, getattr(exc, "code", None),
                                    repr(getattr(exc, "detail", exc.args)))


def boundary_mix_inputs(seed: int) -> list[MatrixPair]:
    """The 240 pairs of the benchmark's ``boundary-mix`` setup for ``seed``:
    60 each of real, rescaled, near-gap and plain complex pairs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    mix = workloads.BoundaryMix()
    mix.setup(seed)
    return [pair for pair, _ in mix.inputs]


@pytest.fixture(scope="module")
def pinned_pairs(seeded_pairs) -> list[MatrixPair]:
    """random_pair seeds 0-299, boundary-mix seed 201, the degenerate pairs
    and pairs with extreme entries, whose stages fail in every way."""
    return [*seeded_pairs, *map(random_pair, range(100, 300)),
            *boundary_mix_inputs(201), *DEGENERATE_PAIRS.values(),
            nan_eigenvalue_pair(), *extreme_entry_pairs(60)]


def test_forward_map_keeps_the_bits_of_its_stages(pinned_pairs):
    """The one pass of ``spectral_data`` and ``forward`` gives, to the bit,
    what its stages give one call at a time: the spectral data, w, the
    normal form, every margin and note, and each error's class, code and
    detail.  The divisor stage, unrolled in the package, is compared with
    its comprehension form at the normal form's e1 too."""
    for pair in pinned_pairs:
        assert (outcome_key(spectral_module._spectral, pair)
                == outcome_key(spectral_by_stages, pair)), pair
        try:
            got = spectral_module.forward(pair)
            got = repr(got._replace(error=None)), error_key(got.error)
        except (ArithmeticError, ValueError) as exc:
            got = error_key(exc)
        try:
            drawn = forward_by_stages(pair)
            want = repr(drawn._replace(error=None)), error_key(drawn.error)
        except (ArithmeticError, ValueError) as exc:
            drawn, want = None, error_key(exc)
        assert got == want, pair
        if drawn is not None and drawn.np is not None:
            # the exact e1 of the normal form, as the relisting uses it
            args = Mat3.diagonal(*drawn.np.h).entries, drawn.np.u.entries
            assert (outcome_key(spectral_module._divisor, *args)
                    == outcome_key(divisor_by_comprehensions, *args))


def test_validation_keeps_the_bits_of_the_loop(pinned_pairs):
    """The straight-line validation raises, and measures, what the loop
    over the three symmetric functions does, on the pinned pairs' spectral
    data and on copies with p_plus, p_minus or d1 moved, h overflowing, or
    the divisor point moved off the curve."""
    z = 1.5e308 * (1 + 1j)
    compared = 0
    for pair in pinned_pairs:
        drawn = spectral_module.forward(pair)
        if drawn.sd is None:
            continue
        sd, c = drawn.sd, drawn.sd.coeffs
        moved = [sd, sd._replace(h=(z, *sd.h[1:])),
                 sd._replace(divisor=sd.divisor._replace(L=sd.divisor.L + 1e-6))]
        for name in ("p_plus", "p_minus", "d1"):
            x = getattr(c, name)
            for step in (1e-10, 1e-9, 3e-9, 1e-3, 1e300, math.inf, NAN):
                moved.append(sd._replace(coeffs=c._replace(
                    **{name: x + step * max(1.0, abs(x))})))
        for data in moved:
            assert (outcome_key(spectral_module._validated, data)
                    == outcome_key(validated_by_loop, data)), data
            compared += 1
    assert compared > 10_000


def test_axis_point_separation_matches_nine_point_oracle(seeded_pairs,
                                                        fixture_pair):
    """``boundary_outcomes``' closed form, the margin of the report's
    retired axis-point check, gives the bits of the generic cross product
    over the nine axis points, on the roots of each pair's axis cubics."""
    rng = random.Random(17)
    real = [MatrixPair(Mat3(tuple(rng.uniform(-1, 1) for _ in range(9))),
                       Mat3(tuple(rng.uniform(-1, 1) for _ in range(9))))
            for _ in range(200)]
    scaled = [MatrixPair(FIXTURE_A.scaled(sa), FIXTURE_B.scaled(sb))
              for k in range(-300, 301, 20)
              for sa, sb in ((2.0 ** k, 1), (1, 2.0 ** k), (2.0 ** k, 2.0 ** k))]
    pairs = [*seeded_pairs, *map(random_pair, range(100, 300)), fixture_pair,
             *scaled, *real]
    compared = 0
    for pair in pairs:
        sd = spectral_module.forward(pair).sd
        roots = sd and axis_roots(sd)
        if roots is None:
            continue
        expected = min_projective_distance(axis_points(*roots))
        assert repr(axis_point_separation(*roots)) == repr(expected), roots
        compared += 1
    assert compared >= 500


NAN = float("nan")


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


# the leading-coefficient test bounds the roots of a pair's axis cubics by
# about 1e12; beyond about 1.3e154 a squared magnitude overflows, and both
# routes read it as inf
@pytest.mark.parametrize("h, xi, s", [
    ((NAN, 2, 3), (0.5, -1.5, 2.5 + 1j), (1j, -2, 0.25)),
    ((1, 2, 3), (0.5, complex(NAN, 0.0), 2.5 + 1j), (1j, -2, 0.25)),
    ((1, 2, 3), (0.5, -1.5, 2.5 + 1j), (1j, -2, complex(0.25, NAN))),
    ((1e150, 1.001e150, 3), (0.5, -1.5, 2.5 + 1j), (1j, -2, 0.25)),
    ((1, 2, 3), (0.5, -1.5, 2.5 + 1j), (1j, 1e150j, 1.001e150j)),
    ((1, 2, 3), (0.5, 1e200, 2.5 + 1j), (1j, -2, 0.25)),
    ((NAN, 2, 3), (0.5, 1e200, 2.5 + 1j), (1j, -2, 0.25)),
], ids=["nan-h1", "nan-xi2", "nan-s3", "1e150-h1", "1e150-s3", "1e200-xi2",
        "nan-h1-1e200-xi2"])
def test_axis_point_separation_matches_oracle_on_edge_roots(h, xi, s):
    roots = tuple(tuple(map(complex, r)) for r in (h, xi, s))
    assert (outcome(axis_point_separation, *roots)
            == outcome(min_projective_distance, axis_points(*roots)))


# roots that make each kind of pair the closest, so that each closed form,
# not only the within-line one, decides the margin: h1 ~ xi1 ~ 1e3 brings
# P1 and X1 together near (1 : 0 : 0), h1 ~ 1e-3 with s1 ~ 1e3 brings P1
# and Z1 together near (0 : 1 : 0), and xi1 ~ s1 ~ 1e-3 brings X1 and Z1
# together near (0 : 0 : 1); two roots of size 1e-160 have a gap whose
# square is subnormal
@pytest.mark.parametrize("closest", ["PP", "XX", "ZZ", "PP-tiny", "XX-tiny",
                                     "ZZ-tiny", "PX", "PZ", "XZ"])
def test_axis_point_separation_matches_oracle_for_each_closest_pair(closest):
    rng = random.Random(closest)
    for _ in range(50):
        roots = {line: [rng_complex(rng, 2.0) for _ in range(3)]
                 for line in "PXZ"}
        h, xi, s = roots["P"], roots["X"], roots["Z"]
        big, small = rng_complex(rng, 1e3), rng_complex(rng, 1e-3)
        if closest.endswith("-tiny"):
            r = roots[closest[0]]
            r[0], r[1] = 1e-160 * r[0], 1e-160 * r[1]
        elif closest[0] == closest[1]:
            r = roots[closest[0]]
            r[1] = r[0] + rng_complex(rng, 1e-4)
        elif closest == "PX":
            h[0], xi[0] = big, big * (1 + rng_complex(rng, 0.1))
        elif closest == "PZ":
            h[0], s[0] = small, big
        else:
            xi[0], s[0] = small, small * (1 + rng_complex(rng, 0.1))
        args = (tuple(h), tuple(xi), tuple(s))
        assert (repr(axis_point_separation(*args))
                == repr(min_projective_distance(axis_points(*args))))


def test_forward_raises_what_spectral_data_raises(seeded_pairs):
    tiny_b = MatrixPair(FIXTURE_A, FIXTURE_B.scaled(1e-110))
    for pair in [*seeded_pairs[:10], *DEGENERATE_PAIRS.values(), tiny_b,
                 nan_eigenvalue_pair()]:
        drawn = spectral_module.forward(pair)
        try:
            expected = spectral_data(pair)
        except GeneralPositionError as exc:
            assert (drawn.error.code, drawn.np, drawn.sd) == (exc.code, None, None)
        else:
            assert drawn.error is None
            assert (drawn.np, drawn.sd) == (normalize_pair(pair), expected)


@pytest.mark.parametrize("k", [1022, 1023])
def test_report_lists_every_check_when_the_eigenbasis_matrix_overflows(k):
    # B x 2^k fails the hard determinant test (its report margin is
    # prescaled, and passes: ROADMAP item 3), and B k overflows in the
    # divisor stage, so the divisor point misses the curve; the forward map
    # forms no eigenbasis, and the normal form, after it, is unavailable
    a, b = random_pair(3)
    pair = MatrixPair(a, b.scaled(2.0 ** k))
    drawn = spectral_module.forward(pair)
    with pytest.raises(GeneralPositionError) as raised:
        spectral_data(pair)
    exc = raised.value
    assert (type(drawn.error), drawn.error.code, str(drawn.error),
            repr(drawn.error.detail)) == (type(exc), "singular_matrix",
                                          str(exc), repr(exc.detail))
    assert (drawn.np, drawn.sd) == (None, None)
    checks = drawn.report.checks
    assert [c.name for c in checks] == CHECK_NAMES
    assert None not in [c.margin for c in checks[:3]]
    assert [(c.passed, c.note) for c in checks[3:]] == [
        (True, ""), (False, "invariant_violation"), (False, "unavailable")]


# an overflowing off-diagonal entry makes the diagonal A triangular: its
# eigenvalues pass the leading-coefficient test, and the adjugates of its
# eigen-shifts hold entries whose moduli overflow
@pytest.mark.parametrize("base", [
    random_pair(0), MatrixPair(Mat3.diagonal(1, 2, 3.5), random_pair(0).b)],
    ids=["seed-0", "diagonal-a"])
@pytest.mark.parametrize("value", [1.5e308 * (1 + 1j), complex(-1.5e308, 1.5e308)],
                         ids=["plus", "minus"])
def test_an_entry_whose_modulus_overflows_ends_in_a_coded_outcome(base, value):
    """Each of the 18 entries set in turn to a value whose parts are finite
    but whose modulus overflows: the pair fails a determinant check, and
    every stage after it returns or raises a coded error, the report's
    continuation and ``eig3``'s kernels included."""
    calls = {
        "report": general_position_report,
        "spectral_data": spectral_data,
        "normalize_pair": normalize_pair,
        "eig3": lambda pair: eig3(pair.a),
        "verify_commutation": lambda pair: verify_commutation(Generator.SWAP, pair),
    }
    uncoded = []
    for k in range(18):
        entries = [*base.a.entries, *base.b.entries]
        entries[k] = value
        pair = MatrixPair(Mat3(tuple(entries[:9])), Mat3(tuple(entries[9:])))
        for name, call in calls.items():
            try:
                call(pair)
            except SpectralPairError:
                pass
            except Exception as exc:
                uncoded.append((k, name, type(exc).__name__))
    assert uncoded == []


def test_the_report_fails_an_overflowing_stage_with_the_determinant_error():
    """After a failed determinant check, a stage that overflows without a
    code of its own fails its check with the determinant error: the divisor
    stage's |g_j| for a B with one huge entry.  For such an A, the left
    eigenvector's kernel reads the overflowing modulus as inf and rejects
    the rank with its own code.  The checks of later stages are
    unavailable."""
    z = 1.5e308 * (1 + 1j)
    huge_b = MatrixPair(Mat3.diagonal(1, 2, 3.5),
                        Mat3((1, z, z, 0.5, 2, 1, 1j, 3, 1)))
    huge_a = MatrixPair(Mat3((1, 0, z, 0, 2, 0, 0, 0, 3.5)), random_pair(0).b)
    for pair, failed, notes in [
            (huge_b, "determinant_b",
             ["", "singular_matrix", "unavailable", "unavailable"]),
            (huge_a, "determinant_a", ["rank_not_two"] + ["unavailable"] * 3)]:
        drawn = spectral_module.forward(pair)
        with pytest.raises(SingularMatrix) as raised:
            spectral_data(pair)
        # repr, so that a NaN determinant compares equal
        assert (drawn.error.code, repr(drawn.error.detail)) \
            == ("singular_matrix", repr(raised.value.detail))
        checks = drawn.report.checks
        assert [c.name for c in checks if not c.passed][0] == failed
        assert [c.note for c in checks[2:]] == notes
        assert checks[5].margin is None


def test_forward_records_an_error_of_the_change_of_basis(fixture_pair,
                                                         monkeypatch):
    """An error that the change of basis raises, as a singular eigenbasis
    would, fails the gauge check with its code and leaves no normal form.
    The spectral data needs no eigenbasis: ``spectral_data`` raises
    nothing, and ``forward`` records no error and returns the data."""
    def singular(b, vectors):
        raise SingularMatrix("forced", which=None, det=0.0, norm=1.0)

    monkeypatch.setattr(spectral_module, "_in_eigenbasis", singular)
    drawn = spectral_module.forward(fixture_pair)
    checks = drawn.report.checks
    assert [c.name for c in checks] == CHECK_NAMES
    assert [(c.passed, c.margin, c.note) for c in checks[5:]] == [
        (False, None, "singular_matrix")]
    assert all(c.passed and c.note == "" for c in checks if c is not checks[5])
    assert (drawn.error, drawn.np) == (None, None)
    assert drawn.sd == spectral_data(fixture_pair)
    assert drawn.w == (1, 0, 0)


def test_an_uncoded_error_of_eig3_counts_as_the_determinant_error(
        fixture_pair, monkeypatch):
    """After a failed determinant check, an overflow in the eigenvalue
    stage fails the separation check with the determinant error, as in the
    later stages, and the checks after it are unavailable; with no failed
    determinant check, it propagates."""
    def overflowing(a):
        raise OverflowError("forced")

    monkeypatch.setattr(spectral_module, "eigenvalues", overflowing)
    pair = DEGENERATE_PAIRS["singular_b"]
    drawn = spectral_module.forward(pair)
    checks = drawn.report.checks
    assert [c.name for c in checks] == CHECK_NAMES
    assert [c.passed for c in checks[:2]] == [True, False]
    assert [(c.passed, c.margin, c.note) for c in checks[2:]] == [
        (False, None, "singular_matrix")] + [(False, None, "unavailable")] * 3
    with pytest.raises(SingularMatrix) as info:
        spectral_data(pair)
    assert (drawn.error.code, drawn.error.detail) == (
        "singular_matrix", info.value.detail)
    with pytest.raises(OverflowError):
        spectral_module.forward(fixture_pair)


def test_forward_records_a_divisor_point_off_the_curve(fixture_pair,
                                                       monkeypatch):
    """A divisor point off the curve fails ``divisor_on_curve`` with
    ``invariant_violation``, and leaves the normal form unavailable."""
    original = spectral_module._divisor

    def off_curve(*args):
        divisor, margin = original(*args)
        return divisor._replace(L=divisor.L + 1), margin

    monkeypatch.setattr(spectral_module, "_divisor", off_curve)
    drawn = spectral_module.forward(fixture_pair)
    checks = drawn.report.checks
    assert [c.name for c in checks] == CHECK_NAMES
    assert all(c.passed and c.note == "" for c in checks[:4])
    assert [(c.passed, c.margin, c.note) for c in checks[4:]] == [
        (False, None, "invariant_violation"), (False, None, "unavailable")]
    with pytest.raises(InvariantViolation) as info:
        spectral_data(fixture_pair)
    assert drawn.error.detail == info.value.detail
    assert drawn.error.detail["component"] == "divisor"
    assert (drawn.np, drawn.sd, drawn.w) == (None, None, None)


def test_only_full_validation_checks_the_symmetric_functions(seeded_pairs):
    """Every validation is the full one: ``validate_spectral_data`` and the
    forward map's ``_validated`` check h against (p_plus, p_minus, d1)
    before the divisor point.  Moving p_plus and q_plus against each other
    keeps the curve's value at the divisor point."""
    for pair in seeded_pairs[:5]:
        sd = spectral_data(pair)
        c, M = sd.coeffs, sd.divisor.M
        step = 1e-6 * max(1.0, abs(c.p_plus))
        moved = sd._replace(coeffs=c._replace(p_plus=c.p_plus + step,
                                              q_plus=c.q_plus - step * M))
        for validate in validate_spectral_data, spectral_module._validated:
            with pytest.raises(InvariantViolation) as info:
                validate(moved)
            assert info.value.detail["component"] == "p_plus"


def test_overflowing_symmetric_functions_fail_the_incidence_test():
    """A hand-made normalized pair whose symmetric functions overflow, which
    ``eig3`` never returns, still raises ``invariant_violation``: the scale
    of d1's test overflows, which certifies nothing, and so do its
    coefficients, so that the curve residual at the divisor point reads
    NaN too."""
    np = normalize_pair(random_pair(0))
    huge = NormalizedPair(tuple(z * 1e103 for z in np.h), np.u)
    with pytest.raises(InvariantViolation) as info:
        spectral_module.spectral_data_of_normalized(huge)
    assert info.value.detail == {"component": "d1", "residual": math.inf}
    divisor = spectral_module.divisor_point(huge)
    assert math.isnan(spectral_module.curve_residual(
        spectral_module.curve_coefficients(huge), *divisor, 1.0))


#: the report check of the stage that raises each error code; the forward
#: map forms no eigenbasis, so no stage raises gauge_degenerate
STAGE_CHECKS = {
    "degenerate_leading_coefficient": "eigenvalue_separation",
    "rank_not_two": "eigenvalue_separation",
    "repeated_eigenvalues": "eigenvalue_separation",
    "degenerate_divisor": "divisor_denominator",
    "invariant_violation": "divisor_on_curve",
}


def assert_stage_check_fails(pair):
    """When the forward map raises, the report check of the stage that
    raised fails too.  A singular matrix is A's or B's determinant check.
    The divisor margin is the ratio its error carries, the same float.
    The checks are listed as their stages ran: those "unavailable" are the
    last, and the check just before them carries an error code."""
    drawn = spectral_module.forward(pair)
    notes = [c.note for c in drawn.report.checks]
    first = notes.index("unavailable") if "unavailable" in notes else len(notes)
    assert set(notes[first:]) <= {"unavailable"}, notes
    assert first == len(notes) or notes[first - 1] not in ("", "unavailable"), notes
    if drawn.error is None:
        return
    if drawn.error.code == "singular_matrix":
        name = {"A": "determinant_a",
                "B": "determinant_b"}[drawn.error.detail["which"]]
    else:
        name = STAGE_CHECKS[drawn.error.code]
    check = next(c for c in drawn.report.checks if c.name == name)
    assert not check.passed, (drawn.error.code, check)
    if drawn.error.code == "degenerate_divisor":
        assert repr(check.margin) == repr(drawn.error.detail["ratio"]), check


def test_no_stage_raises_while_its_report_check_passes(seeded_pairs):
    # the fixture pair with A, B or both scaled by 2^k: the divisor margin
    # is scale-free, so none gives degenerate_divisor; large A fails the
    # leading-coefficient test, and B from about 2^180 the on-curve test, whose
    # scale overflows
    scaled = [MatrixPair(FIXTURE_A.scaled(sa), FIXTURE_B.scaled(sb))
              for k in range(-320, 321, 20)
              for sa, sb in ((2.0 ** k, 1), (1, 2.0 ** k), (2.0 ** k, 2.0 ** k))]
    for pair in [*DEGENERATE_PAIRS.values(), *seeded_pairs, *scaled,
                 nan_eigenvalue_pair()]:
        assert_stage_check_fails(pair)


@pytest.mark.xfail(strict=True, reason=(
    "the hard determinant test compares |det M| with |M|^3, which overflows "
    "or underflows at these scales while the report's margin is prescaled; "
    "see the FOUND line on it in CHANGES.md and ROADMAP item 3"))
@pytest.mark.parametrize("pair", [
    MatrixPair(FIXTURE_A.scaled(1e110), FIXTURE_B),
    MatrixPair(FIXTURE_A, FIXTURE_B.scaled(1e-110)),
], ids=["a_huge", "b_tiny"])
def test_determinant_stage_fails_its_report_check(pair):
    assert_stage_check_fails(pair)


@pytest.mark.xfail(strict=True, reason=(
    "solve_cubic compares a monic cubic's exact leading 1 with its largest "
    "coefficient, here the product 7e12 of the eigenvalues; ROADMAP item 3 "
    "lists it among the scale-dependent checks that wait for prescaling"))
def test_eig3_of_a_scaled_diagonal_returns_its_eigenvalues():
    values, _ = eig3(Mat3.diagonal(1e4, 2e4, 3.5e4))
    assert max(abs(got - want) for got, want
               in zip(values, (1e4, 2e4, 3.5e4))) <= 1e-9 * 3.5e4


@pytest.mark.parametrize("pair", [
    MatrixPair(FIXTURE_A.scaled(1e-110), FIXTURE_B),
    MatrixPair(FIXTURE_A, FIXTURE_B.scaled(1e-110)),
    MatrixPair(FIXTURE_A, Mat3((0,) * 9)),
], ids=["a_tiny", "b_tiny", "b_zero"])
def test_report_survives_underflow(pair):
    # |M|^3 underflows to 0 at these scales (and |U0| is 0 for B = 0); each
    # margin is still a number
    report = general_position_report(pair)
    assert [c.name for c in report.checks] == CHECK_NAMES
    assert all(c.margin is None or c.margin >= 0.0 for c in report.checks)


def test_determinant_margin_is_scale_free():
    report = general_position_report(MatrixPair(FIXTURE_A, FIXTURE_B))
    # at 2^-700 every squared entry underflows, so |M| itself reads 0
    for scale_a, scale_b in ((2.0 ** -360, 2.0 ** 300),
                             (2.0 ** -700, 2.0 ** -700)):
        scaled = general_position_report(MatrixPair(FIXTURE_A.scaled(scale_a),
                                                    FIXTURE_B.scaled(scale_b)))
        assert scaled.checks[:2] == report.checks[:2], (scale_a, scale_b)


def test_determinant_margin_keeps_its_bits_past_an_overflowing_modulus():
    # scaled by 2^341, A's entries near 8.7e102 are scaled by the largest
    # part, whose modulus would overflow in the characteristic polynomial
    a = random_pair(31).a
    for scale in (2.0 ** 341, 2.0 ** 1000):
        assert (spectral_module._determinant_margin(a.scaled(scale).entries)
                == spectral_module._determinant_margin(a.entries))
    # parts of 1.5 * 2^1023, whose moduli overflow
    big = complex(1.5 * 2.0 ** 1023, 1.5 * 2.0 ** 1023)
    margin = spectral_module._determinant_margin(
        Mat3.diagonal(big, big, 1.0).entries)
    assert margin == spectral_module._determinant_margin(
        Mat3.diagonal(1.5 + 1.5j, 1.5 + 1.5j, 2.0 ** -1023).entries)


def determinant_margins(report) -> list[float]:
    return [c.margin for c in report.checks[:2]]


def test_report_determinant_margins_are_the_prescaled_ones():
    for seed in range(300):
        pair = random_pair(seed)
        assert determinant_margins(general_position_report(pair)) == [
            spectral_module._determinant_margin(pair.a.entries),
            spectral_module._determinant_margin(pair.b.entries)], seed


@pytest.mark.parametrize("a", [
    Mat3.diagonal(1, 1, 1).scaled(0.954357),
    Mat3.from_rows([[1, 1, 1], [1, -1, 1], [1, 1, -1]]).scaled(0.957563),
    Mat3.from_rows([[1 + 1j, 1 - 1j, 1 - 1j],
                    [1 - 1j, -1 + 1j, 1 + 1j],
                    [1 + 1j, 1 - 1j, -1 + 1j]]).scaled(0.967298),
], ids=["norm_1.65", "norm_2.87", "norm_4.10"])
def test_report_determinant_margin_keeps_its_bits_where_cubes_round_apart(a):
    # the prescale leaves |A| as it is, in [1, 2), [2, 4) or [4, 8); with
    # glibc 2.36's pow, the cube of |A| over 2, 4 or 8, times 8, 64 or 512,
    # differs in the last bit from |A| ** 3, as does the cube of 2^k |A|
    # from 2^3k |A| ** 3 at some of these k
    for k in range(-60, 61):
        pair = MatrixPair(a.scaled(2.0 ** k), FIXTURE_B)
        margin = determinant_margins(general_position_report(pair))[0]
        assert margin == spectral_module._determinant_margin(pair.a.entries), k


@pytest.mark.parametrize("x", [1.1e-155, 3e-162])
def test_report_prescales_a_determinant_that_fails_the_hard_test(x):
    # |A| is about 1, but det A = x^2 is subnormal or 0, and rounds to other
    # bits once A is prescaled by 1/2: unscaled it reads 1.21e-310 or
    # 1e-323, prescaled 1.20999999999997e-310 or 0
    pair = MatrixPair(Mat3.diagonal(1, x, x), FIXTURE_B)
    margin = determinant_margins(general_position_report(pair))[0]
    assert margin == spectral_module._determinant_margin(pair.a.entries)


@pytest.mark.parametrize("k, prescaled", [
    (-700, 2), (-68, 2), (-67, 1), (-66, 1), (-65, 0),
    (60, 0), (61, 1), (62, 1), (63, 2)])
def test_report_prescales_only_outside_the_range(monkeypatch, k, prescaled):
    # |A| = 3.74 and |B| = 10.5, so 2^k |A| leaves [2^-64, 2^64] below
    # k = -65 and above k = 62, and 2^k |B| below k = -67 and above k = 60;
    # inside, the margin is read off the determinant and norm of the hard
    # test, with the same bits
    calls = []
    original = spectral_module._determinant_margin

    def counting_determinant_margin(entries):
        calls.append(1)
        return original(entries)

    monkeypatch.setattr(spectral_module, "_determinant_margin",
                        counting_determinant_margin)
    pair = MatrixPair(FIXTURE_A.scaled(2.0 ** k), FIXTURE_B.scaled(2.0 ** k))
    assert determinant_margins(general_position_report(pair)) == [
        original(pair.a.entries), original(pair.b.entries)]
    assert len(calls) == prescaled


def test_random_pair_report_does_not_prescale(monkeypatch):
    def refuse(entries):
        raise AssertionError("_determinant_margin was called")

    monkeypatch.setattr(spectral_module, "_determinant_margin", refuse)
    assert general_position_report(random_pair(0)).passed


def test_report_decomposes_a_once(monkeypatch, fixture_pair):
    calls = []
    original = spectral_module.eigenvalues

    def counting_eigenvalues(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(spectral_module, "eigenvalues", counting_eigenvalues)
    assert general_position_report(fixture_pair).passed
    assert len(calls) == 1


def test_report_measures_the_curve_residual_once(monkeypatch, fixture_pair):
    # the on-curve margin is the residual the validation stage tested
    calls = []
    original = spectral_module.curve_residual

    def counting_curve_residual(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(spectral_module, "curve_residual",
                        counting_curve_residual)
    assert general_position_report(fixture_pair).passed
    assert len(calls) == 1


def test_gauge_fix_rejects_overflowed_reciprocal():
    # every entry is subnormal, so 1/u12 and 1/u13 would overflow; |U0|
    # underflows to 0, and the gauge ratio reads 0
    t = 1e-310
    u0 = (t + 0j, t + 0j, t + 0j, t + 0j, 2 * t + 0j, t + 0j,
          t + 0j, t + 0j, 3 * t + 0j)
    with pytest.raises(GaugeDegenerate):
        spectral_module._gauge_fix((1, 2, 3), u0)


def test_gauge_fix_reciprocals_finite_at_smallest_positive_norm():
    # a positive |U0| is at least the root of the smallest subnormal,
    # about 2.2e-162, so gauge entries that pass the ratio test have finite
    # reciprocals (0 times an infinite one would fail the Mat3 check of U)
    t = 2.3e-162
    g = 4e-9 * t
    u0 = (t + 0j, g + 0j, g + 0j, 0j, 0j, 0j, 0j, 0j, 0j)
    assert 0.0 < Mat3(u0).norm() < t
    assert spectral_module._gauge_fix((1, 2, 3), u0)[0].u[0, 0] == t


def test_eigenbasis_matrix_is_checked_to_be_finite():
    # V^-1 B V overflows in its second row: 1e308 + 1e308
    vectors = ((1 + 0j, 0j, 0j), (1 + 0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j))
    with pytest.raises(ValueError, match="Mat3 entries must be finite"):
        spectral_module._in_eigenbasis(Mat3((1e308,) * 9), vectors)


def test_forward_map_matches_matrix_product_routes(seeded_pairs, monkeypatch):
    """The entry-level shifts, change of basis and gauge fix give the same
    bits as the whole-matrix products they replace."""
    inputs = []
    for pair in seeded_pairs:
        acted = act_spectral(Generator.INVERT, spectral_data(pair))
        inputs.append((pair, acted))

    def results():
        return [repr((normalize_pair(pair), canonical_form(acted),
                      general_position_report(pair)))
                for pair, acted in inputs]

    got = results()
    monkeypatch.setattr(spectral_module, "eigenvector",
                        eigenvector_by_identity_shift)
    monkeypatch.setattr(spectral_module, "_in_eigenbasis",
                        in_eigenbasis_by_matmul)
    monkeypatch.setattr(spectral_module, "_gauge_fix", gauge_fix_by_matmul)
    assert got == results()


def test_normalize_pair_inverts_the_eigenbasis_once(monkeypatch, fixture_pair):
    # V^-1 is adj(V) / det V: the one unnamed determinant is V's, after
    # those of A and B
    calls = []
    original = spectral_module.nonsingular_det

    def counting_nonsingular_det(entries, which=None):
        calls.append(which)
        return original(entries, which)

    monkeypatch.setattr(spectral_module, "nonsingular_det",
                        counting_nonsingular_det)
    normalize_pair(fixture_pair)
    assert calls == ["A", "B", None]


def test_each_returned_matrix_is_the_one_mat3_built(monkeypatch, fixture_pair):
    """The forward map and the relisting pass flat entries between their
    stages: ``spectral_data`` builds no matrix and ``normalize_pair`` only
    U.  ``canonical_form`` builds nothing when the first eigenvalue keeps
    its place, and otherwise only ``reconstruct``'s U, whose permutation
    the divisor point is read off with no gauge fix."""
    built = []
    post_init = Mat3.__post_init__

    def counting_post_init(m):
        built.append(1)
        post_init(m)

    sd = spectral_data(fixture_pair)
    # h = (1, 1/2, 1/3) relists as (1/3, 1/2, 1)
    inverted = act_spectral(Generator.INVERT, sd)
    monkeypatch.setattr(Mat3, "__post_init__", counting_post_init)
    for call, count in ((lambda: spectral_data(fixture_pair), 0),
                        (lambda: normalize_pair(fixture_pair), 1),
                        (lambda: canonical_form(sd), 0),
                        (lambda: canonical_form(inverted), 1)):
        built.clear()
        call()
        assert len(built) == count


def test_curve_residual_reads_inf_when_its_scale_overflows():
    coeffs = curve_coefficients(normalize_pair(MatrixPair(FIXTURE_A, FIXTURE_B)))
    # a finite scale keeps the plain quotient, bit for bit
    for point in ((-9, 2, 1), (1e50, 3e49, 1), (0.5j, 2, 1)):
        value = abs(spectral_module.kernels.eval_curve9(coeffs, *point))
        scale = coeffs.max_magnitude() * max(1.0, *map(abs, point)) ** 3
        assert curve_residual(coeffs, *point) == value / scale
    # a finite value over a scale whose cube overflows, or whose product
    # with the coefficients' magnitude does
    zero = coeffs._make([0j] * 9)
    assert curve_residual(zero, 0, 1e120, 0) == math.inf
    big = coeffs._replace(d2=1e250)
    assert curve_residual(big, 1e30, 1, 1) == math.inf
    # a value whose modulus overflows, over a finite scale
    heavy = coeffs._make([1.5e307 * (1 + 1j)] * 9)
    assert curve_residual(heavy, 1, 1, 1) == math.inf
    # an infinite or NaN value over it reads NaN
    assert math.isnan(curve_residual(coeffs, 1e120, 0, 1))
    assert math.isnan(curve_residual(coeffs, complex(math.nan, 0), 1e120, 1))


def test_spectral_residuals_read_an_overflowing_modulus_as_inf():
    # h1's parts are finite but its modulus is not: the difference with
    # itself is 0, over a scale that overflows, which certifies nothing
    sd = spectral_data(random_pair(0))
    huge = sd._replace(h=(complex(1.5e308, 1.5e308), *sd.h[1:]))
    residuals = spectral_residuals(huge, huge)
    assert residuals["h1"] == math.inf
    assert set(residuals.values()) == {0.0, math.inf}
    # a finite scale keeps the plain quotient, bit for bit
    x, y = 3 + 4j, 1e300 - 2j
    assert spectral_module.relative_difference(x, y) \
        == abs(x - y) / max(1.0, abs(x), abs(y))


@pytest.mark.parametrize("values, want", [
    ((), "0.0"), ((1e-9,), "1e-09"), ((0.0, 2e-9, 1e-9), "2e-09"),
    ((0.0, math.inf), "inf"), ((math.nan, 1e-9), "nan"),
    ((1e-9, math.nan), "nan"), ((math.inf, 0.0, math.nan), "nan")])
def test_worst_residual_keeps_a_nan_wherever_it_stands(values, want):
    """``max`` keeps a NaN only when it comes first; the worst residual
    is NaN when any residual is."""
    assert repr(spectral_module.worst_residual(values)) == want
    assert repr(spectral_module.worst_residual(list(values))) == want
