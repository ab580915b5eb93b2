import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_pair import (
    CubicPoly,
    Mat3,
    NonFiniteEntries,
    RankNotTwo,
    RepeatedEigenvalues,
    SingularMatrix,
    det3,
    eig3,
    inv3,
    kernel_vector,
    solve_cubic,
)
import spectral_pair.linalg as linalg
from spectral_pair import _kernels_py as kernels
from spectral_pair.errors import DegenerateLeadingCoefficient
from spectral_pair._kernels_py import vec_norm
from spectral_pair.linalg import nonsingular_det

from conftest import rng_complex, rng_matrix
from oracles import (
    PLAIN_KERNELS,
    columns_matrix,
    frob3_by_loop,
    match_roots,
    matvec3_by_subscripts,
)

#: not diagonal, so ``eig3`` takes its general path, with spectrum 1, 2, 3
TRIANGULAR_123 = Mat3.from_rows([[1, 1, 0], [0, 2, 1], [0, 0, 3]])

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
complexes = st.builds(complex, finite, finite)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 complex(0, math.nan), complex(1, -math.inf)])
def test_mat3_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="^Mat3 entries must be finite$"):
        Mat3((1, 0, 0, 0, bad, 0, 0, 0, 1))
    with pytest.raises(NonFiniteEntries, match="^Mat3 entries must be finite$"):
        Mat3.from_rows([[1, 0, 0], [0, bad, 0], [0, 0, 1]])


@pytest.mark.parametrize("n", [0, 8, 10])
def test_mat3_rejects_wrong_length(n):
    with pytest.raises(ValueError, match="^Mat3 needs exactly 9 entries$"):
        Mat3((1,) * n)


def test_mat3_coerces_entries_to_complex():
    m = Mat3.from_rows([[1, 2.5, 3j], [4, 5, 6], [7, 8, 9]])
    assert all(type(z) is complex for z in m.entries)
    assert m.entries[:3] == (1 + 0j, 2.5 + 0j, 3j)


def test_cubic_roots_of_unity():
    roots = solve_cubic(CubicPoly(1, 0, 0, -1))
    expected = [cmath.exp(2j * cmath.pi * k / 3) for k in range(3)]
    assert match_roots(roots, expected) < 1e-12


def test_cubic_integer_factorization():
    roots = solve_cubic(CubicPoly.from_roots(1, 2, 3))
    assert match_roots(roots, (1, 2, 3)) < 1e-12


def test_cubic_random_roots_in_disk():
    rng = random.Random(11)
    for _ in range(200):
        expected = [rng_complex(rng) for _ in range(3)]
        roots = solve_cubic(CubicPoly.from_roots(*expected))
        assert match_roots(roots, expected) < 1e-9


def test_cubic_root_residual_bound():
    rng = random.Random(5)
    for _ in range(200):
        p = CubicPoly(1.0, rng_complex(rng, 2), rng_complex(rng, 2),
                      rng_complex(rng, 2))
        scale = p.max_coefficient()
        for root in solve_cubic(p):
            assert abs(p(root)) <= 1e-10 * scale * max(1.0, abs(root)) ** 3


def test_cubic_sorted_deterministically():
    p = CubicPoly.from_roots(1j, -1j, 0.5)
    roots = solve_cubic(p)
    assert roots == tuple(sorted(roots, key=lambda z: (z.real, z.imag)))


def test_canonical_order_ties_real_parts_within_the_quantum():
    # a conjugate pair whose real parts differ by round-off is ordered by
    # its imaginary parts, whichever real part came out larger
    for eps in (0.0, 1e-16, -1e-16):
        lower, upper = complex(0.3 + eps, -1.0), complex(0.3, 1.0)
        for values in ((upper, 2 + 0j, lower), (lower, upper, 2 + 0j)):
            assert kernels.canonical_order(values) == (lower, upper, 2 + 0j)
    # real parts more than 1e-8 max|z| apart keep the (re, im) order
    lower, upper = complex(0.3 + 3e-8, -1.0), complex(0.3, 1.0)
    assert kernels.canonical_order((lower, 2 + 0j, upper)) == (
        upper, lower, 2 + 0j)
    # ties chain through the middle value: 2e-8 apart end to end, each
    # neighbour within the quantum of 2e-8
    chain = (complex(1, 3), complex(1 + 1e-8, 2), complex(1 + 2e-8, 1))
    assert kernels.canonical_order(chain) == chain[::-1]
    # a NaN gap, or a NaN scale, is never a tie
    nan = complex(math.nan, 0.0)
    for values in ((1j, nan, -1j), (nan, 1j, -1j)):
        assert kernels.canonical_order(values) == tuple(
            sorted(values, key=lambda z: (z.real, z.imag)))


def test_cubic_repeated_root():
    roots = solve_cubic(CubicPoly.from_roots(1, 1, 2))
    assert match_roots(roots, (1, 1, 2)) < 1e-6


def test_cubic_degenerate_leading_coefficient():
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_cubic(CubicPoly(1e-15, 1, 1, 1))


@settings(max_examples=60, deadline=None)
@given(r1=complexes, r2=complexes, r3=complexes)
def test_cubic_vieta(r1, r2, r3):
    # repeated roots are outside every caller's domain and carry sqrt(eps)
    # conditioning, so the symmetric-function identities are only claimed
    # for separated triples
    assume(min(abs(r1 - r2), abs(r1 - r3), abs(r2 - r3))
           > 1e-3 * max(1.0, abs(r1), abs(r2), abs(r3)))
    p = CubicPoly.from_roots(r1, r2, r3)
    roots = solve_cubic(p)
    total = sum(roots)
    prod = roots[0] * roots[1] * roots[2]
    assert abs(total - (-p.c2)) <= 1e-9 * max(1.0, abs(p.c2))
    assert abs(prod - (-p.c0)) <= 1e-9 * max(1.0, abs(p.c0))


def test_det_identity_and_diagonal():
    assert det3(Mat3.identity()) == 1
    assert det3(Mat3.diagonal(1, 2, 3)) == 6


def test_det_repeated_rows():
    rng = random.Random(3)
    row = [rng_complex(rng) for _ in range(3)]
    other = [rng_complex(rng) for _ in range(3)]
    m = Mat3.from_rows([row, row, other])
    scale = max(abs(z) for z in m.entries)
    assert abs(det3(m)) <= 1e-12 * scale ** 3


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_det_multiplicative(seed):
    rng = random.Random(seed)
    m, n = rng_matrix(rng), rng_matrix(rng)
    lhs = det3(m @ n)
    rhs = det3(m) * det3(n)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


def test_inverse_diagonal():
    inv = inv3(Mat3.diagonal(1, 2, 3))
    expected = Mat3.diagonal(1, 0.5, 1 / 3)
    assert max(abs(a - b) for a, b in zip(inv.entries, expected.entries)) < 1e-14


def test_inverse_multiply_back():
    rng = random.Random(17)
    for _ in range(100):
        m = rng_matrix(rng)
        if abs(det3(m)) < 1e-3:
            continue
        product = m @ inv3(m)
        residual = max(abs(z - w) for z, w in
                       zip(product.entries, Mat3.identity().entries))
        assert residual < 1e-10 * m.norm() * inv3(m).norm()


def test_inverse_singular_rejected():
    with pytest.raises(SingularMatrix):
        inv3(Mat3.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]))


def test_kernel_coordinate_case():
    v = kernel_vector(Mat3.diagonal(0, 1, 2).entries)
    assert abs(abs(v[0]) - 1) < 1e-14
    assert abs(v[1]) < 1e-14 and abs(v[2]) < 1e-14


def test_kernel_constructed():
    rng = random.Random(23)
    for _ in range(50):
        w = (rng_complex(rng), rng_complex(rng), rng_complex(rng))
        dot_ww = w[0] * w[0] + w[1] * w[1] + w[2] * w[2]
        if abs(dot_ww) < 0.1 or vec_norm(w) < 0.3:
            continue
        # two independent rows orthogonal to w under the plain bilinear dot
        rows = []
        while len(rows) < 2:
            r = [rng_complex(rng) for _ in range(3)]
            coef = (r[0] * w[0] + r[1] * w[1] + r[2] * w[2]) / dot_ww
            r = [r[i] - coef * w[i] for i in range(3)]
            if vec_norm(tuple(r)) > 0.2:
                rows.append(r)
        third = [rows[0][i] + rows[1][i] for i in range(3)]
        m = Mat3.from_rows([rows[0], rows[1], third])
        v = kernel_vector(m.entries)
        assert vec_norm(matvec3_by_subscripts(m.entries, v)) < 1e-9 * m.norm()
        # v is proportional to w
        cross = max(abs(v[i] * w[j] - v[j] * w[i])
                    for i in range(3) for j in range(3))
        assert cross < 1e-7 * vec_norm(w)


def test_kernel_full_rank_rejected():
    with pytest.raises(RankNotTwo):
        kernel_vector(Mat3.identity().entries)


def test_kernel_rank_one_rejected():
    w = (1 + 0j, 2 + 0j, -1 + 0j)
    m = Mat3.from_rows([w, [2 * z for z in w], [3 * z for z in w]])
    with pytest.raises(RankNotTwo):
        kernel_vector(m.entries)


@pytest.mark.parametrize("big", [1e160, 1e80])
def test_eig_rejects_an_overflowing_adjugate(big):
    # 1e160: each A - hI has adjugate entries near 1e320, the minor measure
    # is NaN, and NaN fails the rank test.  1e80: |A| and both measures are
    # finite, but a column's squared norm overflows; it would scale to the
    # zero vector, residual 0, so the candidate reads residual inf instead
    a = Mat3.from_rows([[1, big, 0], [0, 2, big], [0, 0, 3.5]])
    with pytest.raises(RankNotTwo):
        eig3(a)
    assert kernels.kernel_vector3((a - Mat3.identity()).entries)[1] \
        == math.inf


@pytest.mark.parametrize("measures", [
    (math.nan, 0.0, 1.0), (0.0, math.nan, 1.0), (0.0, 0.0, math.nan)],
    ids=["residual", "det_measure", "minor_measure"])
def test_kernel_vector_rejects_nan_measures(measures, monkeypatch):
    monkeypatch.setattr(linalg.kernels, "kernel_vector3",
                        lambda entries: ((1 + 0j, 0j, 0j), *measures))
    with pytest.raises(RankNotTwo):
        kernel_vector(Mat3.diagonal(0, 1, 2).entries)


def test_vec_norm_reads_an_overflowing_square_as_inf():
    assert vec_norm((1e200, 0, 1)) == math.inf
    assert math.isnan(vec_norm((1e200, math.nan, 0)))
    assert vec_norm((3, 4j, 0)) == 5.0


def test_overflowing_modulus_reads_inf():
    # finite parts near 1.3e308 whose modulus is beyond the float range
    big = complex(1.3e308, 1.3e308)
    assert CubicPoly(1.0, big, 0, 0).max_coefficient() == math.inf
    with pytest.raises(DegenerateLeadingCoefficient):
        solve_cubic(CubicPoly(1.0, big, 0, 0))
    # det = x^3 (1 + i) has parts near 1.3e308; |M|^3 is about 1.04e309,
    # but SINGULAR |M|^3, multiplied in that order, stays finite
    x = 1.3e308 ** (1 / 3)
    d = nonsingular_det(Mat3.diagonal(x * (1 + 1j), x, x).entries)
    assert math.isfinite(d.real) and math.isfinite(d.imag)


def test_eig_diagonal():
    values, vectors = eig3(Mat3.diagonal(1, 2, 3))
    assert match_roots(values, (1, 2, 3)) < 1e-12
    for i, v in enumerate(vectors):
        assert abs(abs(v[i]) - 1) < 1e-12


def test_eig_conjugation():
    rng = random.Random(41)
    for _ in range(50):
        g = rng_matrix(rng)
        if abs(det3(g)) < 1e-2:
            continue
        a = g @ Mat3.diagonal(1, 2, 3) @ inv3(g)
        values, vectors = eig3(a)
        assert match_roots(values, (1, 2, 3)) < 1e-9
        for h, v in zip(values, vectors):
            av = matvec3_by_subscripts(a.entries, v)
            residual = [av[i] - h * v[i] for i in range(3)]
            assert vec_norm(tuple(residual)) <= 1e-8 * a.norm()


def test_eig_repeated_rejected():
    with pytest.raises(RepeatedEigenvalues):
        eig3(Mat3.diagonal(1, 1, 2))


def test_eig_rebuild():
    rng = random.Random(59)
    count = 0
    while count < 50:
        g = rng_matrix(rng)
        if abs(det3(g)) < 1e-2:
            continue
        h = [rng_complex(rng, 2) for _ in range(3)]
        if min(abs(h[0] - h[1]), abs(h[0] - h[2]), abs(h[1] - h[2])) < 0.2:
            continue
        count += 1
        a = g @ Mat3.diagonal(*h) @ inv3(g)
        values, vectors = eig3(a)
        v = columns_matrix(*vectors)
        rebuilt = v @ Mat3.diagonal(*values) @ inv3(v)
        residual = max(abs(x - y) for x, y in zip(rebuilt.entries, a.entries))
        assert residual <= 1e-8 * max(1.0, a.norm())


def test_eig_finds_each_vector_from_its_kernel(monkeypatch):
    calls = []
    original = linalg.kernel_vector

    def counting_kernel_vector(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(linalg, "kernel_vector", counting_kernel_vector)
    eig3(TRIANGULAR_123)
    assert len(calls) == 3


@pytest.mark.parametrize("diagonal", [
    (1e-100, 2e-100, 3.5e-100), (1e-120, 2e-120, 3.5e-120),
    (3, 1 + 1j, 1 - 1j), (-0.5, 2j, -2j)])
def test_eig_of_a_diagonal_returns_its_entries(diagonal, monkeypatch):
    """A diagonal A's eigenvalues are its entries, to the bit, in canonical
    order, with the unit vectors in that order; no cubic is solved and no
    kernel sought.  Through the cubic, the 1e-100 scale read rank_not_two
    and the 1e-120 scale repeated_eigenvalues."""
    calls = []
    for module, name in ((linalg, "kernel_vector"),
                         (kernels, "solve_cubic_raw")):
        monkeypatch.setattr(module, name,
                            lambda *args, name=name: calls.append(name))
    values, vectors = eig3(Mat3.diagonal(*diagonal))
    assert calls == []
    entries = tuple(map(complex, diagonal))
    assert repr(values) == repr(kernels.canonical_order(entries))
    for h, v in zip(values, vectors):
        i = entries.index(h)
        assert v == tuple(1 + 0j if k == i else 0j for k in range(3))


def test_frob3_sums_in_entry_order():
    rng = random.Random(89)
    mats = [rng_matrix(rng, 10.0 ** rng.randint(-5, 5)).entries
            for _ in range(200)]
    for size in (1e-160, 1e160):
        # squares underflow to 0 (subnormal at best), or overflow to inf
        mats += [tuple(size * rng_complex(rng) for _ in range(9))
                 for _ in range(50)]
    nan = complex(math.nan, 0.0)
    mats += [(nan,) + mats[0][1:], mats[1][:4] + (complex(1, math.nan),)
             + mats[1][5:], mats[2][:8] + (complex(math.inf, math.nan),)]
    for m in mats:
        assert repr(kernels.frob3(m)) == repr(frob3_by_loop(m))


#: real and imaginary parts that the edge family swaps in: signed zeros,
#: subnormals, infinities and NaN
SPECIAL_PARTS = (0.0, -0.0, 5e-324, -1e-310, math.inf, -math.inf, math.nan)

#: the operand widths of each kernel; 1 is a bare scalar
KERNEL_OPERANDS = {"frob3": (9,), "det3": (9,), "adj3": (9,),
                   "kernel_vector3": (9,), "matmul3": (9, 9), "vec_norm": (3,),
                   "eval_curve9": (9, 1, 1, 1), "solve_cubic_raw": (1, 1, 1, 1)}


def edge_operand(rng, width):
    """``width`` seeded complex numbers (a bare one for width 1) of one
    family: scale 10^k with |k| <= 5; scale 1e-160 or 1e160, where squares
    underflow or overflow; scale 1e100, where products of two entries
    square past the float range; or parts swapped for SPECIAL_PARTS."""
    family = rng.randrange(5)
    scale = (10.0 ** rng.randint(-5, 5), 1e-160, 1e160, 1e100, 1.0)[family]
    values = [scale * rng_complex(rng) for _ in range(width)]
    if family == 4:
        values = [complex(rng.choice(SPECIAL_PARTS) if rng.random() < 0.3
                          else z.real,
                          rng.choice(SPECIAL_PARTS) if rng.random() < 0.3
                          else z.imag)
                  for z in values]
    return values[0] if width == 1 else tuple(values)


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:   # the error must match too
        return repr((type(exc).__name__, str(exc)))


@pytest.mark.parametrize("name", sorted(PLAIN_KERNELS))
def test_kernel_keeps_the_bits_of_its_plain_formula(name):
    # the unpacked kernels against their subscripted formulations: every
    # value's repr, or every error, on seeded operands of each edge family
    rng = random.Random(f"plain:{name}")
    widths = KERNEL_OPERANDS[name]
    operands = [[edge_operand(rng, w) for w in widths] for _ in range(600)]
    if name == "kernel_vector3":
        operands.append([(0j,) * 9])
        # the rank-2 shifts A - hI, rescaled, whose adjugate columns are
        # kernels
        for _ in range(100):
            e = rng_matrix(rng).entries
            scale = 10.0 ** rng.randint(-5, 5)
            operands += [[tuple(scale * (z - h) if k % 4 == 0 else scale * z
                                for k, z in enumerate(e))]
                         for h in eig3(Mat3(e))[0]]
    if name == "solve_cubic_raw":
        # cubics with seeded roots, which the Newton steps polish
        operands += [list(CubicPoly.from_roots(
            *(rng_complex(rng, 10.0 ** rng.randint(-3, 3)) for _ in range(3))))
            for _ in range(300)]
    for args in operands:
        assert outcome(getattr(kernels, name), *args) == \
            outcome(PLAIN_KERNELS[name], *args), args


def test_kernel_vector3_det_measure_is_abs_det3():
    # seeded matrices, a few with signed zeros and integer entries, and the
    # rank-2 shifts A - hI of seeded matrices
    rng = random.Random(97)
    mats = [rng_matrix(rng, 10.0 ** rng.randint(-3, 3)).entries
            for _ in range(200)]
    mats += [Mat3.diagonal(0, 1, 2).entries, Mat3.diagonal(-0.0, 1, 2).entries,
             Mat3.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 1]]).entries,
             Mat3.from_rows([[0, -0.0, 1], [-0.0, 0, 2], [1, 2, 0]]).entries]
    for _ in range(100):
        e = rng_matrix(rng).entries
        for h in eig3(Mat3(e))[0]:
            mats.append(tuple(z - h if k % 4 == 0 else z
                              for k, z in enumerate(e)))
    for m in mats:
        f = frob3_by_loop(m)
        if f == 0.0:
            continue
        expected = abs(kernels.det3(m)) / (f * f * f)
        assert repr(kernels.kernel_vector3(m)[2]) == repr(expected)


def test_eig_rejects_a_nan_eigenvalue_before_seeking_a_kernel(monkeypatch):
    # the separation test is the one test of the triple: a NaN in any
    # place fails it, although ``min`` and ``max`` skip one that is not
    # first, so no shift A - hI is formed with it
    kernels_sought = []
    monkeypatch.setattr(linalg, "kernel_vector", kernels_sought.append)
    for i in range(3):
        values = [1 + 0j, 2 + 0j, 3 + 0j]
        values[i] = complex(math.nan, 0.0)
        monkeypatch.setattr(linalg, "solve_cubic", lambda p: tuple(values))
        with pytest.raises(RepeatedEigenvalues):
            eig3(TRIANGULAR_123)
    assert kernels_sought == []
