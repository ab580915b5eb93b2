"""Forward map: matrix pair -> curve coefficients and divisor point.

A pair (A, B) of nondegenerate 3x3 matrices, taken up to simultaneous
conjugation, determines a plane cubic det(lam + mu*A + nu*B) = 0 together
with a distinguished point on it.  The nine coefficients are trace
invariants of the pair (Procesi 1976), and the point depends only on A's
left eigenvector at its first eigenvalue, so neither needs A's eigenbasis.
The normal form (h, U), with U gauge-fixed to u12 = u13 = 1 in A's
eigenbasis, is what ``reconstruct`` inverts.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter, mul
from typing import NamedTuple

from . import _kernels_py as kernels
from .config import (
    DIVISOR_DENOMINATOR,
    GAUGE,
    MARGIN_AXIS_POINT_SEPARATION,
    MARGIN_DETERMINANT,
    MARGIN_DIVISOR_DENOMINATOR,
    MARGIN_EIGENVALUE_SEPARATION,
    MARGIN_GAUGE,
    ON_CURVE,
    SYMMETRIC_FUNCTIONS,
)
from .errors import (
    DegenerateDivisor,
    GaugeDegenerate,
    GeneralPositionError,
    InvariantViolation,
    SingularMatrix,
)
from .linalg import (
    CubicPoly,
    Mat3,
    Vec3,
    _TRANSPOSE,
    _UNIT,
    check_finite,
    eig3,
    eigenvalues,
    eigenvector,
    nonsingular_det,
    separation,
    solve_cubic,
)


class MatrixPair(NamedTuple):
    """Raw input: two nondegenerate 3x3 matrices, considered up to
    simultaneous conjugation."""

    a: Mat3
    b: Mat3


class NormalizedPair(NamedTuple):
    """Ordered eigenvalues of the first matrix plus the gauge-fixed matrix of
    the second one in that eigenbasis (entries (1,2) and (1,3) exactly 1)."""

    h: Vec3
    u: Mat3

    def as_pair(self) -> MatrixPair:
        return MatrixPair(Mat3.diagonal(*self.h), self.u)


class CurveCoefficients(NamedTuple):
    """The nine non-normalized coefficients of the spectral cubic

        lam^3 + d1 mu^3 + d2 nu^3 + p_plus lam^2 mu + p_minus lam mu^2
        + q_plus lam^2 nu + q_minus lam nu^2 + r_plus mu^2 nu
        + r_minus mu nu^2 + t lam mu nu = 0.
    """

    d1: complex
    d2: complex
    p_plus: complex
    p_minus: complex
    q_plus: complex
    q_minus: complex
    r_plus: complex
    r_minus: complex
    t: complex

    def items(self):
        return zip(self._fields, self)

    def max_magnitude(self) -> float:
        """Largest coefficient modulus, floored at 1; one that overflows
        reads inf."""
        try:
            return max(1.0, *map(abs, self))
        except OverflowError:
            return math.inf


class DivisorPoint(NamedTuple):
    """Affine coordinates of the distinguished curve point (L : M : 1)."""

    L: complex
    M: complex


class SpectralData(NamedTuple):
    """Full invariant of a pair: ordered eigenvalues, curve coefficients and
    the divisor point.  The eigenvalue ordering is part of the data."""

    h: Vec3
    coeffs: CurveCoefficients
    divisor: DivisorPoint


#: every check of the report, in order, with (report threshold, hard
#: threshold): a margin passes above the first; the stage of ``spectral_data``
#: that tests the same float raises at the second, None where none does.  The
#: ``divisor_on_curve`` margin is the hard threshold minus the residual.
_CHECKS = {
    "determinant_a": (MARGIN_DETERMINANT, None),
    "determinant_b": (MARGIN_DETERMINANT, None),
    "eigenvalue_separation": (MARGIN_EIGENVALUE_SEPARATION, None),
    "gauge_entries": (MARGIN_GAUGE, None),
    "divisor_denominator": (MARGIN_DIVISOR_DENOMINATOR, DIVISOR_DENOMINATOR),
    "divisor_on_curve": (0.0, ON_CURVE),
    "axis_point_separation": (MARGIN_AXIS_POINT_SEPARATION, None),
}
_CHECK_NAMES = tuple(_CHECKS)
#: ``forward``'s order of stages: ``spectral_data``'s, then two that report
_STAGE_ORDER = (*_CHECK_NAMES[:3], "divisor_denominator", "divisor_on_curve",
                "gauge_entries", "axis_point_separation")


def normalize_pair(pair: MatrixPair) -> NormalizedPair:
    """Diagonalize the first matrix and gauge-fix the second.

    Eigenvalues are in canonical order.  The residual diagonal-conjugation
    freedom is killed by rescaling so the (1,2) and (1,3) entries of the
    second matrix become exactly 1; the result is then a complete invariant
    of the simultaneous-conjugation class.
    """
    nonsingular_det(pair.a.entries, "A")
    nonsingular_det(pair.b.entries, "B")
    return _normal_form(pair)[0]


def _normal_form(pair: MatrixPair, h: Vec3 | None = None) -> tuple[NormalizedPair, float]:
    """The normal form, at A's eigenvalues h if known, with the gauge ratio
    it tests."""
    h, vectors = eig3(pair.a, h)
    return _gauge_fix(h, _in_eigenbasis(pair.b, vectors))


def _in_eigenbasis(b: Mat3, vectors) -> tuple[complex, ...]:
    """The flat entries of U0 = V^-1 B V, the second matrix in the
    eigenbasis V whose columns are ``vectors``, checked to be finite.
    V^-1 is adj(V) / det V, as ``inv3`` computes it."""
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = vectors
    v = (x0, y0, z0, x1, y1, z1, x2, y2, z2)
    # d.__rtruediv__(c) is the C division c / d
    v_inv = tuple(map(nonsingular_det(v).__rtruediv__, kernels.adj3(v)))
    u0 = kernels.matmul3(kernels.matmul3(v_inv, b.entries), v)
    check_finite(u0)
    return u0


def _gauge_fix(values: Vec3, u0: tuple[complex, ...]) -> tuple[NormalizedPair, float]:
    """Rescale the flat, checked U0 by a diagonal conjugation so that
    u12 = u13 = 1; the result's U is the one ``Mat3`` built.  Returned with
    the ratio min(|u12|, |u13|) / |U0| that it tests, 0 when |U0| is 0."""
    u12, u13 = u0[1], u0[2]
    norm = kernels.frob3(u0)
    ratio = min(abs(u12), abs(u13)) / norm if norm > 0.0 else 0.0
    if ratio <= GAUGE:
        raise GaugeDegenerate(
            "second matrix has negligible (1,2) or (1,3) entry in the eigenbasis",
            ratio=ratio, u12=abs(u12), u13=abs(u13))

    # U = D U0 D^-1 with D = diag(1, u12, u13), entry by entry as
    # d_i u0_ij / d_j, the gauge entries pinned to 1.  The reciprocals stay
    # finite: a positive |U0| is at least 2.2e-162 (the root of the smallest
    # subnormal), so both entries exceed GAUGE times that.  The unit factors
    # set the sign of a zero imaginary part as the matrix product did.
    r12, r13 = 1.0 / u12, 1.0 / u13
    u = Mat3((1.0 * u0[0] * 1.0, 1.0, 1.0,
              u12 * u0[3] * 1.0, u12 * u0[4] * r12, u12 * u0[5] * r13,
              u13 * u0[6] * 1.0, u13 * u0[7] * r12, u13 * u0[8] * r13))
    return NormalizedPair(values, u), ratio


def _coefficients(a, b) -> CurveCoefficients:
    """The nine coefficients of det(lam + mu A + nu B), all plus signs, for
    the flat entries of A and B, as trace invariants of the pair."""
    adj_a, adj_b, b_t = kernels.adj3(a), kernels.adj3(b), _TRANSPOSE(b)
    tr_a, tr_b = a[0] + a[4] + a[8], b[0] + b[4] + b[8]
    return CurveCoefficients(   # tr(XY) is sum(map(mul, X, Y^T))
        d1=a[0] * adj_a[0] + a[1] * adj_a[3] + a[2] * adj_a[6],
        d2=b[0] * adj_b[0] + b[1] * adj_b[3] + b[2] * adj_b[6],
        p_plus=tr_a, p_minus=adj_a[0] + adj_a[4] + adj_a[8],
        q_plus=tr_b, q_minus=adj_b[0] + adj_b[4] + adj_b[8],
        r_plus=sum(map(mul, adj_a, b_t)),
        r_minus=sum(map(mul, a, _TRANSPOSE(adj_b))),
        t=tr_a * tr_b - sum(map(mul, a, b_t)))


def _divisor(a, b, w=_UNIT[0], h=None) -> tuple[DivisorPoint, float]:
    """The divisor point (L : M : 1) of the pair with flat entries ``a`` and
    ``b``, for A's unit left eigenvector w at h1 (e1 for diag(h)), and the
    margin it tests; h, A's eigenvalues, when w was computed.

    There the pencil's kernel vector k has w^T k = 0, its first coordinate
    in A's eigenbasis.  With p the place of w's largest entry and j, k the
    others, k = y1 q_j + y2 q_k for q_c = w_p e_c - w_c e_p, and w^T B k = 0
    gives y = (g_k, -g_j), g_c = w^T B q_c, here over its larger entry.
    Rows j and k of (L + M A + B) k = 0 are a 2x2 system; its determinant,
    u12 u13 (h2 - h3) up to scale in the normal form, over |y|^2 |A| is the
    scale-free margin, 0 for y = 0.  A computed w, and the point with it,
    loses 1/g^2 for h1's relative gap g = min(|h1 - h2|, |h1 - h3|, max|h|)
    / max|h|, so the margin is then multiplied by g^2; e1 loses nothing."""
    p = (sizes := tuple(map(abs, w))).index(max(sizes))
    j, k = (1, 2) if p == 0 else (0, 3 - p)   # the other two places
    wp, wj, wk = w[p], w[j], w[k]
    # w^T B at places p, j and k
    rp, rj, rk = [w[0] * b[c] + w[1] * b[3 + c] + w[2] * b[6 + c]
                  for c in (p, j, k)]
    gj, gk = wp * rj - wj * rp, wp * rk - wk * rp
    big = gj if abs(gj) > abs(gk) else gk
    y1, y2 = (gk / big, -gj / big) if big else (0.0, 0.0)
    # k at places j, k and p, then rows j and k of A k and B k
    kj, kk, kp = wp * y1, wp * y2, -(wj * y1 + wk * y2)
    aj, ak, bj, bk = [m[3 * r + j] * kj + m[3 * r + k] * kk + m[3 * r + p] * kp
                      for m, r in ((a, j), (a, k), (b, j), (b, k))]
    det = kj * ak - kk * aj
    scale = (y1 * y1.conjugate() + y2 * y2.conjugate()).real * kernels.frob3(a)
    mod = kernels.modulus
    margin = mod(det) / scale if scale > 0.0 else 0.0
    if h is not None:   # separated, so max|h| > 0
        top = max(map(mod, h))
        margin *= (min(mod(h[0] - h[1]), mod(h[0] - h[2]), top) / top) ** 2
    if not margin > _CHECKS["divisor_denominator"][1]:
        raise DegenerateDivisor("divisor denominator is negligible",
                                denominator=mod(det), ratio=margin)
    return DivisorPoint((bk * aj - bj * ak) / det, (kk * bj - kj * bk) / det), margin


def curve_coefficients(np: NormalizedPair) -> CurveCoefficients:
    """The nine cubic coefficients of the pair (diag(h), U)."""
    return _coefficients(Mat3.diagonal(*np.h).entries, np.u.entries)


def divisor_point(np: NormalizedPair) -> DivisorPoint:
    """The divisor point of (diag(h), U), whose left eigenvector at h1 is e1."""
    return _divisor(Mat3.diagonal(*np.h).entries, np.u.entries)[0]


def spectral_data_of_normalized(np: NormalizedPair) -> SpectralData:
    return validate_spectral_data(
        SpectralData(np.h, curve_coefficients(np), divisor_point(np)))


def spectral_data(pair: MatrixPair) -> SpectralData:
    """Full forward map; invariant under simultaneous conjugation.  Stages:
    A's and B's determinant tests, A's eigenvalues and left eigenvector at
    h1, the divisor margin and ``validate_spectral_data``; no eigenbasis."""
    return _spectral(pair)[0]


def _first_left_eigen(a: Mat3) -> tuple[Vec3, Vec3]:
    """A's eigenvalues h and its unit left eigenvector w at h1."""
    h = eigenvalues(a)
    return h, eigenvector(a, h[0], left=True)


def _spectral(pair: MatrixPair, known=None) -> tuple[SpectralData, Vec3]:
    """``spectral_data`` and the w it took; ``known``, the (h, w) of an A that
    passed its determinant test, skips A's test and decomposition."""
    a, b = pair.a.entries, pair.b.entries
    if known is None:
        nonsingular_det(a, "A")
    nonsingular_det(b, "B")
    h, w = known or _first_left_eigen(pair.a)
    return validate_spectral_data(
        SpectralData(h, _coefficients(a, b), _divisor(a, b, w, h)[0])), w


def curve_residual(coeffs: CurveCoefficients, lam: complex, mu: complex,
                   nu: complex) -> float:
    """Scaled residual |C(lam, mu, nu)| at the (unnormalized) point.

    A scale that overflows certifies nothing: a finite |C| over it reads
    inf, not 0, so that an on-curve check fails instead of passing, and an
    infinite or NaN |C| over it reads NaN.  A modulus that overflows, of
    C or of a coefficient, counts as inf rather than raise."""
    try:
        value = abs(kernels.eval_curve9(coeffs, lam, mu, nu))
    except OverflowError:
        value = math.inf
    try:
        scale = (coeffs.max_magnitude()
                 * max(1.0, abs(lam), abs(mu), abs(nu)) ** 3)
    except OverflowError:
        scale = math.inf
    if scale == math.inf and math.isfinite(value):
        return math.inf
    return value / scale


def validate_spectral_data(sd: SpectralData) -> SpectralData:
    """``sd`` once it passes the consistency checks: the eigenvalues
    reproduce (p_plus, p_minus, d1) as their elementary symmetric functions,
    and the divisor point lies on the curve."""
    return _validated(sd)[0]


def _validated(sd: SpectralData) -> tuple[SpectralData, float]:
    """``validate_spectral_data``, with the on-curve residual it tests."""
    h1, h2, h3 = sd.h
    c = sd.coeffs
    # each floored at 1, or at e_k(h)'s own scale max|h|^k below it
    top = min(1.0, max(map(kernels.modulus, sd.h)))
    for name, lhs, rhs, floor in (
            ("p_plus", h1 + h2 + h3, c.p_plus, top),
            ("p_minus", h1 * h2 + h1 * h3 + h2 * h3, c.p_minus, top * top),
            ("d1", h1 * h2 * h3, c.d1, top * top * top)):
        try:
            scale = max(floor, abs(lhs), abs(rhs))
            diff = abs(lhs - rhs)
        except OverflowError:
            scale = diff = math.inf
        # as in ``curve_residual``, a scale that overflows certifies nothing
        if scale == math.inf or not diff <= SYMMETRIC_FUNCTIONS * scale:
            raise InvariantViolation(
                f"eigenvalues do not match coefficient {name}",
                component=name,
                residual=math.inf if scale == math.inf else diff / scale)
    residual = curve_residual(sd.coeffs, sd.divisor.L, sd.divisor.M, 1.0)
    if not residual <= _CHECKS["divisor_on_curve"][1]:
        raise InvariantViolation("divisor point does not lie on the curve",
                                 component="divisor", residual=residual)
    return sd, residual


def relative_difference(x: complex, y: complex) -> float:
    """|x - y| relative to the larger magnitude, floored at 1.  As in
    ``curve_residual``, a scale that overflows certifies nothing: a modulus
    that overflows reads inf."""
    try:
        return abs(x - y) / max(1.0, abs(x), abs(y))
    except OverflowError:
        return math.inf


def worst_residual(values) -> float:
    """The largest of a collection of residuals, 0.0 for none, and NaN if
    any is NaN: a NaN is worse than any number, and ``max`` alone keeps a
    NaN only when it comes first."""
    if any(map(math.isnan, values)):
        return math.nan
    return max(values, default=0.0)


#: the components of spectral data, flattened: h, the coefficients, (L, M)
_SPECTRAL_KEYS = ("h1", "h2", "h3", *CurveCoefficients._fields, "L", "M")


def spectral_residuals(lhs: SpectralData, rhs: SpectralData) -> dict[str, float]:
    """Componentwise relative residuals between two spectral data."""
    return dict(zip(_SPECTRAL_KEYS, map(
        relative_difference, (*lhs.h, *lhs.coeffs, *lhs.divisor),
        (*rhs.h, *rhs.coeffs, *rhs.divisor))))


class PositionCheck(NamedTuple):
    name: str
    passed: bool
    margin: float | None
    threshold: float
    note: str = ""


class GeneralPositionReport(NamedTuple):
    checks: tuple[PositionCheck, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failing(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]


class Forward(NamedTuple):
    """One pass of the forward map over a pair.

    ``report`` holds the margin of every general-position check; those of
    the gauge, divisor and on-curve checks are the floats their stages
    tested.  ``error`` is the error ``spectral_data(pair)`` raises, the
    first in its order of stages, or None; ``sd`` and ``w`` are the spectral
    data and A's left eigenvector at h1 when ``error`` is None, and ``np``
    the normal form, unless it failed; the others are None.
    """

    pair: MatrixPair
    report: GeneralPositionReport
    np: NormalizedPair | None
    sd: SpectralData | None
    error: GeneralPositionError | None
    w: Vec3 | None = None


_REAL, _IMAG = attrgetter("real"), attrgetter("imag")


def _determinant_margin(entries: tuple[complex, ...]) -> float:
    """|det M| / |M|^3 for the flat entries of a 3x3 matrix, 0 for the zero
    matrix.

    M is first scaled by the power of two that brings its largest real or
    imaginary part into [0.5, 1).  That scaling is exact in binary floating
    point, and after it neither |M|, nor the determinant, nor the cube can
    underflow or overflow.  |M| itself would not do as the scale: its
    squares underflow below about 1e-154 and overflow above about 1e154;
    nor would the largest |entry|, whose modulus overflows above about
    1.8e308 although its parts are finite."""
    re, im = tuple(map(_REAL, entries)), tuple(map(_IMAG, entries))
    # the entries are a checked Mat3's, so every part is finite and the
    # maximum of the parts does not depend on their order
    largest = max(map(abs, re + im))
    if largest == 0.0:
        return 0.0
    # ldexp on each part, because 2**-exponent itself overflows for a
    # subnormal largest entry
    shift = repeat(-math.frexp(largest)[1])
    scaled = tuple(map(complex, map(math.ldexp, re, shift),
                       map(math.ldexp, im, shift)))
    return abs(kernels.det3(scaled)) / kernels.frob3(scaled) ** 3


def _axis_point_separation(h: Vec3, xi: Vec3, s: Vec3) -> float:
    """Smallest |P x Q| / (|P| |Q|) over the points P = (h : -1 : 0),
    X = (xi : 0 : -1) and Z = (0 : s : 1) where the curve meets the axes:
    |P|^2 = |h|^2 + 1, |P_i x P_j| = |h_j - h_i| (likewise for X and Z),
    |P x X|^2 = 1 + |h|^2 + |xi|^2, |P x Z|^2 = 1 + |h|^2 + |hs|^2 and
    |X x Z|^2 = |s|^2 + |xi|^2 + |xi s|^2.  Squares are summed in
    ``vec_norm``'s order, a square that overflows reading inf, and ``min``
    takes the pairs of the list P, X, Z in order, so the bits, a NaN
    included, are the generic cross product's."""
    sqrt, sq = math.sqrt, kernels.square_modulus
    hh, xx, ss = ([sq(z) for z in r] for r in (h, xi, s))
    nh, nx, ns = ([sqrt(a + 1.0) for a in r] for r in (hh, xx, ss))
    d = []
    for i, (p, a, n) in enumerate(zip(h, hh, nh)):
        d += [sqrt(sq(h[j] - p)) / (n * nh[j]) for j in range(i + 1, 3)]
        d += [sqrt(1.0 + a + b) / (n * m) for b, m in zip(xx, nx)]
        d += [sqrt(1.0 + a + sq(p * t)) / (n * m) for t, m in zip(s, ns)]
    for i, (x, a, n) in enumerate(zip(xi, xx, nx)):
        d += [sqrt(sq(xi[j] - x)) / (n * nx[j]) for j in range(i + 1, 3)]
        d += [sqrt(b + a + sq(x * t)) / (n * m)
              for t, b, m in zip(s, ss, ns)]
    d += [sqrt(sq(s[j] - s[i])) / (ns[i] * ns[j])
          for i in range(3) for j in range(i + 1, 3)]
    return min(d)


def forward(pair: MatrixPair) -> Forward:
    """Map the pair forward once, stage by stage, with the margin of every
    general-position check; never raises a GeneralPositionError.

    The stages and hard checks are ``spectral_data``'s, then the normal
    form and the axis points, which only report; a failed determinant check
    stops none.  A stage that raises fails the first check not yet recorded
    in ``_STAGE_ORDER``, with the error code as its note and the ``ratio``
    of its detail, if any, as its margin; after ``spectral_data``'s, the
    later checks are "unavailable".  After a failed determinant check, an
    overflow or a non-finite entry in a later stage (an ``ArithmeticError``
    or ``ValueError`` with no code) counts as that determinant error, the
    one ``spectral_data`` raises first; without one, it propagates.
    """
    checks: dict[str, PositionCheck] = {}
    errors: list[GeneralPositionError] = []

    def add(name, margin, note=""):
        threshold = _CHECKS[name][0]
        checks[name] = PositionCheck(name, margin is not None and margin > threshold,
                                     margin, threshold, note)

    def failed(name, exc):
        # an uncoded error counts as the first determinant error, if any
        if not isinstance(exc, GeneralPositionError):
            if not errors:
                raise exc
            exc = errors[0]
        add(name, exc.detail.get("ratio"), exc.code)

    def done(np=None, sd=None, w=None) -> Forward:
        for name in _STAGE_ORDER[len(checks):]:
            add(name, None, "unavailable")
        report = GeneralPositionReport(tuple(map(checks.get, _CHECK_NAMES)))
        if errors:
            return Forward(pair, report, None, None, errors[0])
        return Forward(pair, report, np, sd, None, w)

    for name, m in (("A", pair.a), ("B", pair.b)):
        try:
            nonsingular_det(m.entries, name)
        except SingularMatrix as exc:
            errors.append(exc)
        add("determinant_" + name.lower(), _determinant_margin(m.entries))

    a, b = pair.a.entries, pair.b.entries
    try:
        h, w = _first_left_eigen(pair.a)
        sep, scale = separation(h)
        add("eigenvalue_separation", sep / scale)
        divisor, margin = _divisor(a, b, w, h)
        add("divisor_denominator", margin)
        sd, residual = _validated(SpectralData(h, _coefficients(a, b), divisor))
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        if isinstance(exc, GeneralPositionError):
            errors.append(exc)
        failed(_STAGE_ORDER[len(checks)], exc)
        return done()
    add("divisor_on_curve", _CHECKS["divisor_on_curve"][1] - residual)

    try:
        np, ratio = _normal_form(pair, h)
        add("gauge_entries", ratio)
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        np = None
        failed("gauge_entries", exc)

    c = sd.coeffs
    try:
        xi = solve_cubic(CubicPoly(1.0, -c.q_plus, c.q_minus, -c.d2))
        lam0 = solve_cubic(CubicPoly(c.d1, c.r_plus, c.r_minus, c.d2))
        add("axis_point_separation", _axis_point_separation(h, xi, lam0))
    except GeneralPositionError as exc:
        add("axis_point_separation", None, exc.code)
    return done(np, sd, w)


def general_position_report(pair: MatrixPair) -> GeneralPositionReport:
    """Every general-position check with its margin; never raises a
    GeneralPositionError.

    Each of the seven checks appears once, in ``forward``'s order of
    stages.  A stage that raises fails its check with the error code as its
    note, and the checks after it are "unavailable" (``forward`` gives the
    rule).  The determinant checks only report: a singular A or B does not
    stop the later checks.
    """
    return forward(pair).report
