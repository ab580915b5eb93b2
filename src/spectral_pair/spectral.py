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
from operator import mul, truediv
from typing import NamedTuple

from . import _kernels_py as kernels
from .config import (
    DIVISOR_DENOMINATOR,
    GAUGE,
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
    Mat3,
    Vec3,
    _TRANSPOSE,
    _UNIT,
    check_finite,
    check_nonsingular,
    eig3,
    eigenvalues,
    eigenvector,
    inverse_entries,
    nonsingular_det,
    separation,
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


#: every check of the report, in the order ``forward`` runs their stages,
#: with (report threshold, hard threshold): a margin passes above the first;
#: the stage of ``spectral_data`` that tests the same float raises at the
#: second, None where none does.  The ``divisor_on_curve`` margin is the hard
#: threshold minus the residual.  A determinant margin is |d| / |M|^3 of the
#: d1 or d2 and |M| that ``check_nonsingular`` compares by SINGULAR, 0 where
#: the cube is 0 or overflows.
_CHECKS = {
    "determinant_a": (MARGIN_DETERMINANT, None),
    "determinant_b": (MARGIN_DETERMINANT, None),
    "eigenvalue_separation": (MARGIN_EIGENVALUE_SEPARATION, None),
    "divisor_denominator": (MARGIN_DIVISOR_DENOMINATOR, DIVISOR_DENOMINATOR),
    "divisor_on_curve": (0.0, ON_CURVE),
    "gauge_entries": (MARGIN_GAUGE, None),
}
_CHECK_NAMES = tuple(_CHECKS)


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
    eigenbasis V whose columns are ``vectors``, checked to be finite."""
    (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = vectors
    v = (x0, y0, z0, x1, y1, z1, x2, y2, z2)
    v_inv = inverse_entries(v, nonsingular_det(v))
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


def _divisor(a, b, w=_UNIT[0], h=None, norm=None) -> tuple[DivisorPoint, float]:
    """The divisor point (L : M : 1) of the pair with flat entries ``a`` and
    ``b``, for A's unit left eigenvector w at the eigenvalue listed first
    (e_k for a diagonal A whose k-th entry it is), and the margin it tests;
    h, A's eigenvalues, when w was computed, and ``norm``, |A|, when the
    caller has taken it.

    There the pencil's kernel vector k has w^T k = 0, its first coordinate
    in A's eigenbasis.  With p the place of w's largest entry and j, k the
    others, k = y1 q_j + y2 q_k for q_c = w_p e_c - w_c e_p, and w^T B k = 0
    gives y = (g_k, -g_j), g_c = w^T B q_c, here over its larger entry.
    Rows j and k of (L + M A + B) k = 0 are a 2x2 system; its determinant,
    u12 u13 (h2 - h3) up to scale in the normal form, over |y|^2 |A| is the
    scale-free margin, 0 for y = 0.  A computed w, and the point with it,
    loses 1/g^2 for h1's relative gap g = min(|h1 - h2|, |h1 - h3|, max|h|)
    / max|h|, so the margin is then multiplied by g^2; e_k loses nothing."""
    p = (sizes := tuple(map(abs, w))).index(max(sizes))
    j, k = (1, 2) if p == 0 else (0, 3 - p)   # the other two places
    (w0, w1, w2), wp, wj, wk = w, w[p], w[j], w[k]
    # w^T B at places p, j and k
    rp = w0 * b[p] + w1 * b[3 + p] + w2 * b[6 + p]
    rj = w0 * b[j] + w1 * b[3 + j] + w2 * b[6 + j]
    rk = w0 * b[k] + w1 * b[3 + k] + w2 * b[6 + k]
    gj, gk = wp * rj - wj * rp, wp * rk - wk * rp
    big = gj if abs(gj) > abs(gk) else gk
    y1, y2 = (gk / big, -gj / big) if big else (0.0, 0.0)
    # k at places j, k and p, then rows j and k of A k and B k
    kj, kk, kp = wp * y1, wp * y2, -(wj * y1 + wk * y2)
    oj, ok = 3 * j, 3 * k   # where rows j and k start
    aj = a[oj + j] * kj + a[oj + k] * kk + a[oj + p] * kp
    ak = a[ok + j] * kj + a[ok + k] * kk + a[ok + p] * kp
    bj = b[oj + j] * kj + b[oj + k] * kk + b[oj + p] * kp
    bk = b[ok + j] * kj + b[ok + k] * kk + b[ok + p] * kp
    det = kj * ak - kk * aj
    norm = kernels.frob3(a) if norm is None else norm
    scale = (y1 * y1.conjugate() + y2 * y2.conjugate()).real * norm
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


def _spectral(pair: MatrixPair, known=None, report=None) -> tuple[SpectralData, Vec3]:
    """``spectral_data`` and the w it took, each invariant formed once: the
    determinants tested are d1 and d2, the first-row expansions of adj A and
    adj B (det3's bits but for the sign of a zero, which the test does not
    see), and |A| serves A's test and the divisor.  ``known``, the (h, w) of
    an A that passed its test, skips it and A's decomposition.  ``forward``'s
    ``report`` records each margin, and a failed determinant test unraised."""
    a, b = pair.a.entries, pair.b.entries
    c, norm = _coefficients(a, b), kernels.frob3(a)
    test = check_nonsingular if report is None else report.determinant
    if known is None:
        test(c.d1, norm, "A")
    test(c.d2, kernels.frob3(b), "B")
    h = known[0] if known else eigenvalues(pair.a)
    w = known[1] if known else eigenvector(pair.a, h[0], left=True)
    if report is None:   # validated under the name the benchmark's tracer times
        return validate_spectral_data(
            SpectralData(h, c, _divisor(a, b, w, h, norm)[0])), w
    report.add("eigenvalue_separation", truediv(*separation(h)))
    divisor, margin = _divisor(a, b, w, h, norm)
    report.add("divisor_denominator", margin)
    sd, residual = _validated(SpectralData(h, c, divisor))
    report.add("divisor_on_curve", _CHECKS["divisor_on_curve"][1] - residual)
    return sd, w


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
    e1, e2, e3 = h1 + h2 + h3, h1 * h2 + h1 * h3 + h2 * h3, h1 * h2 * h3
    p1, p2, p3 = c.p_plus, c.p_minus, c.d1
    # each scale floored at 1, or at e_k(h)'s own scale max|h|^k below it;
    # where a modulus overflows, all are taken again, that one reading inf
    try:
        f = min(1.0, max(abs(h1), abs(h2), abs(h3)))
        r1, s1 = abs(e1 - p1), max(f, abs(e1), abs(p1))
        r2, s2 = abs(e2 - p2), max(f * f, abs(e2), abs(p2))
        r3, s3 = abs(e3 - p3), max(f * f * f, abs(e3), abs(p3))
    except OverflowError:
        m = kernels.modulus
        f = min(1.0, max(m(h1), m(h2), m(h3)))
        r1, s1 = m(e1 - p1), max(f, m(e1), m(p1))
        r2, s2 = m(e2 - p2), max(f * f, m(e2), m(p2))
        r3, s3 = m(e3 - p3), max(f * f * f, m(e3), m(p3))
    # as in ``curve_residual``, a scale that overflows certifies nothing
    inf, tol = math.inf, SYMMETRIC_FUNCTIONS
    if not (r1 <= tol * s1 < inf and r2 <= tol * s2 < inf and r3 <= tol * s3 < inf):
        for name, diff, scale in ("p_plus", r1, s1), ("p_minus", r2, s2), ("d1", r3, s3):
            if not diff <= tol * scale < inf:
                raise InvariantViolation(
                    f"eigenvalues do not match coefficient {name}", component=name,
                    residual=inf if scale == inf else diff / scale)
    residual = curve_residual(c, sd.divisor.L, sd.divisor.M, 1.0)
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
    tested, and the determinants' are formed from the floats their test
    holds.  ``error`` is the error ``spectral_data(pair)`` raises, the
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


def forward(pair: MatrixPair) -> Forward:
    """Map the pair forward once, with the margin of every general-position
    check; never raises a GeneralPositionError.

    ``_spectral`` runs the stages and hard checks of ``spectral_data`` and
    records their margins, a failed determinant check stopping none; the
    normal form follows, and only reports.  A stage that raises fails the
    next check of ``_CHECKS``, which lists them in the order of the stages,
    with the error code as its note and the ``ratio`` of its detail, if
    any, as its margin; the later checks are "unavailable".  After a
    failed determinant check, an overflow or a non-finite entry in a later
    stage (an ``ArithmeticError`` or ``ValueError`` with no code) counts as
    that determinant error, the one ``spectral_data`` raises first; without
    one, it propagates."""
    report = _Report(pair)
    try:
        sd, w = _spectral(pair, report=report)
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        if isinstance(exc, GeneralPositionError):
            report.errors.append(exc)
        return report.failed(exc).done()

    np = None
    try:
        np, ratio = _normal_form(pair, sd.h)
        report.add("gauge_entries", ratio)
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        report.failed(exc)
    return report.done(np, sd, w)


class _Report:
    """``forward``'s checks by name, each recorded as its stage passes or
    fails, and the errors ``spectral_data`` raises, in its order."""

    def __init__(self, pair: MatrixPair):
        self.pair, self.checks, self.errors = pair, {}, []

    def add(self, name, margin, note=""):
        threshold = _CHECKS[name][0]
        self.checks[name] = PositionCheck(
            name, margin is not None and margin > threshold, margin, threshold, note)

    def determinant(self, det, norm, which):
        # ``check_nonsingular``, its error recorded, with the margin
        # |det| / |M|^3 of the floats it tested; as in ``curve_residual``, a
        # scale that overflows certifies nothing, nor does one that is 0
        try:
            check_nonsingular(det, norm, which)
        except SingularMatrix as exc:
            self.errors.append(exc)
        cube = norm * norm * norm
        self.add("determinant_" + which.lower(),
                 abs(det) / cube if 0.0 < cube < math.inf else 0.0)

    def failed(self, exc) -> "_Report":
        # an uncoded error counts as the first determinant error, if any
        if not isinstance(exc, GeneralPositionError):
            if not self.errors:
                raise exc
            exc = self.errors[0]
        self.add(_CHECK_NAMES[len(self.checks)], exc.detail.get("ratio"), exc.code)
        return self

    def done(self, np=None, sd=None, w=None) -> Forward:
        for name in _CHECK_NAMES[len(self.checks):]:
            self.add(name, None, "unavailable")
        report = GeneralPositionReport(tuple(self.checks.values()))
        if self.errors:
            return Forward(self.pair, report, None, None, self.errors[0])
        return Forward(self.pair, report, np, sd, None, w)


def general_position_report(pair: MatrixPair) -> GeneralPositionReport:
    """Every general-position check with its margin; never raises a
    GeneralPositionError.

    Each of the six checks appears once, in the order its stage runs.  A
    stage that raises fails its check with the error code as its note, and
    the checks after it, the last ones, are "unavailable" (``forward``
    gives the rule).  The determinant checks only report: a singular A or B
    does not stop the later checks.
    """
    return forward(pair).report
