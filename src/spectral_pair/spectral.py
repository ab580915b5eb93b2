"""Forward map: matrix pair -> normalized gauge -> curve coefficients and
divisor point.

A pair (A, B) of nondegenerate 3x3 matrices, taken up to simultaneous
conjugation, determines a plane cubic det(lam + mu*A + nu*B) = 0 together
with a distinguished point on it.  With A's eigenvalues ordered and B's
matrix U in the eigenbasis gauge-fixed to u12 = u13 = 1, both become
explicit closed forms in (h, U).
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter
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
    check_finite,
    det3,
    eig3,
    nonsingular_det,
    separation,
    solve_cubic,
)


class MatrixPair(NamedTuple):
    """Raw input: two nondegenerate 3x3 matrices, considered up to
    simultaneous conjugation."""

    a: Mat3
    b: Mat3


#: ``eig3``'s result: the eigenvalues in canonical order and their vectors
Eigen = tuple[Vec3, tuple[Vec3, Vec3, Vec3]]


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
#: threshold): a margin passes above the first; the stage that tests the
#: same float raises at the second, None where no stage here does.  The
#: ``divisor_on_curve`` margin is the hard threshold minus the residual.
_CHECKS = {
    "determinant_a": (MARGIN_DETERMINANT, None),
    "determinant_b": (MARGIN_DETERMINANT, None),
    "eigenvalue_separation": (MARGIN_EIGENVALUE_SEPARATION, None),
    "gauge_entries": (MARGIN_GAUGE, GAUGE),
    "divisor_denominator": (MARGIN_DIVISOR_DENOMINATOR, DIVISOR_DENOMINATOR),
    "divisor_on_curve": (0.0, ON_CURVE),
    "axis_point_separation": (MARGIN_AXIS_POINT_SEPARATION, None),
}
_CHECK_NAMES = tuple(_CHECKS)


def normalize_pair(pair: MatrixPair) -> NormalizedPair:
    """Diagonalize the first matrix and gauge-fix the second.

    Eigenvalues are in canonical order.  The residual diagonal-conjugation
    freedom is killed by rescaling so the (1,2) and (1,3) entries of the
    second matrix become exactly 1; the result is then a complete invariant
    of the simultaneous-conjugation class.
    """
    return _normalized(pair)[0]


def _normalized(pair: MatrixPair) -> tuple[NormalizedPair, Eigen]:
    """``normalize_pair`` with the eigendecomposition of A that it took."""
    nonsingular_det(pair.a.entries, "A")
    nonsingular_det(pair.b.entries, "B")
    eigen = eig3(pair.a)
    return _normalized_in(eigen, pair.b), eigen


def _normalized_in(eigen: Eigen, b: Mat3) -> NormalizedPair:
    """The pair (A, ``b``) normalized in ``eigen``, the eigendecomposition
    of an A that passed its determinant test; the caller tests ``b``'s."""
    values, vectors = eigen
    return _gauge_fix(values, _in_eigenbasis(b, vectors))[0]


def _spectral_data_in(eigen: Eigen, pair: MatrixPair) -> SpectralData:
    """``spectral_data(pair)`` for a pair whose A passed its determinant
    test and decomposed as ``eigen``: the same stages and errors, without
    testing or decomposing A again."""
    nonsingular_det(pair.b.entries, "B")
    return spectral_data_of_normalized(_normalized_in(eigen, pair.b))


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
    if ratio <= _CHECKS["gauge_entries"][1]:
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


def curve_coefficients(np: NormalizedPair) -> CurveCoefficients:
    """The nine cubic coefficients as closed forms in (h, U).

    Convention (verified against direct trilinear expansion of the
    determinant): det(lam + mu*diag(h) + nu*U) expands with all plus signs.
    """
    h1, h2, h3 = np.h
    u11, u12, u13, u21, u22, u23, u31, u32, u33 = np.u.entries
    # the 2x2 principal minors on rows/columns (1,2), (1,3), (2,3)
    m12 = u11 * u22 - u12 * u21
    m13 = u11 * u33 - u13 * u31
    m23 = u22 * u33 - u23 * u32
    return CurveCoefficients(
        d1=h1 * h2 * h3,
        d2=det3(np.u),
        p_plus=h1 + h2 + h3,
        p_minus=h1 * h2 + h1 * h3 + h2 * h3,
        q_plus=u11 + u22 + u33,
        q_minus=m12 + m13 + m23,
        r_plus=h1 * h2 * u33 + h1 * h3 * u22 + h2 * h3 * u11,
        r_minus=h3 * m12 + h2 * m13 + h1 * m23,
        t=(h1 + h2) * u33 + (h1 + h3) * u22 + (h2 + h3) * u11,
    )


def divisor_point(np: NormalizedPair) -> DivisorPoint:
    """The third zero (L : M : 1) of the first-coordinate section.

    At this point the pencil matrix lam + mu*diag(h) + nu*U has a kernel
    vector with vanishing first coordinate; the other two zeros are the
    fixed points (h2 : -1 : 0) and (h3 : -1 : 0).  Sign convention: the
    mu-coordinate carries denominator (h2 - h3), fixed here by the on-curve
    and kernel checks.
    """
    return _divisor_point(np)[0]


def _divisor_point(np: NormalizedPair) -> tuple[DivisorPoint, float]:
    """``divisor_point`` and the ratio that it tests, |u12 u13 (h3 - h2)|
    over max(1, max|h_i|) max(1, |U|)^2."""
    h1, h2, h3 = np.h
    _, u12, u13, _, u22, u23, _, u32, u33 = np.u.entries
    den = u12 * u13 * (h3 - h2)
    ratio = abs(den) / (max(1.0, abs(h1), abs(h2), abs(h3))
                        * max(1.0, kernels.frob3(np.u.entries)) ** 2)
    if ratio <= _CHECKS["divisor_denominator"][1]:
        raise DegenerateDivisor("divisor denominator u12*u13*(h3 - h2) is negligible",
                                denominator=abs(den), ratio=ratio)
    det_a = u12 * u23 - u13 * u22   # rows (1,2) of the pencil minors
    det_b = u12 * u33 - u13 * u32   # rows (1,3)
    l_val = (u12 * h3 * det_a + u13 * h2 * det_b) / den
    m_val = -(u12 * det_a + u13 * det_b) / den
    return DivisorPoint(l_val, m_val), ratio


def spectral_data_of_normalized(np: NormalizedPair) -> SpectralData:
    return _validated(
        SpectralData(np.h, curve_coefficients(np), _divisor_point(np)[0]))[0]


def spectral_data(pair: MatrixPair) -> SpectralData:
    """Full forward map; invariant under simultaneous conjugation."""
    return spectral_data_of_normalized(normalize_pair(pair))


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
    and the divisor point lies on the curve.  Data is checked in full where
    it enters (a document, ``canonical_form``) or where a formula produced
    it (the actions, a relisting that permutes h); the forward map checks
    only the divisor point (``_validated``)."""
    h1, h2, h3 = sd.h
    c = sd.coeffs
    pairs = (
        ("p_plus", h1 + h2 + h3, c.p_plus),
        ("p_minus", h1 * h2 + h1 * h3 + h2 * h3, c.p_minus),
        ("d1", h1 * h2 * h3, c.d1),
    )
    for name, lhs, rhs in pairs:
        try:
            scale = max(1.0, abs(lhs), abs(rhs))
            diff = abs(lhs - rhs)
        except OverflowError:
            scale = diff = math.inf
        # as in ``curve_residual``, a scale that overflows certifies nothing
        if scale == math.inf or not diff <= SYMMETRIC_FUNCTIONS * scale:
            raise InvariantViolation(
                f"eigenvalues do not match coefficient {name}",
                component=name,
                residual=math.inf if scale == math.inf else diff / scale)
    return _validated(sd)[0]


def _validated(sd: SpectralData) -> tuple[SpectralData, float]:
    """``sd`` once its divisor point lies on the curve, with the residual
    it tests.  ``curve_coefficients`` computes (p_plus, p_minus, d1) as h's
    symmetric functions, which ``eig3`` keeps finite, so the forward map
    checks nothing more."""
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
    first in its order of stages, or None; ``np``, ``sd`` and ``eigen``
    are the normalized pair, the spectral data and A's eigendecomposition
    when ``error`` is None, and None otherwise.
    """

    pair: MatrixPair
    report: GeneralPositionReport
    np: NormalizedPair | None
    sd: SpectralData | None
    error: GeneralPositionError | None
    eigen: Eigen | None = None


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

    The stages and their hard checks are ``spectral_data``'s.  A failed
    determinant check does not stop the later stages.  A stage that raises
    fails the first check not yet recorded, with the error code as its note
    and the ``ratio`` of its detail, if any, as its margin; the checks after
    it are "unavailable".  After a failed determinant check, an overflow or
    a non-finite entry in a later stage (an ``ArithmeticError`` or
    ``ValueError`` with no code) counts as that determinant error, the one
    ``spectral_data`` raises first; without one, it propagates.
    """
    checks: list[PositionCheck] = []
    errors: list[GeneralPositionError] = []

    def add(name, margin, note=""):
        threshold = _CHECKS[name][0]
        checks.append(PositionCheck(name, margin is not None and margin > threshold,
                                    margin, threshold, note))

    def done(np=None, sd=None, eigen=None) -> Forward:
        for name in _CHECK_NAMES[len(checks):]:
            add(name, None, "unavailable")
        report = GeneralPositionReport(tuple(checks))
        if errors:
            return Forward(pair, report, None, None, errors[0])
        return Forward(pair, report, np, sd, None, eigen)

    for name, m in (("A", pair.a), ("B", pair.b)):
        try:
            nonsingular_det(m.entries, name)
        except SingularMatrix as exc:
            errors.append(exc)
        add("determinant_" + name.lower(), _determinant_margin(m.entries))

    try:
        eigen = values, vectors = eig3(pair.a)
        sep, scale = separation(values)
        add("eigenvalue_separation", sep / scale)
        np, ratio = _gauge_fix(values, _in_eigenbasis(pair.b, vectors))
        add("gauge_entries", ratio)
        divisor, ratio = _divisor_point(np)
        add("divisor_denominator", ratio)
        sd, residual = _validated(
            SpectralData(np.h, curve_coefficients(np), divisor))
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        if isinstance(exc, GeneralPositionError):
            errors.append(exc)
        elif errors:
            exc = errors[0]
        else:
            raise
        add(_CHECK_NAMES[len(checks)], exc.detail.get("ratio"), exc.code)
        return done()
    add("divisor_on_curve", _CHECKS["divisor_on_curve"][1] - residual)

    c = sd.coeffs
    try:
        xi = solve_cubic(CubicPoly(1.0, -c.q_plus, c.q_minus, -c.d2))
        lam0 = solve_cubic(CubicPoly(c.d1, c.r_plus, c.r_minus, c.d2))
    except GeneralPositionError as exc:
        add("axis_point_separation", None, exc.code)
    else:
        add("axis_point_separation", _axis_point_separation(np.h, xi, lam0))
    return done(np, sd, eigen)


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
