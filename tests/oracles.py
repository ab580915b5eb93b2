"""Independent oracles used by the tests.

Everything here recomputes expected values by a route disjoint from the
library code under test: symbolic trivariate expansion for the curve
coefficients, direct minor equations for the divisor point, a free-group
word engine for the generator actions, and brute-force root matching.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

from spectral_pair import (
    CoincidentPoints,
    CubicPoly,
    DegenerateDivisor,
    DegenerateLeadingCoefficient,
    GaugeDegenerate,
    GeneralPositionError,
    GeneralPositionReport,
    InputsNotIncident,
    LineOnCurve,
    Mat3,
    NormalizedPair,
    act_spectral,
    canonical_form,
    curve_residual,
    det3,
    eig3,
    inv3,
    kernel_vector,
    reconstruct,
    solve_cubic,
    spectral_data,
    spectral_data_of_normalized,
)
from spectral_pair import _kernels_py as kernels
from spectral_pair._kernels_py import vec_norm
from spectral_pair.config import (
    DEFLATION,
    GAUGE,
    INCIDENCE,
    MARGIN_AXIS_POINT_SEPARATION,
    MARGIN_DETERMINANT,
    MARGIN_DIVISOR_DENOMINATOR,
    MARGIN_EIGENVALUE_SEPARATION,
    MARGIN_GAUGE,
    ON_CURVE,
    THIRD_POINT_ON_CURVE,
)
from spectral_pair.cubic import _cross
from spectral_pair.linalg import separation
from spectral_pair.spectral import PositionCheck, _gauge_fix, _in_eigenbasis

# --- trivariate polynomials as {(i, j, k): coeff} for lam^i mu^j nu^k ---


def poly_const(c):
    return {(0, 0, 0): c} if c != 0 else {}


def poly_add(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c != 0}


def poly_mul(p, q):
    out = {}
    for (i1, j1, k1), c1 in p.items():
        for (i2, j2, k2), c2 in q.items():
            key = (i1 + i2, j1 + j2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def pencil_entry(i, j, h, u):
    """Entry (i, j) of lam*I + mu*diag(h) + nu*U as a trivariate polynomial."""
    poly = {(0, 0, 1): u[i, j]}
    if i == j:
        poly[(1, 0, 0)] = 1.0
        poly[(0, 1, 0)] = h[i]
    return poly


def pencil_determinant(h, u):
    """Leibniz expansion of the 3x3 determinant of the pencil, collected by
    monomial; completely independent of the cofactor code paths."""
    total = {}
    for perm in itertools.permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        term = poly_const(sign)
        for row in range(3):
            term = poly_mul(term, pencil_entry(row, perm[row], h, u))
        total = poly_add(total, term)
    return total


MONOMIALS = {
    "lam3": (3, 0, 0),
    "d1": (0, 3, 0),
    "d2": (0, 0, 3),
    "p_plus": (2, 1, 0),
    "p_minus": (1, 2, 0),
    "q_plus": (2, 0, 1),
    "q_minus": (1, 0, 2),
    "r_plus": (0, 2, 1),
    "r_minus": (0, 1, 2),
    "t": (1, 1, 1),
}


def expanded_coefficients(h, u) -> dict[str, complex]:
    det = pencil_determinant(h, u)
    out = {name: det.pop(key, 0.0) for name, key in MONOMIALS.items()}
    assert not det, f"unexpected monomials in pencil determinant: {det}"
    return out


# --- divisor point by solving the two minor equations directly ---


def divisor_by_minor_equations(h, u):
    """Solve the rank-1 conditions at nu = 1 as a 2x2 linear system in
    (lam, mu); this never touches the closed-form divisor expressions.

        u12 u23 - u13 (lam + mu h2 + u22) = 0
        u12 (lam + mu h3 + u33) - u13 u32 = 0
    """
    u12, u13 = u[0, 1], u[0, 2]
    # rows: a11 lam + a12 mu = b1 ; a21 lam + a22 mu = b2
    a11, a12, b1 = -u13, -u13 * h[1], u13 * u[1, 1] - u12 * u[1, 2]
    a21, a22, b2 = u12, u12 * h[2], u13 * u[2, 1] - u12 * u[2, 2]
    det = a11 * a22 - a12 * a21
    lam = (b1 * a22 - b2 * a12) / det
    mu = (a11 * b2 - a21 * b1) / det
    return lam, mu


# --- exact Gaussian rationals, for identities at random points ---


def gaussian(x) -> "GaussianRational":
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


class GaussianRational:
    """re + im i with ``Fraction`` parts; ints and floats mix in as reals.
    Enough arithmetic for the closed forms and the oracles above to run
    exactly."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    def __add__(self, o):
        o = gaussian(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, o):
        return self + -gaussian(o)

    def __mul__(self, o):
        o = gaussian(o)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = gaussian(o)
        n = o.re * o.re + o.im * o.im
        return self * GaussianRational(o.re / n, -o.im / n)

    def __pow__(self, k: int):
        return math.prod([self] * k, start=GaussianRational(1))

    def __eq__(self, o):
        o = gaussian(o)
        return (self.re, self.im) == (o.re, o.im)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, o):
        return gaussian(o) - self

    def __rtruediv__(self, o):
        return gaussian(o) / self

    def __abs__(self) -> float:
        """The modulus as a float, as the package's scale tests take it."""
        return math.hypot(self.re, self.im)


def random_exact_normalized_pair(rng):
    """(h, U) with seeded Gaussian-rational entries, U gauge-fixed
    (u12 = u13 = 1) and indexed as U[i, j]."""
    def draw():
        return GaussianRational(Fraction(rng.randint(-60, 60), rng.randint(1, 30)),
                                Fraction(rng.randint(-60, 60), rng.randint(1, 30)))

    h = (draw(), draw(), draw())
    u = {(i, j): draw() for i in range(3) for j in range(3)}
    u[0, 1] = u[0, 2] = GaussianRational(1)
    return h, u


# --- free group on two generators: words as tuples of +-1, +-2 ---


def w_reduce(word):
    out = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def w_mul(*words):
    out = []
    for w in words:
        for letter in w:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
    return tuple(out)


def w_inv(word):
    return tuple(-letter for letter in reversed(word))


# images of (c1, c2) under the three generator substitutions
SUBSTITUTIONS = {
    "S": ((2,), (1,)),
    "I": ((-1,), (2,)),
    "T": ((1,), (1, 2)),
}


def substitute(word, images):
    out = ()
    for letter in word:
        img = images[abs(letter) - 1]
        out = w_mul(out, img if letter > 0 else w_inv(img))
    return out


def word_images(generator_letters):
    """Images of (c1, c2) after applying the letters left to right, matching
    how a word acts on a matrix pair."""
    images = ((1,), (2,))
    for letter in generator_letters:
        sub = SUBSTITUTIONS[letter]
        images = (substitute(sub[0], images), substitute(sub[1], images))
    return images


def exponent_sums(word):
    e1 = sum(1 if letter == 1 else -1 for letter in word if abs(letter) == 1)
    e2 = sum(1 if letter == 2 else -1 for letter in word if abs(letter) == 2)
    return e1, e2


def evaluate_word_at(word, a: Mat3, b: Mat3, inv) -> Mat3:
    """Evaluate a free word at concrete matrices (inv is an inverter)."""
    out = Mat3.identity()
    mats = {1: a, -1: inv(a), 2: b, -2: inv(b)}
    for letter in word:
        out = out @ mats[letter]
    return out


# --- canonical form by the full forward map ---


def canonical_form_by_forward_map(sd):
    """Canonical ordering by reconstructing the pair and running the whole
    forward map again, eigensolve included; the permutation route in
    ``canonical_form`` must agree with it."""
    return spectral_data(reconstruct(sd).as_pair())


# --- a word relisted after every letter ---


def act_word_spectral_relisting_each_step(word, sd):
    """``act_word_spectral`` with a ``canonical_form`` after every letter,
    not only after the last; the formulas take any ordering the data
    carries, so the two must agree to round-off."""
    current = canonical_form(sd)
    for g in word:
        current = canonical_form(act_spectral(g, current))
    return current


# --- a property's running maxima as a plain loop ---


def record_by_loop(result, seed: int, residuals: dict[str, float]) -> None:
    """``PropertyResult.record`` one comparison at a time, with NaN above
    every number: the seed's worst residual starts at its first value, a
    NaN residual becomes the maximum unless one already is, and a
    component enters ``per_component`` when it first exceeds 0 or is
    NaN, and never falls back from NaN."""
    result.seeds_run += 1
    values = list(residuals.values())
    worst = values[0] if values else 0.0
    for v in values[1:]:
        if math.isnan(v) or v > worst:
            worst = v
    if math.isnan(worst):
        if not math.isnan(result.max_residual):
            result.max_residual, result.worst_seed = worst, seed
    elif worst >= result.max_residual:
        result.max_residual, result.worst_seed = worst, seed
    for k, v in residuals.items():
        if math.isnan(v) or v > result.per_component.get(k, 0.0):
            result.per_component[k] = v


# --- the Frobenius norm as a running sum ---


def frob3_by_loop(m) -> float:
    """|M| with the squared moduli added one entry at a time to 0.0, the
    order ``_kernels_py.frob3`` must keep."""
    s = 0.0
    for z in m:
        s += z.real * z.real + z.imag * z.imag
    return math.sqrt(s)


# --- the other kernels as plain subscripted formulas ---
#
# Each is the earlier formulation of its ``_kernels_py`` kernel, on
# subscripts, float squares and Python loops; the kernel must give the same
# bits, or raise the same error.


def det3_by_subscripts(m):
    return (m[0] * (m[4] * m[8] - m[5] * m[7])
            - m[1] * (m[3] * m[8] - m[5] * m[6])
            + m[2] * (m[3] * m[7] - m[4] * m[6]))


def adj3_by_subscripts(m):
    return (
        m[4] * m[8] - m[5] * m[7],
        m[2] * m[7] - m[1] * m[8],
        m[1] * m[5] - m[2] * m[4],
        m[5] * m[6] - m[3] * m[8],
        m[0] * m[8] - m[2] * m[6],
        m[2] * m[3] - m[0] * m[5],
        m[3] * m[7] - m[4] * m[6],
        m[1] * m[6] - m[0] * m[7],
        m[0] * m[4] - m[1] * m[3],
    )


def matmul3_by_subscripts(a, b):
    return (
        a[0] * b[0] + a[1] * b[3] + a[2] * b[6],
        a[0] * b[1] + a[1] * b[4] + a[2] * b[7],
        a[0] * b[2] + a[1] * b[5] + a[2] * b[8],
        a[3] * b[0] + a[4] * b[3] + a[5] * b[6],
        a[3] * b[1] + a[4] * b[4] + a[5] * b[7],
        a[3] * b[2] + a[4] * b[5] + a[5] * b[8],
        a[6] * b[0] + a[7] * b[3] + a[8] * b[6],
        a[6] * b[1] + a[7] * b[4] + a[8] * b[7],
        a[6] * b[2] + a[7] * b[5] + a[8] * b[8],
    )


def matvec3_by_subscripts(m, v):
    return (
        m[0] * v[0] + m[1] * v[1] + m[2] * v[2],
        m[3] * v[0] + m[4] * v[1] + m[5] * v[2],
        m[6] * v[0] + m[7] * v[1] + m[8] * v[2],
    )


def eval_curve9_by_subscripts(c, lam, mu, nu):
    return (lam * lam * lam
            + c[0] * mu * mu * mu
            + c[1] * nu * nu * nu
            + c[2] * lam * lam * mu
            + c[3] * lam * mu * mu
            + c[4] * lam * lam * nu
            + c[5] * lam * nu * nu
            + c[6] * mu * mu * nu
            + c[7] * mu * nu * nu
            + c[8] * lam * mu * nu)


def vec_norm_by_square_modulus(v):
    """Each square through ``square_modulus``, which reads an overflow as
    inf."""
    return math.sqrt(kernels.square_modulus(v[0]) + kernels.square_modulus(v[1])
                     + kernels.square_modulus(v[2]))


def kernel_vector3_by_loops(m):
    f = frob3_by_loop(m)
    if f == 0.0:
        return (0j, 0j, 0j), 0.0, 0.0, 0.0
    adj = adj3_by_subscripts(m)
    dm = abs(m[0] * adj[0] + m[1] * adj[3] + m[2] * adj[6]) / (f * f * f)
    max_minor = 0.0
    for z in adj:
        az = abs(z)
        if az > max_minor:
            max_minor = az
    mm = max_minor / (f * f)
    best, best_n2 = 0, -1.0
    for j in range(3):
        col = (adj[j], adj[3 + j], adj[6 + j])
        try:
            n2 = (col[0].real ** 2 + col[0].imag ** 2
                  + col[1].real ** 2 + col[1].imag ** 2
                  + col[2].real ** 2 + col[2].imag ** 2)
        except OverflowError:
            n2 = math.inf
        if n2 > best_n2:
            best, best_n2 = j, n2
    if best_n2 <= 0.0:
        return (0j, 0j, 0j), 1.0, dm, mm
    if best_n2 == math.inf:
        return (0j, 0j, 0j), math.inf, dm, mm
    inv_n = 1.0 / math.sqrt(best_n2)
    v = (adj[best] * inv_n, adj[3 + best] * inv_n, adj[6 + best] * inv_n)
    return (v, vec_norm_by_square_modulus(matvec3_by_subscripts(m, v)) / f,
            dm, mm)


def solve_cubic_by_newton_loop(c3, c2, c1, c0):
    """Cardano as ``solve_cubic_raw`` takes it, then the two Newton steps
    as a loop that takes |f| afresh at every comparison."""
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    shift = a / 3.0
    p = b - a * a / 3.0
    q = (2.0 * a * a * a - 9.0 * a * b) / 27.0 + c
    s = cmath.sqrt(0.25 * q * q + p * p * p / 27.0)
    u3 = -0.5 * q + s
    alt = -0.5 * q - s
    if abs(alt) > abs(u3):
        u3 = alt
    if u3 == 0:
        ys = (0j, 0j, 0j)
    else:
        u = kernels._cbrt(u3)
        v = -p / (3.0 * u)
        w, w2 = kernels._W, kernels._W2
        ys = (u + v, u * w + v * w2, u * w2 + v * w)
    roots = []
    for y in ys:
        x = y - shift
        fx = ((c3 * x + c2) * x + c1) * x + c0
        for _ in range(2):
            fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
            if fp == 0:
                break
            xn = x - fx / fp
            fn = ((c3 * xn + c2) * xn + c1) * xn + c0
            if abs(fn) < abs(fx):
                x, fx = xn, fn
            else:
                break
        roots.append(x)
    return kernels.canonical_order(roots)


#: every kernel with a plain formulation, by name
PLAIN_KERNELS = {
    "frob3": frob3_by_loop,
    "det3": det3_by_subscripts,
    "adj3": adj3_by_subscripts,
    "matmul3": matmul3_by_subscripts,
    "eval_curve9": eval_curve9_by_subscripts,
    "vec_norm": vec_norm_by_square_modulus,
    "kernel_vector3": kernel_vector3_by_loops,
    "solve_cubic_raw": solve_cubic_by_newton_loop,
}


# --- forward-map stages as whole-matrix products ---


def columns_matrix(v1, v2, v3) -> Mat3:
    """The ``Mat3`` with columns v1, v2, v3."""
    return Mat3((v1[0], v2[0], v3[0],
                 v1[1], v2[1], v3[1],
                 v1[2], v2[2], v3[2]))


def eig3_by_identity_shift(a: Mat3):
    """``eig3`` with each shifted matrix built as the ``Mat3``
    a - I.scaled(h)."""
    values, _ = eig3(a)
    ident = Mat3.identity()
    return values, tuple(kernel_vector((a - ident.scaled(h)).entries)
                         for h in values)


def in_eigenbasis_by_matmul(b: Mat3, vectors) -> tuple[complex, ...]:
    """The entries of U0 = V^-1 B V as two ``Mat3`` products."""
    v = columns_matrix(*vectors)
    return (inv3(v) @ b @ v).entries


def gauge_fix_by_matmul(values, entries) -> tuple[NormalizedPair, float]:
    """D U0 D^-1 with D = diag(1, u12, u13) as two ``Mat3`` products on the
    flat entries of U0, the gauge entries pinned afterwards, and the gauge
    ratio min(|u12|, |u13|) / |U0|."""
    u0 = Mat3(entries)
    scale = u0.norm()
    u12, u13 = u0[0, 1], u0[0, 2]
    ratio = min(abs(u12), abs(u13)) / scale if scale > 0.0 else 0.0
    if abs(u12) <= GAUGE * scale or abs(u13) <= GAUGE * scale:
        raise GaugeDegenerate("negligible gauge entry", ratio=ratio)
    d = Mat3.diagonal(1.0, u12, u13)
    d_inv = Mat3.diagonal(1.0, 1.0 / u12, 1.0 / u13)
    e = list((d @ u0 @ d_inv).entries)
    e[1] = e[2] = 1.0
    return NormalizedPair(values, Mat3(tuple(e))), ratio


# --- the general-position report, one stage at a time ---


def report_by_stages(pair) -> GeneralPositionReport:
    """The general-position report as its own try/except ladder over the
    forward-map stages, each margin computed where its stage completes and
    each pair of axis points measured with ``projective_distance``; the
    single forward pass behind ``general_position_report`` must give the
    same checks.  A stage that raises fails its own check, with the error
    code as its note, and every later check reads "unavailable": ``eig3``'s
    error fails the separation check, and a degenerate divisor fails the
    denominator check, which keeps its margin."""
    checks = []

    def add(name, margin, threshold, note=""):
        checks.append(PositionCheck(name, margin is not None and margin > threshold,
                                    margin, threshold, note))

    for name, m in (("determinant_a", pair.a), ("determinant_b", pair.b)):
        f = m.norm()
        margin = abs(det3(m)) / f ** 3 if f > 0 else 0.0
        add(name, margin, MARGIN_DETERMINANT)

    np = None
    try:
        values, vectors = eig3(pair.a)
    except GeneralPositionError as exc:
        add("eigenvalue_separation", None, MARGIN_EIGENVALUE_SEPARATION, exc.code)
        add("gauge_entries", None, MARGIN_GAUGE, "unavailable")
    else:
        sep, scale = separation(values)
        add("eigenvalue_separation", sep / scale, MARGIN_EIGENVALUE_SEPARATION)
        try:
            u0 = _in_eigenbasis(pair.b, vectors)
        except GeneralPositionError as exc:
            add("gauge_entries", None, MARGIN_GAUGE, exc.code)
        else:
            margin = min(abs(u0[1]), abs(u0[2])) / Mat3(u0).norm()
            note = ""
            try:
                np, _ = _gauge_fix(values, u0)
            except GaugeDegenerate as exc:
                note = exc.code
            add("gauge_entries", margin, MARGIN_GAUGE, note)

    if np is None:
        add("divisor_denominator", None, MARGIN_DIVISOR_DENOMINATOR, "unavailable")
        add("divisor_on_curve", None, 0.0, "unavailable")
        add("axis_point_separation", None, MARGIN_AXIS_POINT_SEPARATION, "unavailable")
        return GeneralPositionReport(tuple(checks))

    # |u12 u13 (h3 - h2)| against max(1, max|h_i|) max(1, |U|)^2, the
    # ratio divisor_point tests
    u = np.u
    denominator = abs(u[0, 1] * u[0, 2] * (np.h[2] - np.h[1]))
    scale = max(1.0, *(abs(h) for h in np.h)) * max(1.0, u.norm()) ** 2
    try:
        sd = spectral_data_of_normalized(np)
    except DegenerateDivisor as exc:
        add("divisor_denominator", denominator / scale, MARGIN_DIVISOR_DENOMINATOR,
            exc.code)
        add("divisor_on_curve", None, 0.0, "unavailable")
        add("axis_point_separation", None, MARGIN_AXIS_POINT_SEPARATION, "unavailable")
        return GeneralPositionReport(tuple(checks))
    except GeneralPositionError as exc:
        add("divisor_denominator", denominator / scale, MARGIN_DIVISOR_DENOMINATOR)
        add("divisor_on_curve", None, 0.0, exc.code)
        add("axis_point_separation", None, MARGIN_AXIS_POINT_SEPARATION, "unavailable")
        return GeneralPositionReport(tuple(checks))
    add("divisor_denominator", denominator / scale, MARGIN_DIVISOR_DENOMINATOR)
    add("divisor_on_curve",
        ON_CURVE - curve_residual(sd.coeffs, sd.divisor.L, sd.divisor.M, 1.0), 0.0)

    c = sd.coeffs
    try:
        xi = solve_cubic(CubicPoly(1.0, -c.q_plus, c.q_minus, -c.d2))
        lam0 = solve_cubic(CubicPoly(c.d1, c.r_plus, c.r_minus, c.d2))
        points = axis_points(np.h, xi, lam0)
        min_dist = min(projective_distance(points[i], points[j])
                       for i in range(9) for j in range(i + 1, 9))
        add("axis_point_separation", min_dist, MARGIN_AXIS_POINT_SEPARATION)
    except GeneralPositionError as exc:
        add("axis_point_separation", None, MARGIN_AXIS_POINT_SEPARATION, exc.code)

    return GeneralPositionReport(tuple(checks))


# --- points as coordinate triples: the cubic at a point, and the generic
# projective distance ---


def point(lam, mu, nu) -> tuple[complex, complex, complex]:
    """The coordinate triple (lam : mu : nu), each coordinate a ``complex``."""
    return (complex(lam), complex(mu), complex(nu))


def normalized(p) -> tuple[complex, complex, complex]:
    """Representative of p with its first largest coordinate scaled to 1."""
    p = point(*p)
    pivot = max(p, key=abs)
    if pivot == 0:
        raise ValueError("zero projective point")
    return (p[0] / pivot, p[1] / pivot, p[2] / pivot)


def line_through(p, q) -> tuple[complex, complex, complex]:
    """Coefficients (a, b, c) of the line through p and q: the cross
    product of their normalized representatives."""
    return _cross(normalized(p), normalized(q))


def line_value(line, p) -> complex:
    """The linear form a*lam + b*mu + c*nu of line = (a, b, c) at p."""
    return line[0] * p[0] + line[1] * p[1] + line[2] * p[2]


def projective_distance(p, q) -> float:
    """The generic cross product of the two coordinate vectors over the
    product of their norms (the sine of the Fubini-Study angle)."""
    norm_p, norm_q = vec_norm(p), vec_norm(q)
    if norm_p == 0.0 or norm_q == 0.0:
        raise ValueError("zero projective point")
    return vec_norm(_cross(p, q)) / (norm_p * norm_q)


def evaluate_curve_raw(coeffs, lam, mu, nu) -> complex:
    """Value of the cubic at the given (unnormalized) coordinates."""
    return kernels.eval_curve9(coeffs, lam, mu, nu)


def evaluate_curve(coeffs, p) -> complex:
    """Value of the cubic at the normalized representative of p."""
    return kernels.eval_curve9(coeffs, *normalized(p))


def min_projective_distance(points) -> float:
    """Smallest projective distance over all pairs of the points, in the
    order of the list's pairs.  The report's ``axis_point_separation``
    writes this out for its nine points and must give the same bits."""
    n = len(points)
    return min(projective_distance(points[i], points[j])
               for i in range(n) for j in range(i + 1, n))


def axis_points(h, xi, s) -> list:
    """The nine points where the curve meets the coordinate lines, in the
    report's order: (h : -1 : 0), (xi : 0 : -1), (0 : s : 1)."""
    return ([point(z, -1.0, 0.0) for z in h]
            + [point(z, 0.0, -1.0) for z in xi]
            + [point(0.0, z, 1.0) for z in s])


# --- the chord construction, normalizing at every use ---


def _third_intersection_renormalizing(coeffs, p1, p2):
    p1n, p2n = normalized(p1), normalized(p2)
    if projective_distance(p1n, p2n) <= INCIDENCE:
        raise CoincidentPoints("points are projectively equal")
    cscale = coeffs.max_magnitude()
    for name, pt in (("p1", p1n), ("p2", p2n)):
        if abs(evaluate_curve(coeffs, pt)) > INCIDENCE * cscale:
            raise InputsNotIncident(f"{name} is not on the curve")

    def at(s, t):
        return evaluate_curve_raw(coeffs, *(s * a + t * b
                                            for a, b in zip(p1n, p2n)))

    c30 = at(1.0, 0.0)
    c03 = at(0.0, 1.0)
    f11 = at(1.0, 1.0)
    f1m = at(1.0, -1.0)
    c21 = 0.5 * (f11 - f1m) - c03
    c12 = 0.5 * (f11 + f1m) - c30
    if max(abs(c30), abs(c03)) > DEFLATION * cscale:
        raise InputsNotIncident("nonzero known-root coefficients")
    if max(abs(c21), abs(c12)) <= DEFLATION * cscale:
        raise LineOnCurve("the line is a component of the curve")
    s, t = -c12, c21
    third = normalized([s * a + t * b for a, b in zip(p1n, p2n)])
    if abs(evaluate_curve(coeffs, third)) / cscale > THIRD_POINT_ON_CURVE:
        raise InputsNotIncident("deflated third point misses the curve")
    return third


def chord_swap_divisor_renormalizing(coeffs, p_first, x_first, q):
    """The chord construction with every third intersection normalizing its
    points afresh, and each incidence evaluated at a re-normalized point;
    ``chord_swap_divisor`` normalizes each point once and must agree with
    it to round-off."""
    t_point = _third_intersection_renormalizing(coeffs, x_first, q)
    return _third_intersection_renormalizing(coeffs, p_first, t_point)


# --- root matching ---


def match_roots(got, expected) -> float:
    """Smallest max-distance over all pairings of two triples."""
    best = None
    for perm in itertools.permutations(range(len(expected))):
        worst = max(abs(got[i] - expected[perm[i]]) for i in range(len(expected)))
        if best is None or worst < best:
            best = worst
    return best


# --- local curve sampling for the zero/pole probe ---


def _univariate_restriction(coeffs, coords, solve_index):
    """Coefficients (c3, c2, c1, c0) of the cubic in the chosen coordinate
    with the other two held fixed, by four-point interpolation."""
    def value(x):
        c = list(coords)
        c[solve_index] = x
        return evaluate_curve_raw(coeffs, *c)

    f0, f1, fm1, f2 = value(0.0), value(1.0), value(-1.0), value(2.0)
    c0 = f0
    c2 = 0.5 * (f1 + fm1) - c0
    odd = 0.5 * (f1 - fm1)           # c3 + c1
    c3 = (f2 - 4.0 * c2 - c0 - 2.0 * odd) / 6.0
    c1 = odd - c3
    return CubicPoly(c3, c2, c1, c0)


def curve_point_near(coeffs, target, eps: float):
    """A curve point at parameter distance about eps from ``target``, as a
    coordinate triple.

    Pins the largest coordinate, nudges one of the others by eps, and
    re-solves the curve equation for the remaining coordinate, keeping the
    root nearest the original value.
    """
    base = normalized(target)
    coords = list(base)
    pin = max(range(3), key=lambda i: abs(coords[i]))
    others = [i for i in range(3) if i != pin]
    for vary, solve in (others, reversed(others)):
        nudged = list(coords)
        nudged[vary] = nudged[vary] + eps
        try:
            poly = _univariate_restriction(coeffs, nudged, solve)
            roots = solve_cubic(poly)
        except DegenerateLeadingCoefficient:
            continue
        best = min(roots, key=lambda r: abs(r - coords[solve]))
        nudged[solve] = best
        candidate = tuple(nudged)
        if eps * 1e-2 < projective_distance(candidate, base) < eps * 1e2:
            return candidate
    raise AssertionError("could not sample a nearby curve point")

