"""Independent oracles used by the tests.

Everything here recomputes expected values by a route disjoint from the
library code under test: symbolic trivariate expansion for the curve
coefficients, direct minor equations for the divisor point, the closed
forms in the normal form (h, U) that the forward map used before it read
the curve off the pair's trace invariants, closed forms for U's lower-left
entries from the spectral data, a free-group word engine for the generator
actions, and brute-force root matching.
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
    DivisorPoint,
    GaugeDegenerate,
    GeneralPositionError,
    GeneralPositionReport,
    InputsNotIncident,
    InvariantViolation,
    LineOnCurve,
    Mat3,
    NormalizedPair,
    SingularMatrix,
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
)
from spectral_pair import _kernels_py as kernels
from spectral_pair import spectral as spectral_module
from spectral_pair._kernels_py import vec_norm
from spectral_pair.config import (
    DEFLATION,
    DIVISOR_DENOMINATOR,
    GAUGE,
    INCIDENCE,
    MARGIN_DETERMINANT,
    MARGIN_DIVISOR_DENOMINATOR,
    MARGIN_EIGENVALUE_SEPARATION,
    MARGIN_GAUGE,
    ON_CURVE,
    SYMMETRIC_FUNCTIONS,
    THIRD_POINT_ON_CURVE,
)
from spectral_pair.cubic import _cross
from spectral_pair.linalg import eigenvalues, eigenvector, nonsingular_det, separation
from spectral_pair.spectral import Forward, PositionCheck, SpectralData

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


def pencil_determinant(h, u, entry=pencil_entry):
    """Leibniz expansion of the 3x3 determinant of the pencil, collected by
    monomial; completely independent of the cofactor code paths.  ``entry``
    gives the pencil's entry (i, j) as a trivariate polynomial."""
    total = {}
    for perm in itertools.permutations(range(3)):
        sign = 1
        for a in range(3):
            for b in range(a + 1, 3):
                if perm[a] > perm[b]:
                    sign = -sign
        term = poly_const(sign)
        for row in range(3):
            term = poly_mul(term, entry(row, perm[row], h, u))
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


def expanded_coefficients(h, u, entry=pencil_entry) -> dict[str, complex]:
    det = pencil_determinant(h, u, entry)
    out = {name: det.pop(key, 0.0) for name, key in MONOMIALS.items()}
    assert not det, f"unexpected monomials in pencil determinant: {det}"
    return out


def pair_pencil_entry(i, j, a, b):
    """Entry (i, j) of lam*I + mu*A + nu*B for flat entries a and b."""
    poly = {(0, 1, 0): a[3 * i + j], (0, 0, 1): b[3 * i + j]}
    if i == j:
        poly[(1, 0, 0)] = 1.0
    return poly


def pair_expanded_coefficients(a, b) -> dict[str, complex]:
    """``expanded_coefficients`` of the pencil of a general pair, given by
    its flat entries."""
    return expanded_coefficients(a, b, pair_pencil_entry)


# --- the closed forms in the normal form (h, U) ---


def closed_form_coefficients(h, u) -> dict[str, complex]:
    """The nine coefficients as closed forms in (h, U), U indexed as U[i, j];
    det(lam + mu*diag(h) + nu*U) expands with all plus signs."""
    h1, h2, h3 = h
    u11, u12, u13 = u[0, 0], u[0, 1], u[0, 2]
    u21, u22, u23 = u[1, 0], u[1, 1], u[1, 2]
    u31, u32, u33 = u[2, 0], u[2, 1], u[2, 2]
    # the 2x2 principal minors on rows/columns (1,2), (1,3), (2,3)
    m12 = u11 * u22 - u12 * u21
    m13 = u11 * u33 - u13 * u31
    m23 = u22 * u33 - u23 * u32
    return {
        "d1": h1 * h2 * h3,
        "d2": (u11 * (u22 * u33 - u23 * u32) - u12 * (u21 * u33 - u23 * u31)
               + u13 * (u21 * u32 - u22 * u31)),
        "p_plus": h1 + h2 + h3,
        "p_minus": h1 * h2 + h1 * h3 + h2 * h3,
        "q_plus": u11 + u22 + u33,
        "q_minus": m12 + m13 + m23,
        "r_plus": h1 * h2 * u33 + h1 * h3 * u22 + h2 * h3 * u11,
        "r_minus": h3 * m12 + h2 * m13 + h1 * m23,
        "t": (h1 + h2) * u33 + (h1 + h3) * u22 + (h2 + h3) * u11,
    }


def closed_form_divisor(h, u) -> tuple[complex, complex]:
    """(L, M) as closed forms in (h, U): the third zero of the first
    coordinate of the pencil's kernel vector, over the denominator
    u12 u13 (h3 - h2)."""
    _, h2, h3 = h
    u12, u13 = u[0, 1], u[0, 2]
    den = u12 * u13 * (h3 - h2)
    det_a = u12 * u[1, 2] - u13 * u[1, 1]   # rows (1,2) of the pencil minors
    det_b = u12 * u[2, 2] - u13 * u[2, 1]   # rows (1,3)
    return ((u12 * h3 * det_a + u13 * h2 * det_b) / den,
            -(u12 * det_a + u13 * det_b) / den)


def closed_form_lower_left(coeffs, h, L, M) -> tuple[complex, complex]:
    """(u21, u31) as long closed forms in the spectral data, the reference
    for ``reconstruct``'s linear solve of the q_minus and r_minus
    equations."""
    h1, h2, h3 = h
    qp, qm = coeffs.q_plus, coeffs.q_minus
    rp, rm = coeffs.r_plus, coeffs.r_minus
    t = coeffs.t
    ab = (L + h2 * M) * (L + h3 * M)
    m_bracket = rp * (h1 - h2 - h3) - qp * h1 * h2 * h3 + t * h2 * h3
    l_bracket = qp * (h2 * h3 - h1 * h2 - h1 * h3) - rp + t * h1

    def corner(ha, hb):
        # ha plays the row's own eigenvalue (h2 for u21, h3 for u31)
        return ((h1 - ha) / (ha - hb) * ab
                + M / ((h1 - hb) * (ha - hb)) * m_bracket
                + L / ((h1 - hb) * (ha - hb)) * l_bracket
                + (rm - qm * ha) / (ha - hb)
                + (qp * ha * ha - t * ha + rp) * (qp * h1 * h1 - t * h1 + rp)
                / ((h1 - ha) ** 2 * (hb - h1) * (ha - hb)))

    return corner(h2, h3), corner(h3, h2)


# --- the divisor point from A's left eigenvector, with vectors ---


def _matvec(m: Mat3, v):
    return tuple(sum(m[i, j] * v[j] for j in range(3)) for i in range(3))


def divisor_by_left_eigenvector(a: Mat3, b: Mat3, w):
    """(L, M, margin) of the pair whose A has the left eigenvector w at h1:
    the pencil's kernel vector k = y1 q_j + y2 q_k in the kernel of w^T,
    where q_c = w_p e_c - w_c e_p, p is the place of w's largest entry and
    y = (w^T B q_k, -w^T B q_j) unscaled, then rows j and k of
    (L + M A + B) k = 0 solved by Cramer's rule.  The margin is the 2x2
    determinant over |y|^2 |A|."""
    p = max(range(3), key=lambda i: abs(w[i]))
    j, k = (c for c in range(3) if c != p)

    def q(c):
        out = [0j, 0j, 0j]
        out[c], out[p] = w[p], -w[c]
        return out

    def dot(x, y):
        return sum(s * t for s, t in zip(x, y))

    y1, y2 = dot(w, _matvec(b, q(k))), -dot(w, _matvec(b, q(j)))
    kv = [y1 * s + y2 * t for s, t in zip(q(j), q(k))]
    ak, bk = _matvec(a, kv), _matvec(b, kv)
    det = kv[j] * ak[k] - kv[k] * ak[j]
    scale = (abs(y1) ** 2 + abs(y2) ** 2) * a.norm()
    margin = abs(det) / scale if scale > 0.0 else 0.0
    if margin == 0.0:
        return None, None, margin
    return ((bk[k] * ak[j] - bk[j] * ak[k]) / det,
            (kv[k] * bk[j] - kv[j] * bk[k]) / det, margin)


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

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    @property
    def real(self) -> Fraction:
        return self.re


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


# --- the weights of the data ---


def rescaled(sd, e: int, f: int) -> SpectralData:
    """The spectral data of (2^e A, 2^f B) from that of (A, B), exactly:
    each part is multiplied by 2 to the power of its weight, by
    ``math.ldexp`` on its real and imaginary parts, so nothing rounds
    unless a part leaves the normal float range.  h has weight e; d1, p_plus
    and p_minus 3e, e and 2e; d2, q_plus and q_minus 3f, f and 2f; r_plus,
    r_minus and t 2e + f, e + 2f and e + f; the divisor point's L and M,
    the point (L : M : 1) of the curve, f and f - e."""
    def times(z, k):
        return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))

    weights = dict(d1=3 * e, d2=3 * f, p_plus=e, p_minus=2 * e, q_plus=f,
                   q_minus=2 * f, r_plus=2 * e + f, r_minus=e + 2 * f,
                   t=e + f)
    c = sd.coeffs
    return SpectralData(
        tuple(times(z, e) for z in sd.h),
        c._replace(**{name: times(getattr(c, name), k)
                      for name, k in weights.items()}),
        DivisorPoint(times(sd.divisor.L, f), times(sd.divisor.M, f - e)))


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


def eigenvector_by_identity_shift(a: Mat3, h, left=False):
    """``eigenvector`` of a non-diagonal A with the shifted matrix built as
    the ``Mat3`` a - I.scaled(h), or with ``left`` its transpose's.  For a
    diagonal A it seeks the kernel too, which is the unit vector up to a
    phase."""
    m = Mat3.from_rows(zip(*a.rows())) if left else a
    return kernel_vector((m - Mat3.identity().scaled(h)).entries)


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


#: (name, report threshold) of each check, in the report's order, which is
#: the order its stages run
REPORT_CHECKS = (
    ("determinant_a", MARGIN_DETERMINANT),
    ("determinant_b", MARGIN_DETERMINANT),
    ("eigenvalue_separation", MARGIN_EIGENVALUE_SEPARATION),
    ("divisor_denominator", MARGIN_DIVISOR_DENOMINATOR),
    ("divisor_on_curve", 0.0),
    ("gauge_entries", MARGIN_GAUGE),
)


def report_by_stages(pair) -> GeneralPositionReport:
    """The general-position report as its own ladder over the forward-map
    stages, each margin computed where its stage completes: the left
    eigenvector by ``eigenvector_by_identity_shift``, the divisor point by
    ``divisor_by_left_eigenvector``, the coefficients by Leibniz expansion
    of the pair's pencil and the normal form by whole-matrix products; the
    single forward pass behind ``general_position_report`` must give the
    same checks.  The stages of the spectral data (eigenvalues, divisor,
    on-curve test) run first; one that fails fails its own check, with the
    error code as its note, and every check not yet computed reads
    "unavailable".  Then the normal form, whose error is only the gauge
    check's note."""
    thresholds = dict(REPORT_CHECKS)
    checks = {}

    def add(name, margin, note=""):
        threshold = thresholds[name]
        checks[name] = PositionCheck(name, margin is not None and margin > threshold,
                                     margin, threshold, note)

    def finish():
        for name, _ in REPORT_CHECKS:
            if name not in checks:
                add(name, None, "unavailable")
        return GeneralPositionReport(tuple(checks[name]
                                           for name, _ in REPORT_CHECKS))

    for name, m in (("determinant_a", pair.a), ("determinant_b", pair.b)):
        f = m.norm()
        add(name, abs(det3(m)) / f ** 3 if f > 0 else 0.0)

    try:
        h = eigenvalues(pair.a)
        w = eigenvector_by_identity_shift(pair.a, h[0], left=True)
    except GeneralPositionError as exc:
        add("eigenvalue_separation", None, exc.code)
        return finish()
    sep, scale = separation(h)
    add("eigenvalue_separation", sep / scale)

    lam, mu, margin = divisor_by_left_eigenvector(pair.a, pair.b, w)
    # h1's relative gap, squared: w's loss in the close pair it belongs to
    margin *= min(1.0, min(abs(h[0] - x) for x in h[1:]) / scale) ** 2
    if not margin > DIVISOR_DENOMINATOR:
        add("divisor_denominator", margin, "degenerate_divisor")
        return finish()
    add("divisor_denominator", margin)
    # the on-curve margin is compared to the bit, so it is the residual of
    # the forward map's own floats; the oracle's are checked against them
    a, b = pair.a.entries, pair.b.entries
    c = spectral_module._coefficients(a, b)
    divisor = spectral_module._divisor(
        a, b, eigenvector(pair.a, h[0], left=True), h)[0]
    expanded = pair_expanded_coefficients(a, b)
    assert abs(expanded.pop("lam3") - 1) < 1e-12
    assert all(abs(x - expanded[name]) <= 1e-9 * max(1.0, abs(x))
               for name, x in c.items())
    assert all(abs(x - y) <= 1e-6 * max(1.0, abs(x))
               for x, y in zip(divisor, (lam, mu)))
    residual = curve_residual(c, *divisor, 1.0)
    if not residual <= ON_CURVE:
        add("divisor_on_curve", None, "invariant_violation")
        return finish()
    add("divisor_on_curve", ON_CURVE - residual)

    try:
        values, vectors = eig3(pair.a)
        _, ratio = gauge_fix_by_matmul(values,
                                       in_eigenbasis_by_matmul(pair.b, vectors))
        add("gauge_entries", ratio)
    except GeneralPositionError as exc:
        add("gauge_entries", exc.detail.get("ratio"), exc.code)
    return finish()


# --- the forward map as separate stages, to the bit ---


def validated_by_loop(sd) -> tuple:
    """``spectral._validated`` as a loop over the three symmetric functions,
    each test with its own overflow handler, then the on-curve residual:
    (sd, residual), or the ``InvariantViolation`` of the first test that
    fails.  The package's straight-line validation must match it to the bit,
    errors included."""
    h1, h2, h3 = sd.h
    c = sd.coeffs
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
        if scale == math.inf or not diff <= SYMMETRIC_FUNCTIONS * scale:
            raise InvariantViolation(
                f"eigenvalues do not match coefficient {name}",
                component=name,
                residual=math.inf if scale == math.inf else diff / scale)
    residual = curve_residual(sd.coeffs, sd.divisor.L, sd.divisor.M, 1.0)
    if not residual <= ON_CURVE:
        raise InvariantViolation("divisor point does not lie on the curve",
                                 component="divisor", residual=residual)
    return sd, residual


def divisor_by_comprehensions(a, b, w=(1 + 0j, 0j, 0j), h=None) -> tuple:
    """``spectral._divisor(a, b, w, h)`` with its sums over the places p, j
    and k written as comprehensions, the form the package unrolled: the
    divisor point and its margin, to the bit, or the same error."""
    p = (sizes := tuple(map(abs, w))).index(max(sizes))
    j, k = (1, 2) if p == 0 else (0, 3 - p)
    wp, wj, wk = w[p], w[j], w[k]
    rp, rj, rk = [w[0] * b[c] + w[1] * b[3 + c] + w[2] * b[6 + c]
                  for c in (p, j, k)]
    gj, gk = wp * rj - wj * rp, wp * rk - wk * rp
    big = gj if abs(gj) > abs(gk) else gk
    y1, y2 = (gk / big, -gj / big) if big else (0.0, 0.0)
    kj, kk, kp = wp * y1, wp * y2, -(wj * y1 + wk * y2)
    aj, ak, bj, bk = [m[3 * r + j] * kj + m[3 * r + k] * kk + m[3 * r + p] * kp
                      for m, r in ((a, j), (a, k), (b, j), (b, k))]
    det = kj * ak - kk * aj
    scale = (y1 * y1.conjugate() + y2 * y2.conjugate()).real * kernels.frob3(a)
    mod = kernels.modulus
    margin = mod(det) / scale if scale > 0.0 else 0.0
    if h is not None:
        top = max(map(mod, h))
        margin *= (min(mod(h[0] - h[1]), mod(h[0] - h[2]), top) / top) ** 2
    if not margin > DIVISOR_DENOMINATOR:
        raise DegenerateDivisor("divisor denominator is negligible",
                                denominator=mod(det), ratio=margin)
    return DivisorPoint((bk * aj - bj * ak) / det, (kk * bj - kj * bk) / det), margin


def spectral_by_stages(pair) -> tuple:
    """``spectral._spectral(pair)``, (sd, w), one stage at a time: A's and
    B's determinants by ``nonsingular_det``, A's eigenvalues, its left
    eigenvector at h1, the trace coefficients, the divisor point, each from
    its own call (the divisor by ``divisor_by_comprehensions``), and
    ``validated_by_loop``.  Raises what the first stage that fails raises."""
    a, b = pair.a.entries, pair.b.entries
    nonsingular_det(a, "A")
    nonsingular_det(b, "B")
    h = eigenvalues(pair.a)
    w = eigenvector(pair.a, h[0], left=True)
    divisor = divisor_by_comprehensions(a, b, w, h)[0]
    sd = SpectralData(h, spectral_module._coefficients(a, b), divisor)
    return validated_by_loop(sd)[0], w


def determinant_margin(m) -> float:
    """|det3(M)| / (|M| |M| |M|), 0 where that cube is 0 or overflows: the
    report's determinant margin, from the floats ``check_nonsingular``
    tests."""
    cube = m.norm() * m.norm() * m.norm()
    return abs(det3(m)) / cube if 0.0 < cube < math.inf else 0.0


def forward_by_stages(pair) -> Forward:
    """``spectral.forward(pair)``, one stage at a time in the order of
    ``spectral_by_stages``, each check recorded where its stage completes:
    the determinant tests, which stop nothing, with ``determinant_margin``;
    the eigenvalues with ``separation``'s margin; the divisor; the
    coefficients and the validation; then the normal form.  A stage's
    error fails the next check of ``REPORT_CHECKS``, and an uncoded error
    after a failed determinant test counts as that error."""
    thresholds = dict(REPORT_CHECKS)
    checks, errors = {}, []

    def add(name, margin, note=""):
        threshold = thresholds[name]
        checks[name] = PositionCheck(name, margin is not None and margin > threshold,
                                     margin, threshold, note)

    def failed(exc):
        if not isinstance(exc, GeneralPositionError):
            if not errors:
                raise exc
            exc = errors[0]
        add(REPORT_CHECKS[len(checks)][0], exc.detail.get("ratio"), exc.code)

    def done(np=None, sd=None, w=None):
        for name, _ in REPORT_CHECKS[len(checks):]:
            add(name, None, "unavailable")
        report = GeneralPositionReport(tuple(checks.values()))
        if errors:
            return Forward(pair, report, None, None, errors[0])
        return Forward(pair, report, np, sd, None, w)

    for name, m in (("A", pair.a), ("B", pair.b)):
        try:
            nonsingular_det(m.entries, name)
        except SingularMatrix as exc:
            errors.append(exc)
        add("determinant_" + name.lower(), determinant_margin(m))
    a, b = pair.a.entries, pair.b.entries
    try:
        h = eigenvalues(pair.a)
        w = eigenvector(pair.a, h[0], left=True)
        sep, scale = separation(h)
        add("eigenvalue_separation", sep / scale)
        divisor, margin = divisor_by_comprehensions(a, b, w, h)
        add("divisor_denominator", margin)
        sd, residual = validated_by_loop(
            SpectralData(h, spectral_module._coefficients(a, b), divisor))
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        if isinstance(exc, GeneralPositionError):
            errors.append(exc)
        failed(exc)
        return done()
    add("divisor_on_curve", ON_CURVE - residual)
    np = None
    try:
        np, ratio = spectral_module._normal_form(pair, h)
        add("gauge_entries", ratio)
    except (GeneralPositionError, ArithmeticError, ValueError) as exc:
        failed(exc)
    return done(np, sd, w)


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
    order of the list's pairs.  ``boundary_outcomes.axis_point_separation``
    writes this out for its nine points and must give the same bits."""
    n = len(points)
    return min(projective_distance(points[i], points[j])
               for i in range(n) for j in range(i + 1, n))


def axis_points(h, xi, s) -> list:
    """The nine points where the curve meets the coordinate lines, in the
    audit's order: (h : -1 : 0), (xi : 0 : -1), (0 : s : 1)."""
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

