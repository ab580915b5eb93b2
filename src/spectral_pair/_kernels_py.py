"""Pure-Python implementation of the hot 3x3 complex kernels.

Matrices are flat row-major 9-tuples of built-in ``complex``; vectors are
3-tuples.  Kernels never raise domain errors: they return data plus
conditioning measures and leave policy to the wrappers.

The kernels unpack their operands once and leave the per-entry float work
to CPython's C ``complex`` operations.  Three rules keep every bit, inf
and NaN included, of the plain formulas that ``tests/oracles.py`` keeps:

- re^2 + im^2 is the real part of ``z * z.conjugate()``, which CPython
  computes as re*re - im*(-im): the same bits, by the sign symmetry of
  IEEE-754 products, on an interpreter built without fused multiply-add
  contraction (as x86-64 builds are; tier-1 compares against the plain
  formula, so a build that fuses fails there).
- ``x ** 2`` stays where it stands.  It differs from ``x * x`` in the last
  bit for about one square in 1200 (glibc 2.36, x86-64), and it raises
  OverflowError where ``x * x`` gives inf.
- Sums are never reassociated: a complex sum adds its real parts in the
  same left-to-right order as the float sum it replaces.
"""

import cmath
import math
from operator import attrgetter

from .config import EIGENVALUE_TIE

BACKEND = "python"

_W = complex(-0.5, 0.8660254037844386467637231707529362)   # primitive cube root of 1
_W2 = _W.conjugate()


def det3(m):
    a, b, c, d, e, f, g, h, i = m
    return (a * (e * i - f * h)
            - b * (d * i - f * g)
            + c * (d * h - e * g))


def adj3(m):
    """Adjugate (transposed cofactor matrix): m @ adj3(m) == det3(m) * I."""
    a, b, c, d, e, f, g, h, i = m
    return (e * i - f * h, c * h - b * i, b * f - c * e,
            f * g - d * i, a * i - c * g, c * d - a * f,
            d * h - e * g, b * g - a * h, a * e - b * d)


def matmul3(x, y):
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = x
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = y
    return (
        a0 * b0 + a1 * b3 + a2 * b6,
        a0 * b1 + a1 * b4 + a2 * b7,
        a0 * b2 + a1 * b5 + a2 * b8,
        a3 * b0 + a4 * b3 + a5 * b6,
        a3 * b1 + a4 * b4 + a5 * b7,
        a3 * b2 + a4 * b5 + a5 * b8,
        a6 * b0 + a7 * b3 + a8 * b6,
        a6 * b1 + a7 * b4 + a8 * b7,
        a6 * b2 + a7 * b5 + a8 * b8,
    )


def frob3(m):
    """Frobenius norm, the squared moduli summed in entry order."""
    a, b, c, d, e, f, g, h, i = m
    return math.sqrt((a * a.conjugate() + b * b.conjugate()
                      + c * c.conjugate() + d * d.conjugate()
                      + e * e.conjugate() + f * f.conjugate()
                      + g * g.conjugate() + h * h.conjugate()
                      + i * i.conjugate()).real)


def char_poly3(m):
    """Coefficients (c2, c1, c0) of det(xI - M) = x^3 + c2 x^2 + c1 x + c0."""
    tr = m[0] + m[4] + m[8]
    minors = (m[0] * m[4] - m[1] * m[3]
              + m[0] * m[8] - m[2] * m[6]
              + m[4] * m[8] - m[5] * m[7])
    return (-tr, minors, -det3(m))


def _cbrt(z):
    return cmath.exp(cmath.log(z) / 3.0)


_BY_PARTS = attrgetter("real", "imag")
_BY_IMAG = attrgetter("imag", "real")


def canonical_order(values):
    """The three values as a tuple in the canonical eigenvalue order: by
    real part, except that real parts at most EIGENVALUE_TIE max|z| apart
    count as tied and tied values are ordered by imaginary part.

    Ties chain: in the (re, im) order, neighbours whose real parts are that
    close form one group, and each group is ordered by (im, re).  So the
    round-off in the real parts of a conjugate pair cannot decide their
    order.  Only a near-tie leaves the C sort and its one test of the two
    gaps; a NaN gap or scale never counts as a tie.
    """
    a, b, c = sorted(values, key=_BY_PARTS)
    try:
        quantum = EIGENVALUE_TIE * max(map(abs, values))
    except OverflowError:
        # a scale that overflows certifies nothing: every value ties
        quantum = math.inf
    if min((b - a).real, (c - b).real) > quantum:
        return a, b, c
    groups = [[a]]
    for low, high in ((a, b), (b, c)):
        if (high - low).real <= quantum:
            groups[-1].append(high)
        else:
            groups.append([high])
    return tuple(z for group in groups for z in sorted(group, key=_BY_IMAG))


def solve_cubic_raw(c3, c2, c1, c0):
    """Three roots of c3 x^3 + c2 x^2 + c1 x + c0 in canonical order.

    Cardano on the depressed cubic with the better-conditioned branch of the
    square root, then two safeguarded Newton polish steps per root.  Caller
    guarantees c3 is not negligible.
    """
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
        # forces p == q == 0: triple root of the depressed cubic
        ys = (0j, 0j, 0j)
    else:
        u = _cbrt(u3)
        v = -p / (3.0 * u)
        ys = (u + v, u * _W + v * _W2, u * _W2 + v * _W)

    roots = []
    for y in ys:
        # the two steps unrolled, so that |f| of an accepted step is kept
        # for the next comparison rather than taken again
        x = y - shift
        fx = ((c3 * x + c2) * x + c1) * x + c0
        fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
        if fp != 0:
            xn = x - fx / fp
            fn = ((c3 * xn + c2) * xn + c1) * xn + c0
            afn = abs(fn)
            if afn < abs(fx):
                x, fx = xn, fn
                fp = (3.0 * c3 * x + 2.0 * c2) * x + c1
                if fp != 0:
                    xn = x - fx / fp
                    if abs(((c3 * xn + c2) * xn + c1) * xn + c0) < afn:
                        x = xn
        roots.append(x)
    return canonical_order(roots)


def kernel_vector3(m):
    """Kernel candidate for a numerically rank-2 matrix, with conditioning data.

    Returns (v, residual, det_measure, minor_measure): v is the largest
    adjugate column scaled to unit norm (zero vector when the adjugate
    vanishes), residual is |M v| / |M|, and the two measures are |det|/|M|^3
    and max |2x2 minor| / |M|^2 used for the rank-2 test.  One pass over
    the unpacked entries, each quantity in the order of ``frob3``,
    ``adj3`` and the product M v.
    """
    a, b, c, d, e, f, g, h, i = m
    norm = math.sqrt((a * a.conjugate() + b * b.conjugate()
                      + c * c.conjugate() + d * d.conjugate()
                      + e * e.conjugate() + f * f.conjugate()
                      + g * g.conjugate() + h * h.conjugate()
                      + i * i.conjugate()).real)
    if norm == 0.0:
        return (0j, 0j, 0j), 0.0, 0.0, 0.0
    # the adjugate as adj3 computes it: columns x, y, z, indexed by row
    x0, y0, z0 = e * i - f * h, c * h - b * i, b * f - c * e
    x1, y1, z1 = f * g - d * i, a * i - c * g, c * d - a * f
    x2, y2, z2 = d * h - e * g, b * g - a * h, a * e - b * d
    # the first row against the adjugate's first column: |det M| to the
    # bit (only the sign of a zero can differ from det3).  ``max`` takes a
    # later value only when it is greater, so it skips a NaN as a running
    # ``>`` does.  A modulus that overflows reads inf.
    try:
        dm = abs(a * x0 + b * x1 + c * x2) / (norm * norm * norm)
        max_minor = max(0.0, *map(abs, (x0, y0, z0, x1, y1, z1, x2, y2, z2)))
    except OverflowError:
        dm = modulus(a * x0 + b * x1 + c * x2) / (norm * norm * norm)
        max_minor = max(0.0, *map(modulus, (x0, y0, z0, x1, y1, z1, x2, y2, z2)))
    mm = max_minor / (norm * norm)

    # ``float ** 2`` raises OverflowError where ``x * x`` gives inf; an
    # overflowing square reads inf, and ``**`` keeps the finite bits
    best, best_n2 = None, -1.0
    for col in ((x0, x1, x2), (y0, y1, y2), (z0, z1, z2)):
        p, q, r = col
        try:
            n2 = (p.real ** 2 + p.imag ** 2
                  + q.real ** 2 + q.imag ** 2
                  + r.real ** 2 + r.imag ** 2)
        except OverflowError:
            n2 = math.inf
        if n2 > best_n2:
            best, best_n2 = col, n2
    if best_n2 <= 0.0:
        return (0j, 0j, 0j), 1.0, dm, mm
    if best_n2 == math.inf:
        # 1/sqrt(inf) would scale the column to zero, whose residual is 0:
        # no unit candidate, and the infinite residual rejects it
        return (0j, 0j, 0j), math.inf, dm, mm
    inv_n = 1.0 / math.sqrt(best_n2)
    p, q, r = best
    p, q, r = p * inv_n, q * inv_n, r * inv_n
    return ((p, q, r),
            vec_norm((a * p + b * q + c * r,
                      d * p + e * q + f * r,
                      g * p + h * q + i * r)) / norm,
            dm, mm)


def modulus(z):
    """``abs(z)``, reading inf where the modulus overflows instead of
    raising ``OverflowError``."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def square_modulus(z):
    """``abs(z) ** 2``, reading inf where the modulus or its square
    overflows instead of raising ``OverflowError``."""
    try:
        return abs(z) ** 2
    except OverflowError:
        return math.inf


def vec_norm(v):
    """Euclidean norm, the squares summed in order; a square that overflows
    reads inf."""
    x, y, z = v
    try:
        return math.sqrt(abs(x) ** 2 + abs(y) ** 2 + abs(z) ** 2)
    except OverflowError:
        return math.sqrt(square_modulus(x) + square_modulus(y)
                         + square_modulus(z))


def eval_curve9(c, lam, mu, nu):
    """Value of the homogeneous cubic with coefficient tuple
    (d1, d2, p_plus, p_minus, q_plus, q_minus, r_plus, r_minus, t)."""
    d1, d2, p_plus, p_minus, q_plus, q_minus, r_plus, r_minus, t = c
    return (lam * lam * lam
            + d1 * mu * mu * mu
            + d2 * nu * nu * nu
            + p_plus * lam * lam * mu
            + p_minus * lam * mu * mu
            + q_plus * lam * lam * nu
            + q_minus * lam * nu * nu
            + r_plus * mu * mu * nu
            + r_minus * mu * nu * nu
            + t * lam * mu * nu)
