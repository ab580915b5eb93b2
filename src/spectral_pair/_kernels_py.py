"""Pure-Python implementation of the hot 3x3 complex kernels.

Matrices are flat row-major 9-tuples of built-in ``complex``; vectors are
3-tuples.  Kernels never raise domain errors: they return data plus
conditioning measures and leave policy to the wrappers.
"""

import cmath
import math
from operator import attrgetter

BACKEND = "python"

_W = complex(-0.5, 0.8660254037844386467637231707529362)   # primitive cube root of 1
_W2 = _W.conjugate()


def det3(m):
    return (m[0] * (m[4] * m[8] - m[5] * m[7])
            - m[1] * (m[3] * m[8] - m[5] * m[6])
            + m[2] * (m[3] * m[7] - m[4] * m[6]))


def adj3(m):
    """Adjugate (transposed cofactor matrix): m @ adj3(m) == det3(m) * I."""
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


def matmul3(a, b):
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


def matvec3(m, v):
    return (
        m[0] * v[0] + m[1] * v[1] + m[2] * v[2],
        m[3] * v[0] + m[4] * v[1] + m[5] * v[2],
        m[6] * v[0] + m[7] * v[1] + m[8] * v[2],
    )


def frob3(m):
    """Frobenius norm, the squared moduli summed in entry order."""
    a, b, c, d, e, f, g, h, i = m
    return math.sqrt((a.real * a.real + a.imag * a.imag)
                     + (b.real * b.real + b.imag * b.imag)
                     + (c.real * c.real + c.imag * c.imag)
                     + (d.real * d.real + d.imag * d.imag)
                     + (e.real * e.real + e.imag * e.imag)
                     + (f.real * f.real + f.imag * f.imag)
                     + (g.real * g.real + g.imag * g.imag)
                     + (h.real * h.real + h.imag * h.imag)
                     + (i.real * i.real + i.imag * i.imag))


def char_poly3(m):
    """Coefficients (c2, c1, c0) of det(xI - M) = x^3 + c2 x^2 + c1 x + c0."""
    tr = m[0] + m[4] + m[8]
    minors = (m[0] * m[4] - m[1] * m[3]
              + m[0] * m[8] - m[2] * m[6]
              + m[4] * m[8] - m[5] * m[7])
    return (-tr, minors, -det3(m))


def _cbrt(z):
    if z == 0:
        return 0j
    return cmath.exp(cmath.log(z) / 3.0)


#: sort key of the canonical eigenvalue order: lexicographic by (re, im)
canonical_key = attrgetter("real", "imag")


def solve_cubic_raw(c3, c2, c1, c0):
    """Three roots of c3 x^3 + c2 x^2 + c1 x + c0, sorted by (re, im).

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
    roots.sort(key=canonical_key)
    return tuple(roots)


def kernel_vector3(m):
    """Kernel candidate for a numerically rank-2 matrix, with conditioning data.

    Returns (v, residual, det_measure, minor_measure): v is the largest
    adjugate column scaled to unit norm (zero vector when the adjugate
    vanishes), residual is |M v| / |M|, and the two measures are |det|/|M|^3
    and max |2x2 minor| / |M|^2 used for the rank-2 test.
    """
    f = frob3(m)
    if f == 0.0:
        return (0j, 0j, 0j), 0.0, 0.0, 0.0
    adj = adj3(m)
    # the first row against the adjugate's first column: |det M| to the
    # bit (only the sign of a zero can differ from det3)
    dm = abs(m[0] * adj[0] + m[1] * adj[3] + m[2] * adj[6]) / (f * f * f)
    max_minor = 0.0
    for z in adj:
        az = abs(z)
        if az > max_minor:
            max_minor = az
    mm = max_minor / (f * f)

    # ``float ** 2`` raises OverflowError where ``x * x`` gives inf; an
    # overflowing square reads inf, and ``**`` keeps the finite bits
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
        # 1/sqrt(inf) would scale the column to zero, whose residual is 0:
        # no unit candidate, and the infinite residual rejects it
        return (0j, 0j, 0j), math.inf, dm, mm
    inv_n = 1.0 / math.sqrt(best_n2)
    v = (adj[best] * inv_n, adj[3 + best] * inv_n, adj[6 + best] * inv_n)
    return v, vec_norm(matvec3(m, v)) / f, dm, mm


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
    return math.sqrt(square_modulus(v[0]) + square_modulus(v[1])
                     + square_modulus(v[2]))


def eval_curve9(c, lam, mu, nu):
    """Value of the homogeneous cubic with coefficient tuple
    (d1, d2, p_plus, p_minus, q_plus, q_minus, r_plus, r_minus, t)."""
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
