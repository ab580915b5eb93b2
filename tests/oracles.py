"""Independent oracles used by the tests.

Everything here recomputes expected values by a route disjoint from the
library code under test: symbolic trivariate expansion for the curve
coefficients, direct minor equations for the divisor point, a free-group
word engine for the generator actions, and brute-force root matching.
"""

from __future__ import annotations

import itertools

from spectral_pair import (
    GaugeDegenerate,
    Mat3,
    NormalizedPair,
    eig3,
    inv3,
    kernel_vector,
    reconstruct,
    spectral_data,
)
from spectral_pair.config import GAUGE
from spectral_pair.linalg import columns_matrix

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


# --- forward-map stages as whole-matrix products ---


def eig3_by_identity_shift(a: Mat3):
    """``eig3`` with each shifted matrix built as a - I.scaled(h)."""
    values, _ = eig3(a)
    ident = Mat3.identity()
    return values, tuple(kernel_vector(a - ident.scaled(h)) for h in values)


def in_eigenbasis_by_matmul(b: Mat3, vectors) -> Mat3:
    """U0 = V^-1 B V as two ``Mat3`` products."""
    v = columns_matrix(*vectors)
    return inv3(v) @ b @ v


def gauge_fix_by_matmul(values, u0: Mat3) -> NormalizedPair:
    """D U0 D^-1 with D = diag(1, u12, u13) as two ``Mat3`` products, the
    gauge entries pinned afterwards."""
    scale = u0.norm()
    u12, u13 = u0[0, 1], u0[0, 2]
    if abs(u12) <= GAUGE * scale or abs(u13) <= GAUGE * scale:
        raise GaugeDegenerate("negligible gauge entry")
    d = Mat3.diagonal(1.0, u12, u13)
    d_inv = Mat3.diagonal(1.0, 1.0 / u12, 1.0 / u13)
    e = list((d @ u0 @ d_inv).entries)
    e[1] = e[2] = 1.0
    return NormalizedPair(values, Mat3(tuple(e)))


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
    from spectral_pair import CubicPoly, evaluate_curve_raw

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


def curve_point_near(coeffs, point, eps: float):
    """A curve point at parameter distance about eps from ``point``.

    Pins the largest coordinate, nudges one of the others by eps, and
    re-solves the curve equation for the remaining coordinate, keeping the
    root nearest the original value.
    """
    from spectral_pair import (
        DegenerateLeadingCoefficient,
        ProjectivePoint,
        projective_distance,
        solve_cubic,
    )

    base = point.normalized()
    coords = list(base.coords())
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
        candidate = ProjectivePoint(*nudged)
        if eps * 1e-2 < projective_distance(candidate, base) < eps * 1e2:
            return candidate
    raise AssertionError("could not sample a nearby curve point")

