"""GL(2,Z) machinery: the three generator actions on matrix pairs and on
spectral data, Euclidean decomposition of integer matrices into generator
words, and commuting-diagram verification.

Word convention: a word acts on a pair by folding left to right (first
letter applied first); the matrix of a word is the left-to-right product of
the generator matrices.  With that pairing, applying a word to a pair and
multiplying generator matrices are compatible, which the abelianization
test pins down.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .config import DIVISOR_DENOMINATOR
from .cubic import chord_swap_divisor
from .errors import (
    DeterminantNotUnit,
    GeneralPositionError,
    IntermediateDegeneracy,
    SwappedPairDegenerate,
)
from .linalg import (
    CubicPoly,
    Vec3,
    _Value,
    check_nonsingular_diagonal,
    check_separation,
    inv3,
    solve_cubic,
)
from .reconstruct import _relisted, canonical_form
from .spectral import (
    CurveCoefficients,
    DivisorPoint,
    MatrixPair,
    SpectralData,
    _spectral,
    spectral_data,
    spectral_residuals,
    validate_spectral_data,
    worst_residual,
)


class Generator(Enum):
    """The three moves generating GL(2,Z): exchange the pair, invert the
    first matrix, multiply the second by the first."""

    SWAP = "S"
    INVERT = "I"
    SHEAR = "T"


Word = tuple[Generator, ...]

_LETTERS = {g.value: g for g in Generator}


def parse_word(text: str) -> Word:
    """Parse a comma-separated word like "S,I,T"; empty string is the
    identity."""
    text = text.strip()
    if not text:
        return ()
    letters = []
    for token in text.split(","):
        token = token.strip().upper()
        if token not in _LETTERS:
            raise ValueError(f"unknown generator letter {token!r} "
                             f"(expected S, I or T)")
        letters.append(_LETTERS[token])
    return tuple(letters)


def word_to_str(word: Word) -> str:
    return ",".join(g.value for g in word)


class GL2ZMatrix(_Value):
    """Integer 2x2 matrix with determinant +-1; an immutable value."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int):
        det = a * d - b * c
        if det not in (1, -1):
            raise DeterminantNotUnit(
                f"determinant must be +1 or -1, got {det}", det=det)
        for name, value in zip(self.__slots__, (a, b, c, d)):
            object.__setattr__(self, name, value)

    def __mul__(self, other: "GL2ZMatrix") -> "GL2ZMatrix":
        return GL2ZMatrix(self.a * other.a + self.b * other.c,
                          self.a * other.b + self.b * other.d,
                          self.c * other.a + self.d * other.c,
                          self.c * other.b + self.d * other.d)

    @classmethod
    def identity(cls) -> "GL2ZMatrix":
        return cls(1, 0, 0, 1)


GENERATOR_MATRICES = {
    Generator.SWAP: GL2ZMatrix(0, 1, 1, 0),
    Generator.INVERT: GL2ZMatrix(-1, 0, 0, 1),
    Generator.SHEAR: GL2ZMatrix(1, 1, 0, 1),
}


def matrix_of_word(word: Word) -> GL2ZMatrix:
    out = GL2ZMatrix.identity()
    for g in word:
        out = out * GENERATOR_MATRICES[g]
    return out


def act_on_pair(g: Generator, pair: MatrixPair) -> MatrixPair:
    """Generator action on raw pairs: (B, A), (A^-1, B) or (A, A B)."""
    if g is Generator.SWAP:
        return MatrixPair(pair.b, pair.a)
    if g is Generator.INVERT:
        return MatrixPair(inv3(pair.a), pair.b)
    return MatrixPair(pair.a, pair.a @ pair.b)


def act_word_on_pair(word: Word, pair: MatrixPair) -> MatrixPair:
    for g in word:
        pair = act_on_pair(g, pair)
    return pair


def swap_spectral(sd: SpectralData) -> SpectralData:
    """Spectral side of exchanging the two matrices.

    The cubic's mu and nu swap roles, so the coefficients permute; the new
    eigenvalues are the second matrix's spectrum, read off the curve.  The
    new divisor point is the chord-construction transport, with mu and nu
    exchanged in its coordinates.
    """
    c = sd.coeffs
    swapped = CurveCoefficients(
        d1=c.d2, d2=c.d1,
        p_plus=c.q_plus, p_minus=c.q_minus,
        q_plus=c.p_plus, q_minus=c.p_minus,
        r_plus=c.r_minus, r_minus=c.r_plus,
        t=c.t)
    xi = solve_cubic(CubicPoly(1.0, -c.q_plus, c.q_minus, -c.d2))
    check_separation(xi, SwappedPairDegenerate,
                     "second matrix has nearly repeated eigenvalues")

    lam, mu, nu = chord_swap_divisor(c, (sd.h[0], -1.0, 0.0),
                                     (xi[0], 0.0, -1.0),
                                     (sd.divisor.L, sd.divisor.M, 1.0))
    # after the exchange, the mu coordinate is the nu coordinate
    if abs(mu) <= DIVISOR_DENOMINATOR * max(abs(lam), abs(mu), abs(nu)):
        raise SwappedPairDegenerate(
            "transported divisor point lies on the line at infinity",
            nu=abs(mu))
    return validate_spectral_data(SpectralData(
        xi, swapped, DivisorPoint(lam / mu, nu / mu)))


def _minor_sum(coeffs: CurveCoefficients, h: Vec3, divisor: DivisorPoint) -> complex:
    """h1 h2 M12 + h1 h3 M13 + h2 h3 M23 in terms of the minors of U,
    derived by eliminating U from the weighted principal-minor sum of the
    inverted pair.  Note the (L + M h2)(L + M h3) term enters with the
    opposite sign from the rest."""
    h1, h2, h3 = h
    L, M = divisor.L, divisor.M
    qp, qm = coeffs.q_plus, coeffs.q_minus
    rp, rm = coeffs.r_plus, coeffs.r_minus
    t = coeffs.t
    ab = (h1 - h2) * (h1 - h3) * (L + M * h2) * (L + M * h3)
    l_term = L * (rp - t * h1 + qp * (h1 * h2 + h1 * h3 - h2 * h3))
    m_term = M * (rp * (h2 + h3 - h1) - t * h2 * h3 + qp * h1 * h2 * h3)
    return l_term + m_term + qm * h1 * (h2 + h3) - h1 * rm - ab


def tilde_r_minus(coeffs: CurveCoefficients, h: Vec3, divisor: DivisorPoint) -> complex:
    """The inverted pair's r_minus, the one transformed coefficient that
    has no short expression: ``_minor_sum`` over d1."""
    return _minor_sum(coeffs, h, divisor) / coeffs.d1


def invert_spectral(sd: SpectralData) -> SpectralData:
    """Spectral side of inverting the first matrix.

    Eigenvalues invert in place (ordering inherited, not re-sorted here);
    the second matrix's own coefficients are untouched; the rest transform
    by the closed-form table, all expressed in the original eigenvalues.
    A first passes the relisting's test, ``check_nonsingular_diagonal``.
    """
    h1, h2, h3 = sd.h
    c = sd.coeffs
    d1 = c.d1
    check_nonsingular_diagonal(sd.h, d1)
    L, M = sd.divisor.L, sd.divisor.M
    return validate_spectral_data(SpectralData(
        (1.0 / h1, 1.0 / h2, 1.0 / h3),
        CurveCoefficients(
            d1=1.0 / d1,
            d2=c.d2,
            p_plus=c.p_minus / d1,
            p_minus=c.p_plus / d1,
            q_plus=c.q_plus,
            q_minus=c.q_minus,
            r_plus=(c.q_plus * c.p_plus - c.t) / d1,
            r_minus=tilde_r_minus(c, sd.h, sd.divisor),
            t=(c.q_plus * c.p_minus - c.r_plus) / d1),
        DivisorPoint(L + M * (h2 + h3), -h2 * h3 * M)))


def shear_spectral(sd: SpectralData) -> SpectralData:
    """Spectral side of (A, B) -> (A, A B).

    The first matrix's data (eigenvalues, d1, p_plus, p_minus) are fixed;
    the remaining coefficients follow from rewriting the new pencil through
    the inverted one with lam and mu exchanged, which also exchanges the
    roles of the divisor coordinates.  (A, A B) needs no inverse of A: the
    new q_minus is ``_minor_sum``, d1 ``tilde_r_minus``, so nothing divides.
    """
    h1, h2, h3 = sd.h
    c = sd.coeffs
    L, M = sd.divisor.L, sd.divisor.M
    return validate_spectral_data(SpectralData(
        sd.h,
        CurveCoefficients(
            d1=c.d1,
            d2=c.d1 * c.d2,
            p_plus=c.p_plus,
            p_minus=c.p_minus,
            q_plus=c.q_plus * c.p_plus - c.t,
            q_minus=_minor_sum(c, sd.h, sd.divisor),
            r_plus=c.d1 * c.q_plus,
            r_minus=c.d1 * c.q_minus,
            t=c.p_minus * c.q_plus - c.r_plus),
        DivisorPoint(-h2 * h3 * M, L + M * (h2 + h3))))


_SPECTRAL_ACTIONS = {
    Generator.SWAP: swap_spectral,
    Generator.INVERT: invert_spectral,
    Generator.SHEAR: shear_spectral,
}


def act_spectral(g: Generator, sd: SpectralData) -> SpectralData:
    return _SPECTRAL_ACTIONS[g](sd)


def act_word_spectral(word: Word, sd: SpectralData) -> SpectralData:
    """Left-to-right fold of the generator actions between one
    ``canonical_form`` of the input and one relisting of the result.

    The formulas take the data in whatever eigenvalue ordering it carries,
    so nothing is relisted between letters.  Relisting the input rejects
    off-stratum data before the first letter acts, and validates it, since
    it may come from outside.  The result, which the last letter's action
    has just validated, is relisted into the forward map's ordering by
    ``reconstruct._relisted``, which validates it again only when it
    permutes h.  An error from a letter, or
    from the final relisting, is raised as ``IntermediateDegeneracy``,
    whose detail holds the failing ``"prefix"`` and the error's code as
    ``"cause"``."""
    current = canonical_form(sd)
    for i, g in enumerate(word):
        try:
            current = act_spectral(g, current)
            if i == len(word) - 1:
                current = _relisted(current)
        except GeneralPositionError as exc:
            prefix = word_to_str(word[:i + 1])
            raise IntermediateDegeneracy(
                f"word left general position after {prefix}",
                prefix=prefix, cause=exc.code) from exc
    return current


def decompose_gl2z(m: GL2ZMatrix) -> Word:
    """Word in {SWAP, INVERT, SHEAR} whose matrix product equals m exactly.

    Euclidean reduction in integer arithmetic: peel generators off the left
    so the running remainder's first column shrinks by division steps, then
    clear the off-diagonal entry and fix the signs.  Row operations used:
    emitting SHEAR subtracts row 2 from row 1, SWAP exchanges rows, INVERT
    negates row 1, and the block [SWAP, INVERT, SWAP] negates row 2.
    """
    S, I, T = Generator.SWAP, Generator.INVERT, Generator.SHEAR
    word: list[Generator] = []
    a, b, c, d = m.a, m.b, m.c, m.d

    # zero out c with a subtractive/division Euclid on the first column
    while c != 0:
        if abs(a) < abs(c):
            word.append(S)
            a, b, c, d = c, d, a, b
        elif (q := a // c) < 0:
            word.append(I)
            a, b = -a, -b
        else:
            word += [T] * q + [S]
            a, b, c, d = c, d, a - q * c, b - q * d

    # remainder is upper triangular with a, d in {+1, -1}
    if a == -1:
        word.append(I)
        a, b = -a, -b
    if b * d < 0:
        # negate row 2 first so the shear count is positive
        word += [S, I, S]
        c, d = -c, -d
    q = b * d
    word += [T] * q
    b -= q * d
    if d == -1:
        word += [S, I, S]
        c, d = -c, -d

    if (a, b, c, d) != (1, 0, 0, 1):
        raise AssertionError(f"reduction left {(a, b, c, d)}, not the identity")
    # S and I are involutions, so adjacent repeats cancel exactly
    reduced: list[Generator] = []
    for g in word:
        if reduced and g is reduced[-1] and g is not T:
            reduced.pop()
        else:
            reduced.append(g)
    result = tuple(reduced)
    if matrix_of_word(result) != m:
        raise AssertionError(f"word {word_to_str(result)} does not multiply to {m}")
    return result


class CommutationReport(NamedTuple):
    """Residuals between the spectral-side and matrix-side routes for one
    generator applied to one pair."""

    operation: str
    per_component: dict[str, float]
    max_residual: float


def commutation_residuals(g: Generator, pair: MatrixPair, sd: SpectralData,
                          w: Vec3) -> dict[str, float]:
    """Residuals between the two routes around the square for a pair whose
    spectral data ``sd`` and left eigenvector w of A at h1 are already
    known: generator-then-map versus map-then-generator-formula.  The
    forward map already lists the eigenvalues in the canonical order, so
    only the formula's side is relisted, by ``reconstruct._relisted``: the
    action has just validated it, so it is validated again only when h is
    permuted.  The shear keeps A, so its image is mapped forward with A's
    h and w rather than decomposing A again."""
    lhs = _relisted(act_spectral(g, sd))
    image = act_on_pair(g, pair)
    rhs = (_spectral(image, (sd.h, w))[0] if g is Generator.SHEAR
           else spectral_data(image))
    return spectral_residuals(lhs, rhs)


def verify_commutation(g: Generator, pair: MatrixPair) -> CommutationReport:
    """Compare the two routes around the square for one generator."""
    residuals = commutation_residuals(g, pair, *_spectral(pair))
    return CommutationReport(
        operation=f"commute_{g.name.lower()}",
        per_component=residuals,
        max_residual=worst_residual(residuals.values()))
