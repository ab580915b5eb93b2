"""Fixed-size complex linear algebra: 3x3 determinant, inverse, kernel,
eigendecomposition, and a closed-form cubic solver.

Everything is exact small-case math (cofactor and adjugate formulas) with
explicit conditioning checks; scalars are built-in ``complex``.  All
functions are pure and all values immutable, so they are safe to share
between threads.  ``Mat3``, like ``GL2ZMatrix``, is a slotted ``_Value``
rather than a tuple, so that ``2 * m`` and ``m + m`` never mean tuple
repetition or concatenation; ``CubicPoly`` is a ``NamedTuple``.  The
package uses no ``dataclasses``: importing it, with the ``inspect`` it
loads, and generating each class's methods took about 30% of a cold
``import spectral_pair.cli``.

Every ``Mat3`` is checked once, when it is built: its entries are coerced
to ``complex`` and must all be finite (``finite_entries``).  The internal
stages of the forward map and of the relisting pass flat row-major 9-tuples
instead, and each matrix a function returns is built as one ``Mat3``.
Sums and products never turn a non-finite value finite again, so a chain
of products is checked where it ends.  One flat intermediate gets the
``Mat3`` test explicitly (``check_finite``), because the stage after it
would raise a different error, or none: U0 = V^-1 B V in ``spectral``.
Each A - hI in ``eigenvector`` is finite once ``check_separation`` passes:
the leading-coefficient test bounds a finite eigenvalue by 1 + 1e12.  A
reciprocal that a chain multiplies in is bounded by the test before it.

``eig3`` is ``eigenvalues``, then ``eigenvector`` at each; the forward map
needs only the first half and one left eigenvector.  A diagonal A's (six
off-diagonal entries exactly zero) take no cubic and no kernel, only the
leading-coefficient and separation tests: the entries in ``canonical_order``
and the unit vectors, A - h_i I's exact kernels once the gaps pass.
"""

from __future__ import annotations

import cmath
import math
from operator import itemgetter
from typing import NamedTuple

from . import _kernels_py as kernels
from .config import (
    EIGENVALUE_SEPARATION,
    KERNEL_RESIDUAL,
    LEADING_COEFFICIENT,
    RANK,
    SINGULAR,
)
from .errors import (
    DegenerateLeadingCoefficient,
    GeneralPositionError,
    NonFiniteEntries,
    RankNotTwo,
    RepeatedEigenvalues,
    SingularMatrix,
)

Vec3 = tuple[complex, complex, complex]


def check_finite(entries: tuple[complex, ...]) -> None:
    """NonFiniteEntries, a ValueError, unless every ``complex`` entry is
    finite."""
    if not all(map(cmath.isfinite, entries)):
        raise NonFiniteEntries("Mat3 entries must be finite")


def finite_entries(values) -> tuple[complex, ...]:
    """``values`` coerced to ``complex``; NonFiniteEntries unless all are
    finite.

    This is the check every ``Mat3`` gets when it is built."""
    entries = tuple(map(complex, values))
    check_finite(entries)
    return entries


class _Value:
    """An immutable value made of its ``__slots__``: it refuses assignment,
    and compares within its own class, hashes, prints and pickles as the
    tuple of its slot values."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, n) for n in self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__()[1])

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class Mat3(_Value):
    """3x3 complex matrix, flat row-major entries; an immutable value."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[complex, ...]):
        _set_entries(self, entries)
        self.__post_init__()

    def __post_init__(self):
        """The one construction check.  ``__init__`` calls it through the
        class, so a wrapper installed there sees every construction."""
        if len(self.entries) != 9:
            raise ValueError("Mat3 needs exactly 9 entries")
        _set_entries(self, finite_entries(self.entries))

    @classmethod
    def from_rows(cls, rows) -> "Mat3":
        return cls(tuple(z for row in rows for z in row))

    @classmethod
    def identity(cls) -> "Mat3":
        return cls((1, 0, 0, 0, 1, 0, 0, 0, 1))

    @classmethod
    def diagonal(cls, d0: complex, d1: complex, d2: complex) -> "Mat3":
        return cls((d0, 0, 0, 0, d1, 0, 0, 0, d2))

    def __getitem__(self, ij) -> complex:
        i, j = ij
        return self.entries[3 * i + j]

    def __matmul__(self, other: "Mat3") -> "Mat3":
        return Mat3(kernels.matmul3(self.entries, other.entries))

    def __add__(self, other: "Mat3") -> "Mat3":
        return Mat3(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Mat3") -> "Mat3":
        return Mat3(tuple(a - b for a, b in zip(self.entries, other.entries)))

    def scaled(self, c: complex) -> "Mat3":
        return Mat3(tuple(c * z for z in self.entries))

    def rows(self):
        e = self.entries
        return (e[0:3], e[3:6], e[6:9])

    def norm(self) -> float:
        """Frobenius norm."""
        return kernels.frob3(self.entries)


#: the slot's own setter; ``_Value.__setattr__`` refuses every assignment
_set_entries = Mat3.entries.__set__


class CubicPoly(NamedTuple):
    """c3 x^3 + c2 x^2 + c1 x + c0 over the complex numbers."""

    c3: complex
    c2: complex
    c1: complex
    c0: complex

    @classmethod
    def from_roots(cls, r1: complex, r2: complex, r3: complex) -> "CubicPoly":
        return cls(1.0,
                   -(r1 + r2 + r3),
                   r1 * r2 + r1 * r3 + r2 * r3,
                   -r1 * r2 * r3)

    def __call__(self, x: complex) -> complex:
        return ((self.c3 * x + self.c2) * x + self.c1) * x + self.c0

    def max_coefficient(self) -> float:
        """Largest coefficient modulus; one that overflows reads inf."""
        try:
            return max(abs(self.c3), abs(self.c2), abs(self.c1), abs(self.c0))
        except OverflowError:
            return math.inf


def _check_leading_coefficient(p: CubicPoly) -> None:
    """DegenerateLeadingCoefficient unless |c3| exceeds LEADING_COEFFICIENT
    times the largest coefficient modulus."""
    scale = p.max_coefficient()
    if abs(p.c3) <= LEADING_COEFFICIENT * scale:
        raise DegenerateLeadingCoefficient(
            "leading coefficient is negligible",
            c3=abs(p.c3), scale=scale)


def solve_cubic(p: CubicPoly) -> Vec3:
    """Three roots with multiplicity, in ``canonical_order``."""
    _check_leading_coefficient(p)
    return kernels.solve_cubic_raw(p.c3, p.c2, p.c1, p.c0)


def det3(m: Mat3) -> complex:
    return kernels.det3(m.entries)


def check_nonsingular(det: complex, scale: float,
                      which: str | None = None) -> None:
    """SingularMatrix naming the matrix ``which`` unless |det| > SINGULAR
    scale^3.  A NaN determinant fails, as does a product that overflows:
    SINGULAR multiplies first, so that happens only for a scale above about
    5.64e106.  Below about 1.35e-104 the product underflows to 0, and every
    nonzero determinant passes.  A determinant whose modulus overflows reads
    inf, and passes where the product is finite."""
    try:
        modulus = abs(det)
    except OverflowError:
        modulus = math.inf
    if not modulus > SINGULAR * scale * scale * scale:
        raise SingularMatrix("matrix is numerically singular",
                             which=which, det=modulus, norm=scale)


def nonsingular_det(entries: tuple[complex, ...],
                    which: str | None = None) -> complex:
    """Determinant of the flat, checked entries of a 3x3 matrix, once it
    passes ``check_nonsingular`` against the Frobenius norm |M|; for |M|
    above about 5.6e102 the determinant may also be inf - inf."""
    d = kernels.det3(entries)
    check_nonsingular(d, kernels.frob3(entries), which)
    return d


def check_nonsingular_diagonal(h: Vec3, d1: complex) -> None:
    """SingularMatrix naming "A" unless h1 (h2 h3), as ``nonsingular_det``
    of the padded diag(h) reads it, and d1 pass ``check_nonsingular``
    against |diag(h)|; h and d1 carry A's one weight, so it is scale-free."""
    h1, h2, h3 = h
    norm = math.sqrt(
        (h1 * h1.conjugate() + h2 * h2.conjugate() + h3 * h3.conjugate()).real)
    check_nonsingular(h1 * (h2 * h3), norm, "A")
    check_nonsingular(d1, norm, "A")


def inverse_entries(entries: tuple[complex, ...], det: complex) -> tuple[complex, ...]:
    """adj(M) / det M, flat, by C division; the caller has tested ``det``."""
    return tuple(map(det.__rtruediv__, kernels.adj3(entries)))


def inv3(m: Mat3) -> Mat3:
    return Mat3(inverse_entries(m.entries, nonsingular_det(m.entries)))


def kernel_vector(entries: tuple[complex, ...]) -> Vec3:
    """Unit kernel vector of the numerically rank-2 matrix with the flat,
    checked ``entries``.

    Uses the adjugate: when rank(M) = 2 any nonzero adjugate column spans
    ker(M); the largest-norm column is chosen for determinism.
    """
    v, residual, det_measure, minor_measure = kernels.kernel_vector3(entries)
    # written so that a NaN measure or residual fails
    if not (det_measure <= RANK and minor_measure > RANK):
        raise RankNotTwo("matrix does not have numerical rank 2",
                         det_measure=det_measure, minor_measure=minor_measure)
    if not residual <= KERNEL_RESIDUAL:
        raise RankNotTwo("adjugate kernel candidate has a large residual",
                         residual=residual)
    return v


def separation(values: Vec3) -> tuple[float, float]:
    """Smallest pairwise gap and largest magnitude of a triple; a modulus
    that overflows reads inf."""
    a, b, c = values
    try:
        return min(abs(a - b), abs(a - c), abs(b - c)), max(map(abs, values))
    except OverflowError:
        m = kernels.modulus
        return min(m(a - b), m(a - c), m(b - c)), max(map(m, values))


def check_separation(values: Vec3, error: type[GeneralPositionError],
                     message: str = "eigenvalues are not pairwise separated"):
    """Raise ``error`` unless every value is finite and every gap exceeds
    EIGENVALUE_SEPARATION max|h|, written so that a NaN fails: ``min`` and
    ``max`` skip one that is not first, so finiteness is tested apart."""
    sep, scale = separation(values)
    if not (sep > EIGENVALUE_SEPARATION * scale
            and all(map(cmath.isfinite, values))):
        raise error(message, separation=sep, scale=scale)


#: the unit vectors e1, e2, e3, the eigenvectors of a diagonal matrix
_UNIT = ((1 + 0j, 0j, 0j), (0j, 1 + 0j, 0j), (0j, 0j, 1 + 0j))
#: the flat entries of a 3x3 matrix's transpose
_TRANSPOSE = itemgetter(0, 3, 6, 1, 4, 7, 2, 5, 8)


def eigenvalues(a: Mat3) -> Vec3:
    """A's eigenvalues in ``canonical_order``, after the leading-coefficient
    and separation tests; a diagonal A's are its entries, no cubic solved."""
    e = a.entries
    c2, c1, c0 = kernels.char_poly3(e)
    p = CubicPoly(1.0, c2, c1, c0)
    if not (e[1] or e[2] or e[3] or e[5] or e[6] or e[7]):
        _check_leading_coefficient(p)
        values = kernels.canonical_order((e[0], e[4], e[8]))
    else:
        values = solve_cubic(p)
    check_separation(values, RepeatedEigenvalues)
    return values


def eigenvector(a: Mat3, h: complex, left: bool = False) -> Vec3:
    """Unit kernel vector of A - hI for A's separated eigenvalue h, or with
    ``left`` of its transpose (w^T A = h w^T).  A diagonal A's is the unit
    vector at h's place, its exact kernel, with none sought."""
    e = a.entries
    if not (e[1] or e[2] or e[3] or e[5] or e[6] or e[7]):
        # separated values are distinct, so h has one place
        return _UNIT[(e[0], e[4], e[8]).index(h)]
    if left:
        e = _TRANSPOSE(e)
    # I.scaled(h)'s entries, so a - h*I keeps every bit, signed zeros too
    on, off = h * (1 + 0j), h * 0j
    return kernel_vector((e[0] - on, e[1] - off, e[2] - off,
                          e[3] - off, e[4] - on, e[5] - off,
                          e[6] - off, e[7] - off, e[8] - on))


def eig3(a: Mat3, values: Vec3 | None = None) -> tuple[Vec3, tuple[Vec3, Vec3, Vec3]]:
    """Eigenvalues (in ``canonical_order``, or ``values`` if already known)
    and matching unit eigenvectors; near-defective matrices are rejected."""
    values = values or eigenvalues(a)
    return values, tuple(eigenvector(a, h) for h in values)
