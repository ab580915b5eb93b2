"""Inverse map: spectral data back to the normalized pair.

The diagonal of U comes from a linear system in closed form, the first row
is the gauge (u11, 1, 1), u23/u32 follow from the divisor point, and the
remaining two entries (u21, u31) solve the two remaining coefficient
equations, which are linear in them.  That reads seven of the data; the
eighth, d2 = det U, tests the result.  A U whose determinant misses d2
raises ``InvariantViolation``: an ill-conditioned U, as near an eigenvalue
gap, or a divisor point off the curve.
"""

from __future__ import annotations

import math

from . import _kernels_py as kernels
from .config import RECONSTRUCTED_D2
from .errors import InvariantViolation, RepeatedEigenvalues
from .linalg import (
    Mat3,
    Vec3,
    _UNIT,
    check_nonsingular,
    check_nonsingular_diagonal,
    check_separation,
)
from .spectral import (
    CurveCoefficients,
    NormalizedPair,
    SpectralData,
    _divisor,
    validate_spectral_data,
)


def diagonal_entries(coeffs: CurveCoefficients, h: Vec3) -> Vec3:
    """Diagonal of U from (q_plus, t, r_plus) and the ordered eigenvalues."""
    check_separation(h, RepeatedEigenvalues)
    h1, h2, h3 = h
    qp, rp, t = coeffs.q_plus, coeffs.r_plus, coeffs.t
    u11 = (qp * h1 * h1 - t * h1 + rp) / ((h1 - h2) * (h1 - h3))
    u22 = (qp * h2 * h2 - t * h2 + rp) / ((h2 - h1) * (h2 - h3))
    u33 = (qp * h3 * h3 - t * h3 + rp) / ((h3 - h1) * (h3 - h2))
    return (u11, u22, u33)


def reconstruct(sd: SpectralData) -> NormalizedPair:
    """Normalized pair from spectral data, using the ordering carried by it.

    The divisor point is used as given; nothing is projected back onto the
    curve.  The solve reads U's seven free entries off seven data and never
    reads d2 = det U, which then tests the result: unless |det U - d2| <
    ``RECONSTRUCTED_D2`` |d2|, it raises ``InvariantViolation`` with
    component "d2".  Since U meets the other equations, det U - d2 is minus
    the curve's value at the divisor point, so an off-curve point fails the
    test instead of returning a pair whose own spectral data differs from
    the input.
    """
    h = sd.h
    h1, h2, h3 = h
    c = sd.coeffs
    L, M = sd.divisor.L, sd.divisor.M

    # checks the separation, so the denominator h3 - h2 below is nonzero
    u11, u22, u33 = diagonal_entries(c, h)
    u23 = L + h2 * M + u22
    u32 = L + h3 * M + u33

    # the two unused coefficient equations, linear in (u21, u31):
    #   u21 + u31                = u11 u22 + u11 u33 + u22 u33 - u23 u32 - q_minus
    #   h3 u21 + h2 u31          = h3 u11 u22 + h2 u11 u33
    #                              + h1 (u22 u33 - u23 u32) - r_minus
    den = h3 - h2
    rhs1 = u11 * u22 + u11 * u33 + u22 * u33 - u23 * u32 - c.q_minus
    rhs2 = (h3 * u11 * u22 + h2 * u11 * u33
            + h1 * (u22 * u33 - u23 * u32) - c.r_minus)
    u21 = (rhs2 - h2 * rhs1) / den
    u31 = (h3 * rhs1 - rhs2) / den

    # d2 = det U is the one datum the solve does not read, so its residual
    # tests the whole U; the comparison is strict, so that d2 = 0 fails, and
    # a NaN fails, as does a determinant or a modulus that overflows to inf
    entries = (u11, 1.0, 1.0, u21, u22, u23, u31, u32, u33)
    residual = kernels.modulus(kernels.det3(entries) - c.d2)
    size = kernels.modulus(c.d2)
    if not residual < RECONSTRUCTED_D2 * size:
        raise InvariantViolation(
            "det U does not match d2", component="d2",
            residual=residual / size if 0 < size < math.inf else math.inf)
    return NormalizedPair(h, Mat3(entries))


def canonical_form(sd: SpectralData) -> SpectralData:
    """Spectral data relisted in the canonical eigenvalue ordering.

    The forward map already lists the eigenvalues in this order, because
    ``eigenvalues`` orders them by ``canonical_order``, so a comparison relists
    only the side whose ordering can differ: the output of the
    transformation formulas, or data read from outside.  The coefficients
    pass through bit for bit.  The divisor point is the third zero of the
    first coordinate of the pencil's kernel vector, D = P2 + P3 + Q1 with
    P_j = (h_j : -1 : 0), so it depends only on which eigenvalue is listed
    first.

    Both routes run the stratum's checks on the spectral data alone: the
    relisted h is separated, diag(h) and d1 are nonsingular against
    |diag(h)| (named "A"; ``invert_spectral`` runs the same test), d2 = det U
    is nonsingular against the scale max(|q_plus|, |q_minus|^(1/2),
    |d2|^(1/3)) that U's invariants give (named "B"), and the result passes
    ``validate_spectral_data``, since ``sd`` may come from outside.  When
    the first eigenvalue keeps its place, the divisor point passes through
    bit for bit, and nothing is reconstructed.  When it moves, U is
    reconstructed in the data's own listing, and the divisor point is read
    off the pair (diag(h), U) by the forward map's formula at the new first
    eigenvalue's left eigenvector e_k, which needs no gauge.
    """
    listed = _relisted(sd)
    return validate_spectral_data(sd) if listed is sd else listed


def _relisted(sd: SpectralData) -> SpectralData:
    """``canonical_form`` of data that was just validated, such as an
    action's output: ``sd`` itself, after the checks on h and d2, when
    ``canonical_order`` keeps h.  A permuted h is validated again, even
    when only the second and third eigenvalues swap, because the symmetric
    functions are then summed in another order and can round differently.
    A first eigenvalue that moves from place k has its divisor point read
    off (diag(sd.h), U), in the data's own listing, at e_k.
    """
    h = kernels.canonical_order(sd.h)
    check_separation(h, RepeatedEigenvalues)
    c = sd.coeffs
    check_nonsingular_diagonal(h, c.d1)
    try:
        scale = max(abs(c.q_plus), abs(c.q_minus) ** 0.5, abs(c.d2) ** (1 / 3))
    except OverflowError:
        scale = math.inf
    check_nonsingular(c.d2, scale, "B")
    if h == sd.h:
        return sd
    divisor = sd.divisor
    if h[0] != sd.h[0]:   # at e_k, diag(sd.h)'s left eigenvector at h[0]
        h1, h2, h3 = sd.h
        divisor = _divisor((h1, 0j, 0j, 0j, h2, 0j, 0j, 0j, h3),
                           reconstruct(sd).u.entries, _UNIT[sd.h.index(h[0])])[0]
    return validate_spectral_data(SpectralData(h, c, divisor))
