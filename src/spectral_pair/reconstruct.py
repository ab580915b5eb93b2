"""Inverse map: spectral data back to the normalized pair.

The diagonal of U comes from a linear system in closed form, the first row
is the gauge (u11, 1, 1), u23/u32 follow from the divisor point, and the
remaining two entries (u21, u31) are computed twice: by long closed forms
and by solving the two remaining coefficient equations, which are linear in
them.  The linear solve is authoritative; disagreement raises.  It means
a transcription bug in the closed forms, or an ill-conditioned U, as near
an eigenvalue gap, where the two routes part by more than the tolerance.
"""

from __future__ import annotations

import math

from ._kernels_py import canonical_order
from .config import CLOSED_FORM_AGREEMENT
from .errors import ClosedFormMismatch, RepeatedEigenvalues
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
    worst_residual,
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


def _closed_form_lower_left(coeffs: CurveCoefficients, h: Vec3,
                            L: complex, M: complex) -> tuple[complex, complex]:
    """Long closed forms for (u21, u31); cross-check only."""
    h1, h2, h3 = h
    qp, qm = coeffs.q_plus, coeffs.q_minus
    rp, rm = coeffs.r_plus, coeffs.r_minus
    t = coeffs.t
    ab = (L + h2 * M) * (L + h3 * M)
    m_bracket = rp * (h1 - h2 - h3) - qp * h1 * h2 * h3 + t * h2 * h3
    l_bracket = qp * (h2 * h3 - h1 * h2 - h1 * h3) - rp + t * h1

    def corner(ha: complex, hb: complex) -> complex:
        # ha plays the row's own eigenvalue (h2 for u21, h3 for u31)
        return ((h1 - ha) / (ha - hb) * ab
                + M / ((h1 - hb) * (ha - hb)) * m_bracket
                + L / ((h1 - hb) * (ha - hb)) * l_bracket
                + (rm - qm * ha) / (ha - hb)
                + (qp * ha * ha - t * ha + rp) * (qp * h1 * h1 - t * h1 + rp)
                / ((h1 - ha) ** 2 * (hb - h1) * (ha - hb)))

    return corner(h2, h3), corner(h3, h2)


def reconstruct(sd: SpectralData) -> NormalizedPair:
    """Normalized pair from spectral data, using the ordering carried by it.

    The divisor point is used as given; nothing is projected back onto the
    curve, so feeding an off-curve point returns a pair whose own spectral
    data differs from the input.
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

    # as in ``relative_difference``, a modulus that overflows reads inf, and
    # so does a closed form that overflows, whose values are then None
    closed = None
    try:
        closed = u21_cf, u31_cf = _closed_form_lower_left(c, h, L, M)
        mismatch = (worst_residual((abs(u21 - u21_cf), abs(u31 - u31_cf)))
                    / max(1.0, abs(u21), abs(u31)))
    except OverflowError:
        mismatch = math.inf
    if not mismatch <= CLOSED_FORM_AGREEMENT:
        raise ClosedFormMismatch(
            "closed forms for (u21, u31) disagree with the linear solve",
            mismatch=mismatch, linear=(u21, u31), closed=closed)

    u = Mat3((u11, 1.0, 1.0,
              u21, u22, u23,
              u31, u32, u33))
    return NormalizedPair(h, u)


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
    relisted h is separated, diag(h) is nonsingular (named "A"), d2 = det U
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
    h = canonical_order(sd.h)
    check_separation(h, RepeatedEigenvalues)
    check_nonsingular_diagonal(h, "A")
    c = sd.coeffs
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
