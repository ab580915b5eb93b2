"""The chord construction that transports the divisor point when the two
matrices are exchanged, with the third-intersection step it is built from.
Points are plain coordinate 3-tuples (lam : mu : nu), and a chord is fixed
by its two points alone: its third intersection with the cubic is the
remaining root of the cubic restricted to s*p1 + t*p2.  Two points coincide
when their projective distance is at most ``INCIDENCE``; that one rule
raises ``CoincidentPoints``."""

from __future__ import annotations

import math

from . import _kernels_py as kernels
from .config import DEFLATION, INCIDENCE, THIRD_POINT_ON_CURVE
from .errors import CoincidentPoints, InputsNotIncident, LineOnCurve
from .spectral import CurveCoefficients


def _normalized(p) -> tuple[complex, complex, complex]:
    """p's coordinates as ``complex``, the largest one scaled to 1."""
    a, b, c = complex(p[0]), complex(p[1]), complex(p[2])
    # a modulus that overflows reads inf
    try:
        na, nb, nc = abs(a), abs(b), abs(c)
    except OverflowError:
        na, nb, nc = map(kernels.modulus, (a, b, c))
    # the first of the largest, as max(key=abs) picks it, without its calls
    pivot, n = (b, nb) if nb > na else (a, na)
    if nc > n:
        pivot = c
    if pivot == 0:
        raise ValueError("zero projective point")
    return (a / pivot, b / pivot, c / pivot)


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _distance(p, q) -> float:
    """Scale-free distance: norm of the cross product of unit representatives
    (the sine of the Fubini-Study angle)."""
    norm = kernels.vec_norm
    return norm(_cross(p, q)) / (norm(p) * norm(q))


def _third_intersection(coeffs: CurveCoefficients, cscale: float,
                        p1n, p2n, c03: complex):
    """Third point where the chord through the normalized curve points p1n
    and p2n meets the cubic, given the coefficients' ``max_magnitude`` as
    ``cscale`` and the curve's value c03 at p2n.

    The cubic restricted to s*p1 + t*p2 is c30 s^3 + c21 s^2 t + c12 s t^2
    + c03 t^3 with c30 = c03 = 0 on the curve, so the remaining root
    is (s : t) = (-c12 : c21).  Exact deflation avoids any root matching.
    Returns the third point, normalized, and the curve's value there, so
    that a chord from that point does not evaluate it again."""
    distance = _distance(p1n, p2n)
    if distance <= INCIDENCE:
        raise CoincidentPoints("points are projectively equal",
                               distance=distance)
    # the curve's values at the two points are the restricted cubic's c30
    # and c03, so the incidence test below bounds them
    c30 = kernels.eval_curve9(coeffs, *p1n)
    for name, value in (("p1", c30), ("p2", c03)):
        # as in ``curve_residual``, a modulus that overflows reads inf, and
        # a scale that overflows certifies nothing
        try:
            residual = abs(value)
        except OverflowError:
            residual = math.inf
        if cscale == math.inf or not residual <= INCIDENCE * cscale:
            raise InputsNotIncident(f"{name} is not on the curve",
                                    which=name, residual=residual)

    # the restricted cubic at (s, t) = (1, 1) and (1, -1)
    (l1, m1, n1), (l2, m2, n2) = p1n, p2n
    f11 = kernels.eval_curve9(coeffs, l1 + l2, m1 + m2, n1 + n2)
    f1m = kernels.eval_curve9(coeffs, l1 - l2, m1 - m2, n1 - n2)
    c21 = 0.5 * (f11 - f1m) - c03
    c12 = 0.5 * (f11 + f1m) - c30

    if max(abs(c21), abs(c12)) <= DEFLATION * cscale:
        raise LineOnCurve("restricted cubic vanishes identically; "
                          "the line is a component of the curve")

    s, t = -c12, c21
    point = _normalized((s * l1 + t * l2, s * m1 + t * m2, s * n1 + t * n2))
    value = kernels.eval_curve9(coeffs, *point)
    residual = abs(value) / cscale
    if not residual <= THIRD_POINT_ON_CURVE:
        raise InputsNotIncident("deflated third point misses the curve",
                                residual=residual)
    return point, value


def chord_swap_divisor(coeffs: CurveCoefficients, p_first, x_first,
                       q) -> tuple[complex, complex, complex]:
    """Transport the divisor point across the exchange of the two matrices.

    Draw the chord through x_first and the divisor point q, take its third
    intersection T with the cubic, then the chord through p_first and T; the
    third intersection Y of that chord completes the divisor equivalent to
    the original one with the fixed points moved from the nu = 0 line to the
    mu = 0 line.  The three inputs are coordinate triples, and Y comes back
    as one, normalized.  Each of the five points is normalized once, and the
    cubic is evaluated once at each.
    """
    cscale = coeffs.max_magnitude()
    xn, qn = _normalized(x_first), _normalized(q)
    t_point, t_value = _third_intersection(
        coeffs, cscale, xn, qn, kernels.eval_curve9(coeffs, *qn))
    y, _ = _third_intersection(coeffs, cscale, _normalized(p_first),
                               t_point, t_value)
    return y
