"""The chord construction that transports the divisor point when the two
matrices are exchanged, with the line and third-intersection steps it is
built from.  Points and lines are plain coordinate 3-tuples: a point
(lam : mu : nu), and a line as the coefficients (a, b, c) of the linear form
a*lam + b*mu + c*nu."""

from __future__ import annotations

from . import _kernels_py as kernels
from .config import (
    COINCIDENT_POINTS,
    DEFLATION,
    INCIDENCE,
    THIRD_POINT_ON_CURVE,
)
from .errors import CoincidentPoints, InputsNotIncident, LineOnCurve
from .linalg import vec_norm
from .spectral import CurveCoefficients


def _normalized(p) -> tuple[complex, complex, complex]:
    """p's coordinates as ``complex``, the largest one scaled to 1."""
    a, b, c = complex(p[0]), complex(p[1]), complex(p[2])
    # the first of the largest, as max(key=abs) picks it, without its calls
    pivot = b if abs(b) > abs(a) else a
    if abs(c) > abs(pivot):
        pivot = c
    if pivot == 0:
        raise ValueError("zero projective point")
    return (a / pivot, b / pivot, c / pivot)


def _line_value(line, p) -> complex:
    return line[0] * p[0] + line[1] * p[1] + line[2] * p[2]


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def _distance(p, q) -> float:
    """Scale-free distance: norm of the cross product of unit representatives
    (the sine of the Fubini-Study angle)."""
    norm_p, norm_q = vec_norm(p), vec_norm(q)
    if norm_p == 0.0 or norm_q == 0.0:
        raise ValueError("zero projective point")
    return vec_norm(_cross(p, q)) / (norm_p * norm_q)


def _line_through(pn, qn) -> tuple[complex, complex, complex]:
    """Line through two distinct normalized points, via their cross product."""
    cross = _cross(pn, qn)
    distance = vec_norm(cross)
    if distance <= COINCIDENT_POINTS * 4.0:
        raise CoincidentPoints("points are projectively equal",
                               distance=distance)
    return cross


def _third_intersection(coeffs: CurveCoefficients, cscale: float, line,
                        p1n, p2n, c03: complex):
    """Third point where the line meets the cubic, given two incident
    normalized points p1n and p2n, the coefficients' ``max_magnitude`` as
    ``cscale`` and the curve's value c03 at p2n.

    The cubic restricted to s*p1 + t*p2 is c30 s^3 + c21 s^2 t + c12 s t^2
    + c03 t^3 with c30 = c03 = 0 forced by incidence, so the remaining root
    is (s : t) = (-c12 : c21).  Exact deflation avoids any root matching.
    Returns the third point, normalized, and the curve's value there, so
    that a chord from that point does not evaluate it again."""
    # the curve's values at the two points are the restricted cubic's c30
    # and c03, so the incidence test below bounds them
    c30 = kernels.eval_curve9(coeffs, *p1n)
    lscale = max(abs(line[0]), abs(line[1]), abs(line[2]), 1e-300)
    for name, pt, value in (("p1", p1n, c30), ("p2", p2n, c03)):
        residual = abs(value)
        if not residual <= INCIDENCE * cscale:
            raise InputsNotIncident(f"{name} is not on the curve",
                                    which=name, residual=residual)
        lres = abs(_line_value(line, pt)) / lscale
        if not lres <= INCIDENCE:
            raise InputsNotIncident(f"{name} is not on the line",
                                    which=name, residual=lres)
    if _distance(p1n, p2n) <= INCIDENCE:
        raise InputsNotIncident("the two base points coincide")

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
    third intersection Y of that line completes the divisor equivalent to
    the original one with the fixed points moved from the nu = 0 line to the
    mu = 0 line.  The three inputs are coordinate triples, and Y comes back
    as one, normalized.  Each of the five points is normalized once, and the
    cubic is evaluated once at each.
    """
    cscale = coeffs.max_magnitude()
    xn, qn = _normalized(x_first), _normalized(q)
    t_point, t_value = _third_intersection(
        coeffs, cscale, _line_through(xn, qn), xn, qn,
        kernels.eval_curve9(coeffs, *qn))
    pn = _normalized(p_first)
    y, _ = _third_intersection(coeffs, cscale, _line_through(pn, t_point),
                               pn, t_point, t_value)
    return y
