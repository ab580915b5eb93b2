"""Projective-plane utilities for the spectral cubic: evaluation, lines,
third intersections, and the chord construction that transports the divisor
point when the two matrices are exchanged."""

from __future__ import annotations

from typing import NamedTuple

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


class ProjectivePoint(NamedTuple):
    """Homogeneous coordinates (lam : mu : nu)."""

    lam: complex
    mu: complex
    nu: complex

    def coords(self) -> tuple[complex, complex, complex]:
        return (complex(self.lam), complex(self.mu), complex(self.nu))

    def max_abs(self) -> float:
        return max(abs(self.lam), abs(self.mu), abs(self.nu))

    def normalized(self) -> "ProjectivePoint":
        """Representative with the largest-magnitude coordinate scaled to 1."""
        c = self.coords()
        pivot = max(c, key=abs)
        if pivot == 0:
            raise ValueError("zero projective point")
        return ProjectivePoint(*(z / pivot for z in c))


class ProjectiveLine(NamedTuple):
    """The linear form a*lam + b*mu + c*nu."""

    a: complex
    b: complex
    c: complex

    def __call__(self, p: ProjectivePoint) -> complex:
        return self.a * p.lam + self.b * p.mu + self.c * p.nu

    def max_abs(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c))


def _cross(p, q):
    return (p[1] * q[2] - p[2] * q[1],
            p[2] * q[0] - p[0] * q[2],
            p[0] * q[1] - p[1] * q[0])


def projective_distance(p: ProjectivePoint, q: ProjectivePoint) -> float:
    """Scale-free distance: norm of the cross product of unit representatives
    (the sine of the Fubini-Study angle)."""
    return min_projective_distance((p, q))


def min_projective_distance(points) -> float:
    """Smallest ``projective_distance`` over all pairs of the points, each
    point's norm taken once."""
    coords = [p.coords() for p in points]
    norms = [vec_norm(c) for c in coords]
    if 0.0 in norms:
        raise ValueError("zero projective point")
    n = len(coords)
    return min(vec_norm(_cross(coords[i], coords[j])) / (norms[i] * norms[j])
               for i in range(n) for j in range(i + 1, n))


def evaluate_curve_raw(coeffs: CurveCoefficients, lam: complex, mu: complex,
                       nu: complex) -> complex:
    """Value of the cubic at the given (unnormalized) coordinates."""
    return kernels.eval_curve9(coeffs, lam, mu, nu)


def evaluate_curve(coeffs: CurveCoefficients, p: ProjectivePoint) -> complex:
    """Value of the cubic at the normalized representative of p."""
    n = p.normalized()
    return kernels.eval_curve9(coeffs, n.lam, n.mu, n.nu)


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> ProjectiveLine:
    """Line through two distinct points, via the coordinate cross product."""
    return _line_through(p.normalized(), q.normalized())


def _line_through(pn: ProjectivePoint, qn: ProjectivePoint) -> ProjectiveLine:
    """``line_through`` on normalized representatives."""
    cross = _cross(pn.coords(), qn.coords())
    distance = vec_norm(cross)
    if distance <= COINCIDENT_POINTS * 4.0:
        raise CoincidentPoints("points are projectively equal",
                               distance=distance)
    return ProjectiveLine(*cross)


def third_intersection(coeffs: CurveCoefficients, line: ProjectiveLine,
                       p1: ProjectivePoint,
                       p2: ProjectivePoint) -> ProjectivePoint:
    """Third point where the line meets the cubic, given two incident points.

    The cubic restricted to s*p1 + t*p2 is c30 s^3 + c21 s^2 t + c12 s t^2
    + c03 t^3 with c30 = c03 = 0 forced by incidence, so the remaining root
    is (s : t) = (-c12 : c21).  Exact deflation avoids any root matching.
    """
    return _third_intersection(coeffs, line, p1.normalized(), p2.normalized())


def _third_intersection(coeffs: CurveCoefficients, line: ProjectiveLine,
                        p1n: ProjectivePoint,
                        p2n: ProjectivePoint) -> ProjectivePoint:
    """``third_intersection`` on normalized representatives; the point it
    returns is normalized too."""
    cscale = coeffs.max_magnitude()
    # the curve's values at the two points are the restricted cubic's c30
    # and c03, so the incidence test below bounds them
    c30, c03 = (kernels.eval_curve9(coeffs, *pt) for pt in (p1n, p2n))
    for name, pt, value in (("p1", p1n, c30), ("p2", p2n, c03)):
        residual = abs(value)
        if not residual <= INCIDENCE * cscale:
            raise InputsNotIncident(f"{name} is not on the curve",
                                    which=name, residual=residual)
        lres = abs(line(pt)) / max(line.max_abs(), 1e-300)
        if not lres <= INCIDENCE:
            raise InputsNotIncident(f"{name} is not on the line",
                                    which=name, residual=lres)
    if projective_distance(p1n, p2n) <= INCIDENCE:
        raise InputsNotIncident("the two base points coincide")

    def at(s: complex, t: complex) -> complex:
        return kernels.eval_curve9(
            coeffs,
            s * p1n.lam + t * p2n.lam,
            s * p1n.mu + t * p2n.mu,
            s * p1n.nu + t * p2n.nu)

    f11 = at(1.0, 1.0)
    f1m = at(1.0, -1.0)
    c21 = 0.5 * (f11 - f1m) - c03
    c12 = 0.5 * (f11 + f1m) - c30

    if max(abs(c21), abs(c12)) <= DEFLATION * cscale:
        raise LineOnCurve("restricted cubic vanishes identically; "
                          "the line is a component of the curve")

    s, t = -c12, c21
    point = ProjectivePoint(
        s * p1n.lam + t * p2n.lam,
        s * p1n.mu + t * p2n.mu,
        s * p1n.nu + t * p2n.nu).normalized()
    residual = abs(kernels.eval_curve9(coeffs, point.lam, point.mu, point.nu)) / cscale
    if not residual <= THIRD_POINT_ON_CURVE:
        raise InputsNotIncident("deflated third point misses the curve",
                                residual=residual)
    return point


def chord_swap_divisor(coeffs: CurveCoefficients, p_first: ProjectivePoint,
                       x_first: ProjectivePoint,
                       q: ProjectivePoint) -> ProjectivePoint:
    """Transport the divisor point across the exchange of the two matrices.

    Draw the chord through x_first and the divisor point q, take its third
    intersection T with the cubic, then the chord through p_first and T; the
    third intersection Y of that line completes the divisor equivalent to
    the original one with the fixed points moved from the nu = 0 line to the
    mu = 0 line.  Each of the five points is normalized once.
    """
    xn, qn = x_first.normalized(), q.normalized()
    t_point = _third_intersection(coeffs, _line_through(xn, qn), xn, qn)
    pn = p_first.normalized()
    return _third_intersection(coeffs, _line_through(pn, t_point), pn, t_point)
