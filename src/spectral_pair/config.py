"""Tolerance configuration threaded through all numerical operations.

Every tolerance is relative to a natural scale (matrix norm, coefficient
magnitude, eigenvalue spread); absolute thresholds appear nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    # core 3x3 numerics
    leading_coefficient: float = 1e-12   # |c3| vs max coefficient
    singular: float = 1e-12              # |det| vs norm^3 for inversion
    rank: float = 1e-7                   # rank-2 detection window
    kernel_residual: float = 1e-8        # |M v| vs |M| for kernel vectors
    eigenvalue_separation: float = 1e-6  # min |h_i - h_j| vs max |h_i|

    # pair normalization and spectral data
    pair_determinant: float = 1e-12      # nondegeneracy of the raw pair
    gauge: float = 1e-9                  # |u12|, |u13| vs |U|
    divisor_denominator: float = 1e-9
    on_curve: float = 1e-8               # divisor point curve residual
    symmetric_functions: float = 1e-9    # e_k(h) vs (p_plus, p_minus, d1)

    # projective geometry
    coincident_points: float = 1e-12     # cross-product norm for distinct points
    incidence: float = 1e-6              # points claimed on curve/line
    deflation: float = 1e-6              # residual of the two known roots
    third_point_on_curve: float = 1e-8

    # reconstruction
    linear_system: float = 1e-9          # 2x2 solve for the lower-left entries
    closed_form_agreement: float = 1e-7  # closed forms vs linear solve

    # general-position report margins (pass/fail thresholds, not hard errors)
    margin_determinant: float = 1e-6
    margin_eigenvalue_separation: float = 1e-4
    margin_gauge: float = 1e-6
    margin_divisor_denominator: float = 1e-6
    margin_axis_point_separation: float = 1e-3


DEFAULT_TOL = ToleranceConfig()
