"""The package's numerical thresholds, one fixed module constant each.

Each threshold is compared with a quantity over a scale: a norm, a
magnitude or a spread.  Three hard checks floor that scale at 1, so they
are not scale-free: ``max_magnitude`` (the chord's ``cscale``),
``curve_residual`` and ``validate_spectral_data`` (below max|h| = 1 at
max|h|^k).  A fourth is not scale-free either:
``solve_cubic`` compares a monic cubic's exact leading 1 with its largest
coefficient.  ``check_nonsingular`` is scale-free only inside the float
range: SINGULAR |M|^3 overflows above |M| = 5.64e106, failing every
matrix, and is 0 below 1.35e-104, passing every nonzero determinant.  The
report's determinant margin, |det M| / |M|^3, reads 0 where that cube
overflows, above 5.64e102, or is 0, below 1.35e-108.  The modules that
test a quantity import the constants they compare it with.
"""

# core 3x3 numerics
LEADING_COEFFICIENT = 1e-12   # |c3| vs max coefficient
SINGULAR = 1e-12              # |det| vs norm^3 for A, B, U and every inversion
RANK = 1e-7                   # rank-2 detection window
KERNEL_RESIDUAL = 1e-8        # |M v| vs |M| for kernel vectors
EIGENVALUE_SEPARATION = 1e-6  # min |h_i - h_j| vs max |h_i|
EIGENVALUE_TIE = 1e-8         # real parts this close vs max |h_i| are tied

# pair normalization and spectral data
GAUGE = 1e-9                  # min(|u12|, |u13|) vs |U0| in the normal form
DIVISOR_DENOMINATOR = 1e-9    # the divisor's 2x2 determinant vs |y|^2 |A|, times h1's squared relative gap
ON_CURVE = 1e-8               # divisor point curve residual
SYMMETRIC_FUNCTIONS = 1e-9    # e_k(h) vs (p_plus, p_minus, d1), scale floored at min(1, max|h|)^k

# projective geometry
INCIDENCE = 1e-6              # points claimed on the curve; coincident points
DEFLATION = 1e-6              # restricted cubic vanishing on a line
THIRD_POINT_ON_CURVE = 1e-8

# reconstruction: |det U - d2| vs |d2|, scale-free and so not floored; a
# decade under verify's default 1e-6, since d2 is the one component of the
# backward round trip that no equation of reconstruct's solve fixes
RECONSTRUCTED_D2 = 1e-7

# general-position report margins (pass/fail thresholds, not hard errors);
# the eigenvalue gap is the report's one gap check, at 1e-3 because
# reconstruct's U loses accuracy like 1/gap^2 below it
MARGIN_DETERMINANT = 1e-6
MARGIN_EIGENVALUE_SEPARATION = 1e-3
MARGIN_GAUGE = 1e-6
MARGIN_DIVISOR_DENOMINATOR = 1e-6
