"""Spectral data of pairs of 3x3 complex matrices and the GL(2,Z) action.

A pair (A, B) of nondegenerate matrices modulo simultaneous conjugation is
encoded, away from a measure-zero set, by a plane cubic (the vanishing of
det(lam + mu A + nu B)) together with one distinguished point on it, and
can be reconstructed from that data.  The three standard generators of
GL(2,Z) act on both sides; this package implements both actions and the
machinery to machine-check that the diagrams commute.
"""

from ._kernels_py import BACKEND
from .errors import (
    ClosedFormMismatch,
    CoincidentPoints,
    DegenerateDivisor,
    DegenerateLeadingCoefficient,
    DeterminantNotUnit,
    GaugeDegenerate,
    GeneralPositionError,
    InputsNotIncident,
    IntermediateDegeneracy,
    InvariantViolation,
    LineOnCurve,
    NonFiniteEntries,
    RankNotTwo,
    RepeatedEigenvalues,
    SchemaError,
    SingularA,
    SingularMatrix,
    SpectralPairError,
    SwappedPairDegenerate,
)
from .cubic import chord_swap_divisor
from .gl2z import (
    GL2ZMatrix,
    Generator,
    Word,
    act_on_pair,
    act_spectral,
    act_word_on_pair,
    act_word_spectral,
    decompose_gl2z,
    invert_spectral,
    matrix_of_word,
    parse_word,
    shear_spectral,
    swap_spectral,
    tilde_r_minus,
    verify_commutation,
    word_to_str,
)
from .linalg import (
    CubicPoly,
    Mat3,
    det3,
    eig3,
    inv3,
    kernel_vector,
    solve_cubic,
)
from .randgen import generation_attempts, random_pair, well_conditioned_matrix
from .reconstruct import (
    canonical_form,
    diagonal_entries,
    reconstruct,
)
from .spectral import (
    CurveCoefficients,
    DivisorPoint,
    GeneralPositionReport,
    MatrixPair,
    NormalizedPair,
    SpectralData,
    curve_coefficients,
    curve_residual,
    divisor_point,
    general_position_report,
    normalize_pair,
    spectral_data,
    spectral_data_of_normalized,
    spectral_residuals,
    validate_spectral_data,
)

__version__ = "0.1.0"
