"""Spectral data of pairs of 3x3 complex matrices and the GL(2,Z) action.

A pair (A, B) of nondegenerate matrices modulo simultaneous conjugation is
encoded, away from a measure-zero set, by a plane cubic (the vanishing of
det(lam + mu A + nu B)) together with one distinguished point on it, and
can be reconstructed from that data.  The three standard generators of
GL(2,Z) act on both sides; this package implements both actions and the
machinery to machine-check that the diagrams commute.

Each public name is imported from its submodule on first access (PEP 562),
so a caller, the command line above all, compiles only what it uses.
"""

from importlib import import_module

# Importing the submodule binds the package's ``reconstruct`` to the module,
# which would shadow the function if it were resolved lazily.
from .reconstruct import reconstruct

__version__ = "0.1.0"

#: submodule -> the public names it defines
_EXPORTS = {
    "_kernels_py": ("BACKEND",),
    "errors": (
        "CoincidentPoints", "DegenerateDivisor",
        "DegenerateLeadingCoefficient", "DeterminantNotUnit",
        "GaugeDegenerate", "GeneralPositionError", "InputsNotIncident",
        "IntermediateDegeneracy", "InvariantViolation", "LineOnCurve",
        "NonFiniteEntries", "RankNotTwo", "RepeatedEigenvalues",
        "SchemaError", "SingularMatrix", "SpectralPairError",
        "SwappedPairDegenerate"),
    "cubic": ("chord_swap_divisor",),
    "gl2z": (
        "GL2ZMatrix", "Generator", "Word", "act_on_pair", "act_spectral",
        "act_word_on_pair", "act_word_spectral", "decompose_gl2z",
        "invert_spectral", "matrix_of_word", "parse_word", "shear_spectral",
        "swap_spectral", "tilde_r_minus", "verify_commutation",
        "word_to_str"),
    "linalg": (
        "CubicPoly", "Mat3", "det3", "eig3", "inv3", "kernel_vector",
        "solve_cubic"),
    "randgen": (
        "generation_attempts", "random_pair", "well_conditioned_matrix"),
    "reconstruct": ("canonical_form", "diagonal_entries", "reconstruct"),
    "spectral": (
        "CurveCoefficients", "DivisorPoint", "GeneralPositionReport",
        "MatrixPair", "NormalizedPair", "SpectralData", "curve_coefficients",
        "curve_residual", "divisor_point", "general_position_report",
        "normalize_pair", "spectral_data", "spectral_data_of_normalized",
        "spectral_residuals", "validate_spectral_data"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
