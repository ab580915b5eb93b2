"""Exception hierarchy with machine-readable codes for CLI error reporting."""

from __future__ import annotations


class SpectralPairError(Exception):
    """Base class; every subclass carries a stable ``code`` string."""

    code = "error"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


class SchemaError(SpectralPairError):
    """Malformed or structurally invalid input document."""

    code = "schema"


class GeneralPositionError(SpectralPairError):
    """The input left the open dense stratum where the formulas apply."""

    code = "general_position"


class DegenerateLeadingCoefficient(GeneralPositionError):
    code = "degenerate_leading_coefficient"


class SingularMatrix(GeneralPositionError):
    code = "singular_matrix"


class RankNotTwo(GeneralPositionError):
    code = "rank_not_two"


class RepeatedEigenvalues(GeneralPositionError):
    code = "repeated_eigenvalues"


class GaugeDegenerate(GeneralPositionError):
    code = "gauge_degenerate"


class DegenerateDivisor(GeneralPositionError):
    code = "degenerate_divisor"


class CoincidentPoints(GeneralPositionError):
    code = "coincident_points"


class LineOnCurve(GeneralPositionError):
    code = "line_on_curve"


class InputsNotIncident(GeneralPositionError):
    code = "inputs_not_incident"


class SwappedPairDegenerate(GeneralPositionError):
    code = "swapped_pair_degenerate"


class InvariantViolation(GeneralPositionError):
    """Loaded or constructed spectral data fails its own consistency checks,
    or the U that ``reconstruct`` solves for misses d2 = det U."""

    code = "invariant_violation"


class NonFiniteEntries(SpectralPairError, ValueError):
    """A matrix, or an intermediate tested as one, has a NaN or infinite
    entry, as a product of matrices with entries near 1e160 does.  It is a
    ``ValueError``, as such an entry always raised, and not a
    ``GeneralPositionError``: no check of the general-position report
    measures it."""

    code = "non_finite_entries"


class DeterminantNotUnit(SpectralPairError):
    code = "determinant_not_unit"


class IntermediateDegeneracy(GeneralPositionError):
    """A word action hit a degenerate intermediate; the detail names the
    failing ``prefix`` and the ``cause``'s code."""

    code = "intermediate_degeneracy"
