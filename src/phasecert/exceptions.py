"""Exception types shared across the toolkit."""


class PhasecertError(Exception):
    """Base class for all toolkit errors."""


class SingularLocusError(PhasecertError):
    """Evaluation requested inside an expression's declared singular locus."""


class NodeBudgetError(PhasecertError):
    """An expression grew past the hard node-count cap."""


class NonIntegerDegreeError(PhasecertError):
    """A parity test needs an integer homogeneous degree."""


class SingularAxisError(PhasecertError):
    """Symbol is not smooth at the rescaled axis points (xi' = 0, xi_n = +-1)."""


class RegressionError(PhasecertError):
    """Too few ladder rungs (or degenerate data) for a slope fit."""


class BoundaryPreservationError(PhasecertError):
    """Map does not send the boundary locus to the boundary locus."""


class FiberLinearityError(PhasecertError):
    """Induced boundary map is not linear/trivial in the fiber variables."""


class BoundaryFlatnessError(PhasecertError):
    """Phase restricted to the boundary still depends on the normal covariable."""


class GraphMismatchError(PhasecertError):
    """Phase and map disagree on the graph relation."""


class SignChangeError(PhasecertError):
    """A quantity required to have constant sign changes sign on the grid."""


class CollarBoundsError(PhasecertError):
    """Cutoff scale exceeds the declared collar half-width."""


class CalibrationError(PhasecertError):
    """Parameter search exhausted its budget without an accepted pair."""


class QuadratureBudgetError(PhasecertError):
    """Adaptive quadrature failed to converge within its refinement budget."""


class ScenarioParseError(PhasecertError):
    """Scenario file does not parse."""


class ScenarioValidationError(PhasecertError):
    """Scenario file parses but violates the schema or is inconsistent."""


class UnknownScenarioError(PhasecertError):
    """Requested catalog scenario does not exist."""
