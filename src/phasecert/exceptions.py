"""Exception types shared across the toolkit.

A check fails by returning (False, metrics), never by raising.  A
PhasecertError raised inside a check means it could not be evaluated:

* precondition errors, the input is outside the check's domain:
  BoundaryPreservationError, NonIntegerDegreeError, CollarBoundsError;
* numeric errors, the evaluation broke down: SingularLocusError,
  SingularAxisError, NodeBudgetError, RegressionError, CalibrationError,
  QuadratureBudgetError.

The rest are raised outside checks: by the scenario loader, and
BoundaryFlatnessError by Scenario.generating_phase, for the CLI commands
that need a phase and have no verdict to return.
"""


class PhasecertError(Exception):
    """Base class for all toolkit errors."""


class BoundaryPreservationError(PhasecertError):
    """Map does not send the boundary locus to the boundary locus."""


class NonIntegerDegreeError(PhasecertError):
    """A parity test needs an integer homogeneous degree."""


class CollarBoundsError(PhasecertError):
    """Cutoff scale exceeds the declared collar half-width."""


class SingularLocusError(PhasecertError):
    """Evaluation requested inside an expression's declared singular locus."""


class SingularAxisError(PhasecertError):
    """Symbol is not smooth at the rescaled axis points (xi' = 0, xi_n = +-1)."""


class NodeBudgetError(PhasecertError):
    """An expression grew past the hard node-count cap."""


class RegressionError(PhasecertError):
    """Too few ladder rungs (or degenerate data) for a slope fit."""


class CalibrationError(PhasecertError):
    """Parameter search exhausted its budget without an accepted pair."""


class QuadratureBudgetError(PhasecertError):
    """Adaptive quadrature failed to converge within its pair budget."""


class BoundaryFlatnessError(PhasecertError):
    """Phase restricted to the boundary still depends on the normal covariable."""


class ScenarioParseError(PhasecertError):
    """Scenario file does not parse."""


class ScenarioValidationError(PhasecertError):
    """Scenario file parses but violates the schema or is inconsistent."""


class UnknownScenarioError(PhasecertError):
    """Requested catalog scenario does not exist."""
