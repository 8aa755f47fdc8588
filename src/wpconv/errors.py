"""Exception types shared across the package."""


class NumericUnderflow(ArithmeticError):
    """A density evaluated to zero or a non-finite value in linear space.

    Work in log space (via the log-density evaluators) instead of retrying.
    """


class UnsupportedDimension(ValueError):
    """Operation not available for this dimension / symmetry combination."""


class DriftConditionFailed(RuntimeError):
    """A positivity hypothesis of the drift construction failed on the grid."""


class SaturatedAtGridEnd(RuntimeError):
    """A generalized inverse was queried outside the tabulated range."""


class InconclusiveFit(RuntimeError):
    """No candidate asymptotic family reached the r-squared threshold."""


class HypothesisFailed(RuntimeError):
    """A comparison hypothesis (limit-ratio admissibility) does not hold."""


class StepSizeTooLarge(RuntimeError):
    """A simulated path left the guarded domain."""


class CalibrationFailed(RuntimeError):
    """No constant makes the functional inequality hold on the calibration set."""


class ConfigError(ValueError):
    """Run configuration failed validation; the message names the key path."""
