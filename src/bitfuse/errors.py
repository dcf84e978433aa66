"""Exception hierarchy for the bitfuse toolkit."""


class BitfuseError(Exception):
    """Base class for all toolkit errors."""


class InvalidSpec(BitfuseError):
    """Model or configuration violates a structural invariant."""


class NumericalBlowup(BitfuseError):
    """A simulated path exceeded the magnitude cap (grid too coarse)."""


class GridMismatch(BitfuseError):
    """Path arrays and time grid are inconsistent."""


class NonMonotoneInput(BitfuseError):
    """An input that must be nondecreasing is not."""


class OutOfHorizon(BitfuseError):
    """Requested evaluation time lies outside the simulated horizon."""


class InconsistentLog(BitfuseError):
    """Message log arrays have mismatched lengths or bad ordering."""


class ZeroInformation(BitfuseError):
    """Accumulated information is zero, the ratio estimator is undefined."""


class GammaTooSmall(BitfuseError):
    """Sequential information target does not exceed the count budget."""


class MessageFlood(BitfuseError):
    """A sensor's trigger would send more messages than the per-sensor
    cap (``triggers.MAX_MESSAGES``)."""


class HorizonExhausted(BitfuseError):
    """The stopping rule did not fire within the simulated horizon."""


class NoMessages(BitfuseError):
    """Timing-only estimator requested before any message arrived."""


class UnsupportedModel(BitfuseError):
    """Operation is defined only for a restricted model family."""


class NonPositiveTime(BitfuseError):
    """Density kernel evaluated at a non-positive time."""


class NonPositiveInputs(BitfuseError):
    """Series evaluated with non-positive time or barrier."""


class QuadratureFailure(BitfuseError):
    """A quadrature rule or a density series failed to meet its tolerance:
    the exit functionals' log-time trapezoid rule disagreed with itself at
    twice the step after every refinement, or a series did not converge."""


class ZeroDrift(BitfuseError):
    """Leading-order exit-time moments are undefined without drift."""


class SampleTooSmall(BitfuseError):
    """Statistical test invoked with too few observations."""


class WorkerDied(BitfuseError):
    """A worker process of ``run_experiment`` died before returning its
    replications' rows."""


class ParseError(BitfuseError):
    """Configuration text is not well formed."""


class ValidationError(BitfuseError):
    """Configuration parsed but violates the schema.

    Carries the full list of violations so a user can fix them in one pass.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
