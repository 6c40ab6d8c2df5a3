"""Exception hierarchy shared by all qmeasure modules."""


class QMeasureError(Exception):
    """Base class for all qmeasure errors."""


class DimensionMismatch(QMeasureError):
    """Operands have incompatible matrix dimensions."""


class HermiticityViolation(QMeasureError):
    """Matrix is farther from Hermitian than the construction gate allows."""


class StateValidationError(QMeasureError):
    """Density operator fails positivity or unit-trace requirements."""


class InternalNumericError(QMeasureError):
    """A numerically impossible value was produced (solver failure, negative second moment)."""


class CompletenessViolation(QMeasureError):
    """Kraus operators do not sum to a resolution of the identity."""


class DuplicateLabel(QMeasureError):
    """Two outcomes share the same label."""


class UnknownLabel(QMeasureError):
    """Requested outcome label does not exist on the instrument."""


class MissingLabel(QMeasureError):
    """A value assignment does not cover every instrument outcome."""


class NotExpressible(QMeasureError):
    """Target observable lies outside the span of the POM elements."""


class BiasedInstrument(QMeasureError):
    """Operation requires an unbiased estimation but the assignment is biased."""


class ZeroProbabilityConditioning(QMeasureError):
    """Conditioning on an outcome whose probability vanishes."""


class InvalidStrength(QMeasureError):
    """Weak-probe strength outside (0, 1]."""


class NullOutcome(QMeasureError):
    """Outcome whose POM element has (numerically) zero trace."""


class ZeroPosterior(QMeasureError):
    """Posterior eigen-branch has vanishing conditional probability."""


class MissingIngredient(QMeasureError):
    """Scenario lacks an input required by the requested relation."""


class NegativeRadicand(QMeasureError):
    """Square-root argument is negative beyond round-off tolerance."""


class InvalidArgument(QMeasureError):
    """A command-line argument lies outside the range its command accepts."""


class ParseError(QMeasureError):
    """Scenario file could not be parsed."""


class ValidationError(QMeasureError):
    """Scenario file parsed but failed a validation gate.

    ``kind`` names the failing invariant (e.g. ``"TraceNotOne"``).
    """

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind
