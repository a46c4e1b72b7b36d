"""Exception types shared across the engine."""


class RedstarError(Exception):
    """Base class for all engine errors."""


class ContextError(RedstarError):
    """Operands live in different variable contexts."""


class ShapeError(RedstarError):
    """Matrix or vector dimensions do not match."""


class TruncationError(RedstarError):
    """Series operands have different truncation orders."""


class DivisibilityError(RedstarError):
    """Division by nu requested on a series with nonzero constant term."""


class ReliabilityError(RedstarError):
    """A check was requested beyond the reliable order of a series."""


class DegreeOverflowError(RedstarError):
    """An operation needs graded slices beyond the configured degree bound."""


class AcyclicityError(RedstarError):
    """A homotopy solve failed; the complex is not exact at this slice."""


class FiltrationError(RedstarError):
    """A Neumann series did not terminate within its filtration budget."""


class LemmaHypothesisError(RedstarError):
    """A perturbation-lemma precondition failed on a probe."""


class InvarianceError(RedstarError):
    """An input to a reduced operation is not certified invariant."""


class ParseError(RedstarError):
    """Syntax error in a polynomial expression, with position info."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class ConfigError(RedstarError):
    """A scenario configuration failed validation."""
