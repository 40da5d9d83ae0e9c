"""Exception hierarchy shared by all capfed modules."""


class CapfedError(Exception):
    """Base class for every error raised by this package."""


class ZeroVectorError(CapfedError):
    """A vector with (near-)zero norm cannot be normalized."""


class DomainError(CapfedError):
    """An argument lies outside the mathematical domain of the operation."""


class EmptyInputError(CapfedError):
    """An operation received an empty collection where at least one element is required."""


class LabelOutOfRangeError(CapfedError):
    """A class label does not index a row of the center matrix."""


class ShapeMismatchError(CapfedError):
    """Arrays that must share a shape do not."""


class DegenerateInputError(CapfedError):
    """The input carries only one class of outcomes and the metric is undefined."""


class ParseError(CapfedError):
    """A configuration or data file could not be parsed."""


class ValidationError(CapfedError):
    """A parsed value violates its contract; the message names the offending key."""
