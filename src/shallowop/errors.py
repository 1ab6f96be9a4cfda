"""Shared exception types."""


class ShapeError(ValueError):
    """Operands have incompatible shapes or grid metadata."""


class CoverageError(ValueError):
    """A sample is not covered by any center of an epsilon net."""


class DocumentError(ValueError):
    """A serialized network document is malformed."""


class ConfigError(ValueError):
    """An experiment configuration field is invalid."""


class BudgetError(RuntimeError):
    """A bound the construction guarantees failed to hold on the samples."""
