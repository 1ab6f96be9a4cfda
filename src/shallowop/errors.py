"""Shared exception types, and the wrapper that names a bad field."""


class _ArgumentError(ValueError):
    """A value is invalid.

    A constructor raises it with arg, the name of the bad argument, and
    reason, what is wrong with it ("must be positive, got 0"); its text is
    subject (arg by default) followed by reason.  A reader restates the
    reason for the field the argument came from.
    """

    def __init__(self, reason, arg=None, subject=None):
        super().__init__(reason if arg is None else f"{subject or arg} {reason}")
        self.arg = arg
        self.reason = reason


class ShapeError(_ArgumentError):
    """Operands have incompatible shapes or grid metadata."""


class CoverageError(ValueError):
    """A sample is not covered by any center of an epsilon net."""


class DocumentError(ValueError):
    """A serialized network document is malformed."""


class ConfigError(_ArgumentError):
    """An experiment configuration field, or a constructor argument, is invalid."""


class BudgetError(RuntimeError):
    """A bound the construction guarantees failed to hold on the samples."""


def _named(error, names, at, make, /, *args, **kwargs):
    """make(*args, **kwargs), read from the field at ("" at the top level).

    A TypeError or ValueError it raises is raised again as error naming the
    field: '<at>.<arg>' when the error names its argument arg, else at.
    names renames fields written apart from their argument, by
    '<at>.<arg>', or by arg alone where every at writes it alike.
    """
    try:
        return make(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        arg = getattr(exc, "arg", None)
        if arg is None:
            raise error(f"field {at!r}: {exc}") from exc
        field = (names.get(f"{at}.{arg}")
                 or ".".join(filter(None, (at, names.get(arg, arg)))))
        raise error(f"field {field!r} {exc.reason}") from exc
