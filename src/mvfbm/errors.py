"""The one type of a rejected argument."""

__all__ = ["ArgumentError"]


class ArgumentError(ValueError):
    """An argument rejected by the check that reads it, before any draw.

    The command line exits 2 on it, as on its subclasses ``ConfigError`` and
    ``RegimeViolation``; a bare ``ValueError`` is a defect and propagates."""
