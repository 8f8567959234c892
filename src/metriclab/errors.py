"""Shared exception types. The CLI maps these onto exit codes."""


class ConfigError(ValueError):
    """Invalid configuration: bad key, bad type, or violated invariant."""


class DataFormatError(ValueError):
    """A data file does not parse: bad value, bad label, or broken record."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NumericsError(ArithmeticError):
    """Non-finite values where the contract requires finite ones."""

