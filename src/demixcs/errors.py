"""Exception types shared across the package."""


class DemixError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(DemixError):
    """Operand shape is incompatible with an operator's dimensions."""


class ShapeError(DemixError):
    """A structural size requirement is violated (e.g. not a power of two)."""


class BudgetError(DemixError):
    """A dense materialization or enumeration would exceed its budget."""


class SparsityError(DemixError):
    """Requested sparsity level exceeds the vector length."""


class ArgumentError(DemixError):
    """An argument value is outside its admissible range."""


class NumericalError(DemixError):
    """A numerical routine broke down (e.g. loss of positive curvature)."""


class SchemaError(DemixError):
    """A table is missing columns required by the requested output."""


class FormatError(DemixError):
    """A file cannot be read or written, or does not follow its format."""


class UsageError(DemixError):
    """Malformed command line; maps to exit code 2."""
