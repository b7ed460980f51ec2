"""Exception types shared across the package.

One class per kind of fault, so a refused input names the same class
whichever function or subcommand received it.  `DemixError` is the base
that callers catch; the package never raises it directly.  The CLI
prints the class name in its one-line message and exits 2 for a
`UsageError` and 1 for every other class.
"""


class DemixError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(DemixError):
    """A value, size, shape or name that the function does not accept."""


class BudgetError(DemixError):
    """Valid input whose dense materialization or enumeration exceeds a fixed cap."""


class NumericalError(DemixError):
    """The arithmetic broke down: a non-finite iterate or lost positive curvature."""


class FormatError(DemixError):
    """A file cannot be read, written or parsed."""


class UsageError(DemixError):
    """Malformed command line; maps to exit code 2."""
