"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so new error types should subclass one
of the two roots below rather than raising bare ValueError from library code.
"""


class WalklabError(Exception):
    """Base class for all package errors."""


class InputError(WalklabError):
    """Caller handed us something malformed or out of contract (exit code 2)."""


class ParameterError(InputError):
    """Bad parameter value (negative weight, unknown family, bad flag)."""


class UnsupportedInputError(InputError):
    """Structurally valid input outside an operation's domain.

    Examples: a multigraph fed to a weighting scheme, a graph above a
    documented size cap, a degree sequence with odd sum.
    """


class DisconnectedError(UnsupportedInputError):
    """Operation requires a connected graph."""


class SizeCapError(UnsupportedInputError):
    """Exact computation refused because the instance exceeds its size cap."""


class NumericError(WalklabError):
    """Numerical failure or resource blowout (exit code 3)."""


class RejectionFailure(NumericError):
    """Rejection sampling exhausted its attempt budget."""
