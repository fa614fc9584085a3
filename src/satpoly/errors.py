"""Exception hierarchy shared across the package.

CLI exit-code mapping: InputError -> 2, BudgetError / SubclassError -> 3,
InternalInvariantError (an implementation bug, never bad input) -> 4;
negative decisions are ordinary return values (exit 1 at the CLI).
"""


class SatpolyError(Exception):
    """Base class for package errors."""


class InputError(SatpolyError):
    """Malformed input: bad dimensions, parse failures, precondition violations."""


class BudgetError(SatpolyError):
    """An enumeration would exceed its configured budget."""


class SubclassError(SatpolyError):
    """Instance falls outside the polynomially solvable subclass."""


class BalanceError(SubclassError):
    """Objective vector violates the column-balance condition."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"no balancing row pair exists for block column {column + 1}")


class FaceMembershipError(InputError):
    """Point does not lie on the face required by a projection."""


class NotAVertexError(InputError):
    """Point is not an integral vertex of the expected shape."""


class InternalInvariantError(SatpolyError):
    """A guaranteed invariant failed; indicates a bug, not bad input."""
