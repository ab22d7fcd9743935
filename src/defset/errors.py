"""Exception types shared across the package."""


class DefSetError(Exception):
    """Base class for every error this package raises on purpose."""


class NotOddPrime(DefSetError):
    """The characteristic must be an odd prime."""


class DegreeTooSmall(DefSetError):
    """The extension degree must be at least 1."""


class FieldTooLarge(DefSetError):
    """p**m exceeds the enumeration cap, or a table entry the integer-printing limit."""


class PrimeMismatch(DefSetError):
    """Operands live in cyclotomic rings of different primes."""


class EmptyDistribution(DefSetError):
    """The weight distribution has no nonzero weight."""


class NonIntegralTableEntry(DefSetError):
    """A closed-form table expression did not evaluate to an integer.

    This always signals a case-dispatch or implementation bug, never bad user
    input: every table entry divides exactly in its own (parity, divisibility)
    regime.
    """


class InexactTransform(DefSetError):
    """A floating-point transform count lies too far from an integer to round.

    Like NonIntegralTableEntry, this signals a numerical or implementation
    fault, never bad user input.
    """


class CaseMismatch(DefSetError):
    """A closed-form formula was applied outside its (parity, divisibility) case."""
