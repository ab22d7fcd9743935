"""Exception types shared across the package."""


class DefSetError(Exception):
    """Base class for every error this package raises on purpose."""


class NotOddPrime(DefSetError):
    """The characteristic must be an odd prime."""


class DegreeTooSmall(DefSetError):
    """The extension degree must be at least 1."""


class FieldTooLarge(DefSetError):
    """A size bound is exceeded: the cap on p**m, an exact range, or the printing limit."""


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


class CaseMismatch(DefSetError):
    """A closed-form formula was applied outside its (parity, divisibility) case."""
