"""Exception types shared across the package.

Checked 64-bit arithmetic raises the builtin OverflowError; everything
else raises a SegmaxError subclass so callers (and the CLI exit-status
mapping) can tell input problems, law-gate refusals, and resource guards
apart.
"""

from decimal import Decimal


class SegmaxError(Exception):
    """Base class for all package-specific errors."""


class TermSyntaxError(SegmaxError):
    """Malformed s-expression input; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ShapeMismatchError(SegmaxError):
    """Constructor, arity, or child shape does not fit the declared shape."""


class KindMismatchError(SegmaxError):
    """Collections of different kinds were combined."""


class ReduceLawError(SegmaxError):
    """A reduction operator failed a law, checked on a fixed pool, that the
    collection kind requires (associativity, commutativity for bags, idempotence
    for sets); raised by reduce, and by the distributivity gate for
    lists and bags."""


class DistributivityError(SegmaxError):
    """The (semiring, collection kind) pair fails the distributivity gate:
    a set-valued reduction needs an idempotent combining operator."""


class SizeGuardError(SegmaxError):
    """A pruning enumeration would exceed the element guard, pruning.GUARD."""

    def __init__(self, size: int, guard: int):
        # Decimal, unlike str(), prints counts past 4,300 digits
        super().__init__(f"collection of {Decimal(size)} elements exceeds guard {guard}")
        self.size = size
        self.guard = guard


class RoutesDisagreeError(SegmaxError):
    """mss_generic's check route met a scan value and a brute value that differ."""


class CarrierError(SegmaxError):
    """A label or carrier value lies outside the semiring's domain."""


class BenchBudgetError(SegmaxError):
    """A benchmark run exceeded its wall-clock budget."""


class UnknownLawError(SegmaxError):
    """No law with the requested id is registered."""
