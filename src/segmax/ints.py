"""Checked 64-bit signed integer arithmetic.

Python integers are exact, so results can never silently wrap; these
helpers reject any result that would not fit a 64-bit signed word.
I64_MIN doubles as the bottom element ("minus infinity") for max-style
reductions and I64_MAX for min-style ones, so labels are required to
stay strictly inside the open interval.
"""

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def check_i64(value: int, context: str = "value") -> int:
    if not (I64_MIN <= value <= I64_MAX):
        raise OverflowError(f"{context} {value} outside 64-bit signed range")
    return value


def checked_add(a: int, b: int) -> int:
    return check_i64(a + b, "sum")


def checked_mul(a: int, b: int) -> int:
    return check_i64(a * b, "product")
