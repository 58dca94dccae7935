"""Checked 64-bit signed integer arithmetic.

Python integers are exact, so results can never silently wrap; these
helpers reject any result that would not fit a 64-bit signed word.
I64_MIN doubles as the bottom element ("minus infinity") for max-style
reductions and I64_MAX for min-style ones, so labels are required to
stay strictly inside the open interval.
"""

import re
from decimal import Decimal

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1


def check_i64(value: int, context: str = "value") -> int:
    """value, if it fits 64 bits.  The error echoes it in full up to 40
    characters, which every sum or product of two 64-bit values fits, and
    past that as its first 20 characters and its digit count."""
    if not (I64_MIN <= value <= I64_MAX):
        text = str(value)
        if len(text) > 40:
            text = f"{text[:20]}... ({len(text.lstrip('-'))} digits)"
        raise OverflowError(f"{context} {text} outside 64-bit signed range")
    return value


# what int() reads as an integer, past its digit limit too
_INT_LITERAL = re.compile(r"[+-]?\d+(?:_\d+)*")


def plain_ints(text: str) -> bool:
    """Whether int() reads a whitespace-free piece of text only when it is
    -?\\d+, the integer syntax of term labels and list elements: text has
    no '+' and no '_', the two characters int() reads that it refuses."""
    return "+" not in text and "_" not in text


def parse_int(tok: str):
    """int(tok), judged by value at any length.  int(str) refuses more
    than 4,300 digits and Decimal has no such limit, so a longer literal
    is read as a Decimal, made an int when it fits 64 bits, and otherwise
    kept: it compares and prints as its value, so check_i64 refuses it
    as it would the int."""
    try:
        return int(tok)
    except ValueError:
        if not _INT_LITERAL.fullmatch(tok.strip()):
            raise
    value = Decimal(tok)
    return int(value) if I64_MIN <= value <= I64_MAX else value


def checked_add(a: int, b: int) -> int:
    s = a + b
    if not I64_MIN <= s <= I64_MAX:  # one frame a call; check_i64 writes the message
        check_i64(s, "sum")
    return s


def checked_mul(a: int, b: int) -> int:
    p = a * b
    if not I64_MIN <= p <= I64_MAX:  # as in checked_add
        check_i64(p, "product")
    return p
