"""Exception types shared across the package."""

from __future__ import annotations

import math

# A refused size of more than 30 digits is reported by its digit count.
_SHOWN_LIMIT = 10**30


class SupertropicalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SupertropicalError):
    """Malformed textual input. Carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            where = f"line {line}" + (f", field {col}" if col is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class ShapeError(SupertropicalError):
    """Dimension mismatch between operands."""


class BoundExceededError(SupertropicalError):
    """An input or computation was refused because a size exceeds its cap:
    a matrix dimension or dimension bound, a literal's digits, a polynomial
    degree, the digits of a matrix or polynomial scale, a matrix power, or a
    campaign's trial count or largest dimension. A size of more than 30
    digits is written as its digit count, so the message stays one short
    line however large the refused size."""

    def __init__(self, what: str, size: int, bound: int):
        self.size = size
        self.bound = bound
        shown = f"of {_digit_count(size)} digits" if size >= _SHOWN_LIMIT else size
        super().__init__(f"{what}: size {shown} exceeds bound {bound}")


class DomainError(SupertropicalError):
    """An argument lies outside the operation's domain."""


def _digit_count(x: int) -> int:
    """Decimal digits of ``x > 0``, without ``str()`` (which refuses long ints)."""
    digits = int(math.log10(x)) + 1  # the float may be one off near a power of ten
    if 10 ** (digits - 1) > x:
        return digits - 1
    return digits + 1 if 10**digits <= x else digits
