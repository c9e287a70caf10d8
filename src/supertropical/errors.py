"""Exception types shared across the package."""

from __future__ import annotations


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
    a matrix dimension, a literal's digits, a polynomial degree, the matrix
    scale's digits or a matrix power."""

    def __init__(self, what: str, size: int, bound: int):
        self.size = size
        self.bound = bound
        super().__init__(f"{what}: size {size} exceeds bound {bound}")


class DomainError(SupertropicalError):
    """An argument lies outside the operation's domain."""
