"""Exact arithmetic for max-plus numbers extended with ghosts.

The carrier has three kinds of element: ``-inf`` (the additive identity),
tangible values, and ghost values (a parallel copy of the tangibles that
records ties). Magnitudes are exact `fractions.Fraction`, so equality of
magnitudes -- the event that produces ghosts -- is always decided exactly.

Addition takes the larger magnitude; a tie comes out ghost. Multiplication
adds magnitudes and is ghost as soon as one factor is.
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Iterable

from .errors import BoundExceededError, DomainError, ParseError, _digit_count


class Kind(Enum):
    ZERO = "zero"
    TANGIBLE = "tangible"
    GHOST = "ghost"


class _Record:
    """Equality, hash and repr over the attributes that ``_fields`` names, as
    a dataclass derives them: an instance equals only an instance of the same
    class with equal fields, hashes as the tuple of its fields and shows as
    ``Name(field=value, ...)``. A subclass without ``__slots__`` whose
    ``__init__`` sets the fields in ``_fields`` order pickles as a dataclass
    with the same fields did."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # The tuple of fields, read by one `attrgetter` built per class.
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Scalar:
    """A max-plus number, never changed once built: ``-inf``, tangible, or ghost.

    Equality is structural (same kind, same magnitude). The magnitude is
    ``None`` exactly for the zero element; everywhere it participates in an
    order comparison it reads as minus infinity. A pickle holds the list
    ``[kind, value]``.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: Kind, value: Fraction | None = None):
        if kind is Kind.ZERO:
            if value is not None:
                raise DomainError("the zero element carries no magnitude")
        elif not isinstance(value, Fraction):
            raise DomainError(f"{kind.value} scalar needs an exact magnitude")
        self.kind = kind
        self.value = value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind is other.kind and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __getstate__(self) -> list:
        return [self.kind, self.value]

    def __setstate__(self, state: list) -> None:
        self.kind, self.value = state

    @property
    def is_zero(self) -> bool:
        return self.kind is Kind.ZERO

    @property
    def is_tangible(self) -> bool:
        return self.kind is Kind.TANGIBLE

    @property
    def is_ghost(self) -> bool:
        return self.kind is Kind.GHOST

    def __add__(self, other: Scalar) -> Scalar:
        if self.kind is Kind.ZERO:
            return other
        if other.kind is Kind.ZERO:
            return self
        if self.value > other.value:
            return self
        if self.value < other.value:
            return other
        # Tie: the result is ghost whatever the operand kinds were.
        if self.kind is Kind.GHOST:
            return self
        if other.kind is Kind.GHOST:
            return other
        return Scalar(Kind.GHOST, self.value)

    def __mul__(self, other: Scalar) -> Scalar:
        if self.kind is Kind.ZERO or other.kind is Kind.ZERO:
            return ZERO
        if self.kind is Kind.GHOST or other.kind is Kind.GHOST:
            return Scalar(Kind.GHOST, self.value + other.value)
        return Scalar(Kind.TANGIBLE, self.value + other.value)

    def __pow__(self, k: int) -> Scalar:
        if k < 0:
            raise DomainError("negative powers are not defined here")
        if k == 0:
            return ONE
        if self.kind is Kind.ZERO:
            return ZERO
        return Scalar(self.kind, self.value * k)

    def root(self, k: int) -> Scalar:
        """The unique k-th root: magnitude divided by k, kind preserved."""
        if k < 1:
            raise DomainError("root index must be at least 1")
        if self.kind is Kind.ZERO:
            return ZERO
        return Scalar(self.kind, self.value / k)

    def as_ghost(self) -> Scalar:
        """Project onto the ghost copy; ghosts and zero are fixed."""
        if self.kind is Kind.TANGIBLE:
            return Scalar(Kind.GHOST, self.value)
        return self

    def reciprocal(self) -> Scalar:
        if self.kind is Kind.ZERO:
            raise DomainError("the zero element has no reciprocal")
        return Scalar(self.kind, -self.value)

    def surpasses(self, other: Scalar) -> bool:
        """Ghost-surpass relation: equal, or ghost with magnitude >= other's."""
        if self == other:
            return True
        if self.kind is not Kind.GHOST:
            return False
        if other.kind is Kind.ZERO:
            return True
        return self.value >= other.value

    def __str__(self) -> str:
        if self.kind is Kind.ZERO:
            return "-inf"
        text = str(self.value)
        return text + "g" if self.kind is Kind.GHOST else text

    def __repr__(self) -> str:
        return f"Scalar({self})"


ZERO = Scalar(Kind.ZERO)
ONE = Scalar(Kind.TANGIBLE, Fraction(0))


def tangible(value) -> Scalar:
    return Scalar(Kind.TANGIBLE, Fraction(value))


def ghost(value) -> Scalar:
    return Scalar(Kind.GHOST, Fraction(value))


# Numerators, denominators and degrees are capped below the interpreter's
# int() limit (4,300 digits by default), so the outcome does not depend on it.
MAX_LITERAL_DIGITS = 1000
DIGITS = rf"[0-9]{{1,{MAX_LITERAL_DIGITS}}}"
# The rational literal; groups 1 to 3 are numerator, denominator, ghost mark.
RATIONAL = rf"(-?{DIGITS})(?:/({DIGITS}))?(g)?"
_SCALAR_RE = re.compile(RATIONAL + r"\Z")
_LONG_DIGITS_RE = re.compile(rf"[0-9]{{{MAX_LITERAL_DIGITS + 1},}}")


def check_digits(text: str) -> None:
    """Refuse a run of over `MAX_LITERAL_DIGITS` digits in text the capped pattern failed on."""
    run = _LONG_DIGITS_RE.search(text)
    if run is not None:
        raise BoundExceededError("number of digits", len(run[0]), MAX_LITERAL_DIGITS)


# Faulty text is quoted in full in an error up to this many characters, and
# past it by its first and last characters and its length, so that an error
# message stays short however long the text.
_QUOTE_LIMIT = 100
_QUOTE_HEAD, _QUOTE_TAIL = 40, 20


def _quoted(text: str) -> str:
    """``text`` as an error message quotes it: its ``repr`` up to
    `_QUOTE_LIMIT` characters, else the ``repr`` of its head and of its
    tail, with its length in characters."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_HEAD]!r} ... {text[-_QUOTE_TAIL:]!r} ({len(text):,} characters)"


def literal_ratio(num: str, den: str | None, text: str) -> tuple[int, int]:
    """Numerator and denominator of a matched rational literal, as written;
    ``text`` is quoted in errors."""
    if den is None:
        return int(num), 1
    if q := int(den):
        return int(num), q
    raise ParseError(f"zero denominator in {_quoted(text)}")


def scalar_parts(text: str) -> tuple[int | None, int, bool]:
    """Numerator and denominator as written, and the ghost bit, of a string
    in the grammar of `parse_scalar`, with its errors; ``(None, 1, False)``
    for ``-inf``."""
    if not isinstance(text, str):
        raise ParseError(f"expected a scalar string, got {type(text).__name__}")
    stripped = text.strip()
    if stripped == "-inf":
        return None, 1, False
    match = _SCALAR_RE.match(stripped)
    if match is None:
        check_digits(stripped)
        raise ParseError(f"not a scalar: {_quoted(text)}")
    num, den, ghost_mark = match.groups()
    return (*literal_ratio(num, den, text), ghost_mark is not None)


def parse_scalar(text: str) -> Scalar:
    """Parse ``-inf`` | RATIONAL | RATIONAL``g``, RATIONAL = ``[-]digits[/digits]``.

    A number of over `MAX_LITERAL_DIGITS` digits raises `BoundExceededError`.
    """
    p, q, ghost_bit = scalar_parts(text)
    if p is None:
        return ZERO
    return Scalar(Kind.GHOST if ghost_bit else Kind.TANGIBLE, Fraction(p, q))


# ---------------------------------------------------------------------------
# Keys: the integer form the matrix kernels and the polynomial envelope run on.
#
# Multiplying every magnitude by one positive constant ``scale`` keeps order,
# ties and kinds, so a value is kept as the key
# ``(numerator * (scale // denominator)) << 1 | is_ghost``, ``None`` for
# ``-inf``, with ``scale`` a common multiple of the denominators at hand
# (`_key_scale`). In key space a product is ``x + y - (x & y & 1)``, and a sum
# takes the key with the larger ``k >> 1``, or on a tie the ghost key
# ``k | 1``. `_encode_keys` and `_decode` convert between keys and scalars;
# `_key_pow`, `_key_sum` and `_key_surpasses` are `Scalar`'s power, sum and
# ghost-surpass on keys at one scale.

# A scale has at most the digits of two literal denominators, so every
# magnitude computed from it stays within the interpreter's ``str()`` limit;
# ``_SCALE_LIMIT`` is the first scale refused.
_MAX_SCALE_DIGITS = 2 * MAX_LITERAL_DIGITS
_SCALE_LIMIT = 10**_MAX_SCALE_DIGITS


def _key_scale(denominators: Iterable[int], what: str) -> int:
    """The LCM of ``denominators``, taken in the order given and refused as
    soon as the running LCM passes `_MAX_SCALE_DIGITS` digits, so an
    oversized one is never built in full; ``what`` names its owner
    (``matrix`` or ``polynomial``)."""
    scale = 1
    for q in dict.fromkeys(denominators):
        if scale % q:
            scale = lcm(scale, q)
            if scale >= _SCALE_LIMIT:
                raise BoundExceededError(
                    f"digits of the {what} scale", _digit_count(scale), _MAX_SCALE_DIGITS
                )
    return scale


def _encode_keys(values: Iterable[Scalar], scale: int) -> list[int | None]:
    """The keys of ``values`` at ``scale``, a multiple of their denominators."""
    ghost = Kind.GHOST
    keys = []
    for v in values:
        if (m := v.value) is None:
            keys.append(None)
        else:
            p, q = m.as_integer_ratio()
            keys.append((p * (scale // q)) << 1 | (v.kind is ghost))
    return keys


def _decode(k: int | None, scale: int) -> Scalar:
    """The scalar of key ``k`` at ``scale``."""
    if k is None:
        return ZERO
    return Scalar(Kind.GHOST if k & 1 else Kind.TANGIBLE, Fraction(k >> 1, scale))


def _key_pow(k: int | None, m: int) -> int | None:
    """The key of the m-th power of key ``k``'s scalar: the magnitude m-fold
    and the ghost bit kept, or the unit key 0 for m = 0, as `Scalar.__pow__`."""
    if m == 0:
        return 0
    return None if k is None else ((k >> 1) * m) << 1 | (k & 1)


def _key_sum(keys: Iterable[int | None]) -> int | None:
    """The key of the sum of the keys' scalars: the largest magnitude, ghost on a tie."""
    acc = None
    for k in keys:
        if k is None:
            continue
        if acc is None or k > acc | 1:
            acc = k
        elif k >> 1 == acc >> 1:
            acc |= 1
    return acc


def _key_surpasses(x: int | None, y: int | None) -> bool:
    """`Scalar.surpasses` on two keys at one scale."""
    if x == y:
        return True
    return x is not None and x & 1 == 1 and (y is None or x >> 1 >= y >> 1)
