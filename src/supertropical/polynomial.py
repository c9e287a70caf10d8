"""Univariate polynomials over the ghost-extended max-plus scalars.

A polynomial is a coefficient vector indexed by degree. Evaluation takes
the dominant monomial, so the function a polynomial computes is governed
by the upper concave envelope of the points (degree, magnitude): monomials
on the envelope are *essential*, monomials strictly below never matter.

Root structure falls out of the envelope too. Where two consecutive strict
envelope vertices with tangible coefficients cross, evaluation ties and we
get a corner root whose multiplicity is the degree gap. Where a ghost
essential monomial attains the maximum, evaluation is ghost over a whole
interval of magnitudes.

A `Polynomial` is its keys: a scale and a key per degree, in the format
that ``scalar.py`` describes and the matrix kernels use. Scaling every
magnitude by one constant leaves the hull unchanged, so the envelope runs
on the keys as plain ints and keeps each crossing as an int pair. A
crossing becomes an exact `Fraction` only where a caller reports it: a
corner root or a ghost interval's end in `roots`, a distinct cut in
`breakpoints`. The corner-root law compares corner roots as the int pairs
themselves. ``coeffs`` are decoded on their first read, unless
``Polynomial(coeffs)`` was given them. A scale of more than
``2 * MAX_LITERAL_DIGITS`` digits is refused with `BoundExceededError`
while it is being built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterator, NoReturn, Sequence

from .errors import BoundExceededError, DomainError, ParseError
from .scalar import DIGITS, RATIONAL, check_digits, literal_ratio
from .scalar import Kind, ONE, Scalar, ZERO, scalar_parts, tangible
from .scalar import _Record, _decode, _encode_keys, _key_scale, _key_sum, _quoted


class Polynomial(_Record):
    """Coefficients by ascending degree, kept as keys; normalized so the top
    one is nonzero, and the zero polynomial is the single key ``None``.
    Equality, hash and pickles are those of ``coeffs``.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        cs = list(coeffs) or [ZERO]
        while len(cs) > 1 and cs[-1].is_zero:
            cs.pop()
        scale = _key_scale((m.denominator for c in cs if (m := c.value) is not None), "polynomial")
        self._keys = (scale, tuple(_encode_keys(cs, scale)))
        self.coeffs = tuple(cs)

    @classmethod
    def _from_keys(cls, scale: int, keys: Sequence[int | None]) -> Polynomial:
        """The polynomial whose degree-``d`` coefficient has key ``keys[d]``
        at ``scale``, normalized like ``coeffs``; nothing is decoded."""
        keys = list(keys)
        while len(keys) > 1 and keys[-1] is None:
            keys.pop()
        f = object.__new__(cls)
        f._keys = (scale, tuple(keys) or (None,))
        return f

    @cached_property
    def coeffs(self) -> tuple[Scalar, ...]:
        """The coefficients as `Scalar` values, decoded on their first read."""
        scale, keys = self._keys
        return tuple([_decode(k, scale) for k in keys])

    def __getstate__(self) -> dict:
        """A pickle holds ``coeffs`` only, not the keys and the envelope."""
        return {"coeffs": self.coeffs}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["coeffs"])

    @property
    def is_zero(self) -> bool:
        return self._keys[1] == (None,)

    @property
    def degree(self) -> int:
        """Degree of the leading stored coefficient (0 for the zero polynomial)."""
        return len(self._keys[1]) - 1

    @cached_property
    def _hull(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """The envelope as `_envelope` gives it, computed once and shared by
        `roots`, `essential`, `breakpoints` and the corner-root law."""
        return _envelope(self)

    def coeff(self, d: int) -> Scalar:
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else ZERO

    def evaluate(self, x: Scalar) -> Scalar:
        total = self.coeffs[0]
        power = ONE
        for c in self.coeffs[1:]:
            power = power * x
            if not c.is_zero:
                total = total + c * power
        return total

    def __add__(self, other: Polynomial) -> Polynomial:
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(tuple(self.coeff(i) + other.coeff(i) for i in range(n)))

    def __mul__(self, other: Polynomial) -> Polynomial:
        if self.is_zero or other.is_zero:
            return Polynomial((ZERO,))
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return Polynomial(tuple(out))

    def __pow__(self, m: int) -> Polynomial:
        if m < 0:
            raise DomainError("negative polynomial powers are not defined")
        result = Polynomial((ONE,))
        for _ in range(m):
            result = result * self
        return result

    def surpasses(self, other: Polynomial) -> bool:
        """Coefficientwise ghost-surpass; the shorter side pads with ``-inf``."""
        n = max(len(self.coeffs), len(other.coeffs))
        return all(self.coeff(i).surpasses(other.coeff(i)) for i in range(n))

    def __str__(self) -> str:
        if self.is_zero:
            return "-inf"
        scale, keys = self._keys
        terms = [(d, _decode(k, scale)) for d, k in enumerate(keys) if k is not None]
        return " + ".join(_format_term(c, d) for d, c in reversed(terms))

    def __repr__(self) -> str:
        return f"Polynomial({self})"

    def to_json_dict(self) -> dict:
        return {"coeffs": coeff_strings(self), "text": str(self)}


def _format_term(c: Scalar, d: int) -> str:
    if d == 0:
        return str(c)
    xs = "x" if d == 1 else f"x^{d}"
    return xs if c == ONE else f"{c}{xs}"


# Terms above this degree are refused before any coefficient tuple is built.
MAX_PARSE_DEGREE = 100_000

# One ``+``-separated piece of a polynomial text, with the ``+`` before it,
# holding one term: an optional coefficient (``-inf``, or a rational whose
# groups are numerator, denominator and ghost mark) and an optional ``x``
# with its degree, at least one of the two (the lookahead), with whitespace
# around. A match starts only at the start of the text or at a ``+`` and
# ends just before the next ``+`` or the end, so a text has one match per
# well-formed piece.
_PIECE_RE = re.compile(
    rf"(?:\A|\+)\s*(?=[-0-9x])(?:(-inf)|{RATIONAL})?(?:\s*(x)(?:\^({DIGITS}))?)?\s*(?=\+|\Z)"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``COEFF x^DEG`` terms joined by ``+``; missing degrees are ``-inf``.

    The unit coefficient may be omitted (``x^2``), degree 1 drops the caret
    (``4x``), and a bare coefficient is the constant term. Repeated degrees
    add up. A degree above `MAX_PARSE_DEGREE`, a number of more than
    `MAX_LITERAL_DIGITS` digits, or a scale (the LCM of the denominators as
    written, taken in text order) of more than twice that many digits raises
    `BoundExceededError`.

    One ``findall`` reads the whole text, and the text is well formed
    exactly when it finds one match per ``+``-separated piece. Otherwise,
    or on a zero denominator, the pieces are matched again one at a time,
    and the first faulty term in text order is the one reported. The degree
    bound is checked once every term has parsed. The terms are read
    straight into keys; no `Scalar` is built.
    """
    if not text or text.isspace():
        raise ParseError("empty polynomial")
    found = _PIECE_RE.findall(text)
    den_texts = dict.fromkeys([den for _, _, den, _, _, _ in found if den])
    dens = [int(den) for den in den_texts]
    if len(found) != text.count("+") + 1 or 0 in dens:
        _raise_first_fault(text)
    degrees = [int(deg) if deg else 1 if x else 0 for _, _, _, _, x, deg in found]
    top = max(degrees)
    if top > MAX_PARSE_DEGREE:
        raise BoundExceededError("polynomial degree", top, MAX_PARSE_DEGREE)
    scale = _key_scale(dens, "polynomial")
    factors = {den: scale // q for den, q in zip(den_texts, dens)}
    factors[""] = scale
    keys: list[int | None] = [None] * (top + 1)
    for (inf, num, den, ghost_mark, _, _), degree in zip(found, degrees):
        if inf:
            continue
        key = (int(num) * factors[den]) << 1 | (ghost_mark == "g") if num else 0
        old = keys[degree]
        keys[degree] = key if old is None else _key_sum((old, key))
    return Polynomial._from_keys(scale, keys)


def _raise_first_fault(text: str) -> NoReturn:
    """Raise the error of the first term of ``text``, in text order, that is
    malformed or has a zero denominator."""
    start = 0
    for i, raw in enumerate(text.split("+")):
        end = start + (i > 0) + len(raw)
        # At position 0 the pattern may skip a leading "+" and match the
        # second piece, so a match must also end where this piece does.
        match = _PIECE_RE.match(text, start)
        if match is None or match.end() != end:
            term = raw.strip()
            check_digits(term)
            raise ParseError(f"not a polynomial term: {_quoted(term)}")
        _, num, den, ghost_mark, _, _ = match.groups("")
        if den:
            literal_ratio(num, den, f"{num}/{den}{ghost_mark}")
        start = end


def coeff_strings(f: Polynomial) -> list[str]:
    """JSON form: coefficient strings indexed by degree."""
    return [str(c) for c in f.coeffs]


def polynomial_from_strings(strings: Sequence[str]) -> Polynomial:
    """The polynomial whose degree-``i`` coefficient is ``strings[i]``, in
    the grammar of `parse_scalar`; each string is read straight into its
    key, so no `Scalar` is built. A degree above `MAX_PARSE_DEGREE` raises
    `BoundExceededError`, once every string has parsed."""
    parts = [scalar_parts(s) for s in strings]
    if len(parts) > MAX_PARSE_DEGREE + 1:
        raise BoundExceededError("polynomial degree", len(parts) - 1, MAX_PARSE_DEGREE)
    scale = _key_scale((q for p, q, _ in parts if p is not None), "polynomial")
    keys = [None if p is None else (p * (scale // q)) << 1 | ghost_bit for p, q, ghost_bit in parts]
    return Polynomial._from_keys(scale, keys)


# ---------------------------------------------------------------------------
# Envelope geometry.

def _envelope(f: Polynomial) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The degrees of the upper hull of the support, with the crossing of
    each consecutive pair.

    ``cuts[k]`` is the crossing of hull points ``k`` and ``k + 1``. The last
    hull point lies strictly below the segment from the point before it to
    a new point exactly when its crossing with the new point is below the
    last cut. The monotone chain pops only those points and keeps the
    on-edge ones, so the hull is exactly the essential support, by
    ascending degree, and each crossing is computed once. The cuts never
    decrease, and a point lies on an edge exactly when the cuts on its two
    sides are equal. The strict vertices are the two ends plus every point
    where the cut changes.

    Scaling every magnitude by one positive constant leaves the hull as it
    is, so the walk runs on ``f``'s keys without their ghost bits: the
    magnitudes times ``f``'s scale, which are plain ints. A crossing is kept
    as the int pair ``(key difference, degree gap)``, whose second entry is
    positive: its magnitude is ``num / (den * scale)`` (`_cut_value`). The
    pairs are not reduced, so two cuts are equal when `_same_cut` says so,
    not when the tuples are: ``x^3 + 2gx + 3`` has the cuts ``(1, 1)`` and
    ``(2, 2)``.

    Most points of a long support lie below the hull, and the chain would
    push each and pop it again. So a polynomial of degree `_RECORDS_ABOVE`
    or more walks only `_hull_candidates`, which hold every hull point; the
    hull of a subset that holds all of them is the same, with the same
    cuts. Below that degree, finding the candidates costs more than the
    chain saves: measured per envelope on seeded polynomials, the two walks
    break even at about degree 8 to 10. So the characteristic polynomial of
    a matrix up to 9x9 walks every point.
    """
    keys = f._keys[1]
    hull: list[tuple[int, int]] = []
    cuts: list[tuple[int, int]] = []
    for d, k in enumerate(keys) if len(keys) <= _RECORDS_ABOVE else _hull_candidates(keys):
        if k is None:
            continue
        key = k >> 1
        while hull:
            last_d, last_key = hull[-1]
            num, den = last_key - key, d - last_d
            if not cuts or num * cuts[-1][1] >= cuts[-1][0] * den:
                cuts.append((num, den))
                break
            hull.pop()
            cuts.pop()
        hull.append((d, key))
    # Tuples are built from lists, so each is allocated at its final size.
    # From a generator, CPython allocates a guessed size and resizes, and the
    # freed tuple then fills the free list of a size it was not taken from,
    # which only a full garbage collection empties.
    return tuple([d for d, _ in hull]), tuple(cuts)


# Polynomials of this degree or more walk only `_hull_candidates` (see
# `_envelope` for the measurement that set it).
_RECORDS_ABOVE = 10


def _hull_candidates(keys: Sequence[int | None]) -> list[tuple[int, int]]:
    """The ``(degree, key)`` pairs that can lie on the upper hull of
    ``keys``' support, by ascending degree: before the first highest point,
    each point at least as high as every point before it; from there on,
    each point at least as high as every point after it.

    The hull is concave, so it rises up to its first highest point and does
    not rise after it. A hull point before that peak is therefore at least
    as high as the hull anywhere before it, and so as every point there;
    one from the peak on is, in the same way, at least as high as every
    point after it. The test after the peak is non-strict, which keeps the
    on-edge points and every point of a flat top; the one before it is
    non-strict too, though there the hull rises strictly and a tie is never
    on it. ``k >= floor``, with ``floor = r & -2`` for the key ``r`` of the
    last record, compares magnitudes whatever the two ghost bits are.
    """
    left: list[int] = []
    floor = None
    for d, k in enumerate(keys):
        if k is not None and (floor is None or k >= floor):
            floor = k & -2
            left.append(d)
    # The records that reach the top magnitude end the list; the first of
    # them is the first highest point.
    peak = len(left) - 1
    while peak and keys[left[peak - 1]] & -2 == floor:
        peak -= 1
    right: list[int] = []
    floor = None
    for d in range(len(keys) - 1, left[peak] - 1, -1):
        k = keys[d]
        if k is not None and (floor is None or k >= floor):
            floor = k & -2
            right.append(d)
    del left[peak:]
    left += reversed(right)
    return [(d, keys[d]) for d in left]


def _same_cut(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Whether two cuts of one envelope have the same magnitude."""
    return p[0] * q[1] == q[0] * p[1]


def _cut_value(cut: tuple[int, int], scale: int) -> Fraction:
    """The magnitude of a cut of an envelope at ``scale``."""
    return Fraction(cut[0], cut[1] * scale)


def _edges(f: Polynomial) -> Iterator[tuple[int, int, tuple[int, int]]]:
    """The edges of ``f``'s envelope as ``(low degree, high degree, cut)``,
    ascending: one per run of equal cuts, whose hull points all lie on one
    segment. The cut given is the run's last; every cut of a run has the
    same magnitude.
    """
    hull, cuts = f._hull
    start = 0
    for k, cut in enumerate(cuts):
        # Cut k joins hull points k and k + 1; the edge ends at k + 1 unless
        # the next cut is the same.
        if k + 1 == len(cuts) or not _same_cut(cut, cuts[k + 1]):
            yield hull[start], hull[k + 1], cut
            start = k + 1


def _corners(f: Polynomial) -> list[tuple[tuple[int, int], int]]:
    """The corner roots of ``f`` as ``(cut, multiplicity)``, ascending.

    Each envelope edge (`_edges`) whose two end coefficients are tangible
    gives a corner root at its cut, with the degree gap as multiplicity. A
    coefficient's kind is its key's ghost bit.
    """
    keys = f._keys[1]
    return [(cut, hi - lo) for lo, hi, cut in _edges(f) if not (keys[lo] | keys[hi]) & 1]


def essential(f: Polynomial) -> Polynomial:
    """Drop every monomial that never attains the maximum.

    Monomials tied along an envelope edge still attain the maximum at the
    edge's crossing point, so they are kept. Idempotent.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial has no essential part")
    scale, keys = f._keys
    kept: list[int | None] = [None] * len(keys)
    for d in f._hull[0]:
        kept[d] = keys[d]
    return Polynomial._from_keys(scale, kept)


def breakpoints(f: Polynomial) -> list[Fraction]:
    """Magnitudes where the dominant monomial changes, ascending: the cut
    of each envelope edge (`_edges`); the zero polynomial has none."""
    scale = f._keys[0]
    return [_cut_value(cut, scale) for _, _, cut in _edges(f)]


# ---------------------------------------------------------------------------
# Roots.


class Interval(_Record):
    """Interval of magnitudes; a ``None`` endpoint marks the infinite side."""

    _fields = ("lo", "hi", "lo_closed", "hi_closed")

    def __init__(self, lo: Fraction | None, hi: Fraction | None, lo_closed: bool, hi_closed: bool):
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and (x < self.lo or (x == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and not self.hi_closed)):
            return False
        return True

    def __str__(self) -> str:
        left = "(-inf" if self.lo is None else ("[" if self.lo_closed else "(") + str(self.lo)
        right = "+inf)" if self.hi is None else str(self.hi) + ("]" if self.hi_closed else ")")
        return f"{left}, {right}"

    def to_json_dict(self) -> dict:
        return {
            "lo": None if self.lo is None else str(self.lo),
            "hi": None if self.hi is None else str(self.hi),
            "lo_closed": self.lo_closed,
            "hi_closed": self.hi_closed,
        }


def _closed(lo: Fraction | None, hi: Fraction | None) -> Interval:
    return Interval(lo, hi, lo is not None, hi is not None)


class RootReport(_Record):
    """Corner roots with multiplicities, plus the ghost-dominated intervals.

    A magnitude can be both a corner root and inside a ghost interval when a
    tangible tie and a ghost leader coincide; both are reported.
    """

    _fields = ("corner_roots", "ghost_intervals", "is_identically_root")

    def __init__(
        self,
        corner_roots: tuple[tuple[Scalar, int], ...],
        ghost_intervals: tuple[Interval, ...],
        is_identically_root: bool,
    ):
        self.corner_roots = corner_roots
        self.ghost_intervals = ghost_intervals
        self.is_identically_root = is_identically_root

    def to_json_dict(self) -> dict:
        return {
            "corner_roots": [
                {"root": str(r), "multiplicity": m} for r, m in self.corner_roots
            ],
            "ghost_intervals": [iv.to_json_dict() for iv in self.ghost_intervals],
            "is_identically_root": self.is_identically_root,
        }

    def __str__(self) -> str:
        text = _roots_text("corner roots", self.corner_roots, "ghost intervals",
                           self.ghost_intervals)
        identically = "identically a root (every evaluation is ghost or -inf)\n"
        return identically + text if self.is_identically_root else text


def _roots_text(label: str, pairs, region_label: str, region: Sequence[Interval]) -> str:
    """The text of a root or eigenvalue report; an empty listing reads "none"."""
    listed = ", ".join(f"{r} (mult {m})" for r, m in pairs) or "none"
    return f"{label}: {listed}\n{region_label}: {', '.join(map(str, region)) or 'none'}"


def roots(f: Polynomial) -> RootReport:
    """Classify the root set of ``f`` from its envelope.

    The corner roots are `_corners`. Hull point ``k`` attains the maximum
    on ``[cuts[k-1], cuts[k]]``, with ``None`` for the open side at either
    end; for an on-edge point both cuts are equal and the span is a single
    magnitude. Each ghost hull point contributes its span as a ghost
    interval. The spans arrive in ascending order and can only touch end to
    start, so touching ones are merged as they come. A cut becomes a
    `Fraction` only when it is reported.
    """
    if f.is_zero:
        return RootReport((), (), True)
    hull, cuts = f._hull
    scale, keys = f._keys
    spans: list[list] = []
    for k, d in enumerate(hull):
        if keys[d] & 1:
            lo = cuts[k - 1] if k > 0 else None
            hi = cuts[k] if k < len(cuts) else None
            # Only the first span has lo None, and only the last hi None.
            if spans and _same_cut(spans[-1][1], lo):
                spans[-1][1] = hi
            else:
                spans.append([lo, hi])

    def value(cut: tuple[int, int] | None) -> Fraction | None:
        return None if cut is None else _cut_value(cut, scale)

    return RootReport(
        tuple([(tangible(value(cut)), mult) for cut, mult in _corners(f)]),
        tuple([_closed(value(lo), value(hi)) for lo, hi in spans]),
        spans == [[None, None]],
    )


def is_root(f: Polynomial, x: Scalar) -> bool:
    """Membership oracle: evaluation lands in the ghosts or at ``-inf``."""
    return f.evaluate(x).kind is not Kind.TANGIBLE


def primary_root(f: Polynomial) -> Scalar:
    """The root of a polynomial with exactly one corner root.

    It is the degree-th root of constant/leading, and must agree with the
    corner root reported by `roots`; a mismatch (possible when ghost leaders
    interfere) is rejected rather than answered.
    """
    report = roots(f)
    if f.is_zero or len(report.corner_roots) != 1:
        raise DomainError("expected exactly one corner root")
    candidate = (f.coeffs[0] * f.coeffs[-1].reciprocal()).root(f.degree)
    unique_root = report.corner_roots[0][0]
    if candidate != unique_root:
        raise DomainError(
            f"constant/leading ratio gives {candidate}, "
            f"but the corner root is {unique_root}"
        )
    return candidate
