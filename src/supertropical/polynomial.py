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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, ParseError
from .scalar import Kind, ONE, Scalar, ZERO, parse_scalar, tangible


@dataclass(frozen=True)
class Polynomial:
    """Coefficients by ascending degree; normalized so the top one is nonzero.

    The zero polynomial is stored as the single coefficient ``-inf``.
    """

    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not cs:
            cs = (ZERO,)
        while len(cs) > 1 and cs[-1].is_zero:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0].is_zero

    @property
    def degree(self) -> int:
        """Degree of the leading stored coefficient (0 for the zero polynomial)."""
        return len(self.coeffs) - 1

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
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c.is_zero:
                continue
            terms.append(_format_term(c, d))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _format_term(c: Scalar, d: int) -> str:
    if d == 0:
        return str(c)
    xs = "x" if d == 1 else f"x^{d}"
    return xs if c == ONE else f"{c}{xs}"


_TERM_RE = re.compile(
    r"(?P<coeff>-inf|-?\d+(?:/\d+)?g?)?\s*(?P<x>x(?:\^(?P<deg>\d+))?)?\Z"
)


def parse_polynomial(text: str) -> Polynomial:
    """Parse ``COEFF x^DEG`` terms joined by ``+``; missing degrees are ``-inf``.

    The unit coefficient may be omitted (``x^2``), degree 1 drops the caret
    (``4x``), and a bare coefficient is the constant term.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial")
    by_degree: dict[int, Scalar] = {}
    for raw in stripped.split("+"):
        term = raw.strip()
        match = _TERM_RE.match(term)
        if not term or match is None or (not match.group("coeff") and not match.group("x")):
            raise ParseError(f"not a polynomial term: {raw.strip()!r}")
        coeff = parse_scalar(match.group("coeff")) if match.group("coeff") else ONE
        if match.group("x"):
            degree = int(match.group("deg")) if match.group("deg") else 1
        else:
            degree = 0
        by_degree[degree] = by_degree.get(degree, ZERO) + coeff
    top = max(by_degree)
    return Polynomial(tuple(by_degree.get(i, ZERO) for i in range(top + 1)))


def coeff_strings(f: Polynomial) -> list[str]:
    """JSON form: coefficient strings indexed by degree."""
    return [str(c) for c in f.coeffs]


def polynomial_from_strings(strings) -> Polynomial:
    return Polynomial(tuple(parse_scalar(s) for s in strings))


# ---------------------------------------------------------------------------
# Envelope geometry.

Point = tuple[int, Fraction]


def _support(f: Polynomial) -> list[Point]:
    return [(d, c.value) for d, c in enumerate(f.coeffs) if not c.is_zero]


def _crossing(a: Point, b: Point) -> Fraction:
    # Magnitude where the monomial lines of two support points meet.
    return Fraction(a[1] - b[1], b[0] - a[0])


def _envelope(f: Polynomial) -> tuple[list[Point], list[Fraction]]:
    """The upper hull of the support, with the crossing of each consecutive pair.

    ``cuts[k]`` is the crossing of hull points ``k`` and ``k + 1``. The last
    hull point lies strictly below the segment from the point before it to
    a new point exactly when its crossing with the new point is below the
    last cut. The monotone chain pops only those points and keeps the
    on-edge ones, so the hull is exactly the essential support, by
    ascending degree, and each crossing is computed once. The cuts never
    decrease, and a point lies on an edge exactly when the cuts on its two
    sides are equal. The strict vertices are the two ends plus every point
    where the cut changes.
    """
    hull: list[Point] = []
    cuts: list[Fraction] = []
    for p in _support(f):
        while hull:
            x = _crossing(hull[-1], p)
            if not cuts or x >= cuts[-1]:
                cuts.append(x)
                break
            hull.pop()
            cuts.pop()
        hull.append(p)
    return hull, cuts


def essential(f: Polynomial) -> Polynomial:
    """Drop every monomial that never attains the maximum.

    Monomials tied along an envelope edge still attain the maximum at the
    edge's crossing point, so they are kept. Idempotent.
    """
    if f.is_zero:
        raise DomainError("the zero polynomial has no essential part")
    hull, _ = _envelope(f)
    keep = {d for d, _ in hull}
    return Polynomial(
        tuple(c if d in keep else ZERO for d, c in enumerate(f.coeffs))
    )


def breakpoints(f: Polynomial) -> list[Fraction]:
    """Magnitudes where the dominant monomial changes, ascending."""
    if f.is_zero:
        return []
    _, cuts = _envelope(f)
    return [x for k, x in enumerate(cuts) if k == 0 or x != cuts[k - 1]]


# ---------------------------------------------------------------------------
# Roots.


@dataclass(frozen=True)
class Interval:
    """Interval of magnitudes; a ``None`` endpoint marks the infinite side."""

    lo: Fraction | None
    hi: Fraction | None
    lo_closed: bool
    hi_closed: bool

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


@dataclass(frozen=True)
class RootReport:
    """Corner roots with multiplicities, plus the ghost-dominated intervals.

    A magnitude can be both a corner root and inside a ghost interval when a
    tangible tie and a ghost leader coincide; both are reported.
    """

    corner_roots: tuple[tuple[Scalar, int], ...]
    ghost_intervals: tuple[Interval, ...]
    is_identically_root: bool

    def to_json_dict(self) -> dict:
        return {
            "corner_roots": [
                {"root": str(r), "multiplicity": m} for r, m in self.corner_roots
            ],
            "ghost_intervals": [iv.to_json_dict() for iv in self.ghost_intervals],
            "is_identically_root": self.is_identically_root,
        }


def roots(f: Polynomial) -> RootReport:
    """Classify the root set of ``f`` in one walk over its envelope.

    Hull point ``k`` attains the maximum on ``[cuts[k-1], cuts[k]]``, with
    ``None`` for the open side at either end; for an on-edge point both
    cuts are equal and the span is a single magnitude. Each ghost hull
    point contributes its span as a ghost interval. The spans arrive in
    ascending order and can only touch end to start, so touching ones are
    merged as they come. Each time the cut changes, the edge between the
    last two strict vertices is complete; when both of its end
    coefficients are tangible it gives a corner root at its cut, with the
    degree gap as multiplicity.
    """
    if f.is_zero:
        return RootReport((), (), True)
    hull, cuts = _envelope(f)
    corner: list[tuple[Scalar, int]] = []
    spans: list[list] = []
    start = hull[0][0]
    for k, (d, _v) in enumerate(hull):
        lo = cuts[k - 1] if k > 0 else None
        hi = cuts[k] if k < len(cuts) else None
        if k > 0 and lo != hi:
            if f.coeffs[start].is_tangible and f.coeffs[d].is_tangible:
                corner.append((tangible(lo), d - start))
            start = d
        if f.coeffs[d].kind is Kind.GHOST:
            if spans and spans[-1][1] == lo:
                spans[-1][1] = hi
            else:
                spans.append([lo, hi])
    all_ghost = all(f.coeffs[d].kind is Kind.GHOST for d, _ in hull)
    return RootReport(
        tuple(corner), tuple(_closed(lo, hi) for lo, hi in spans), all_ghost
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
