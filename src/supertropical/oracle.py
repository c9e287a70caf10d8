"""Independent brute-force witnesses for the production computations.

Four kinds of evidence live here. The enumeration side computes the
determinant over all ``n!`` permutation tracks and the characteristic
polynomial as a sum of principal-minor determinants: the definitions the
subset table in ``matrix`` must reproduce exactly. The symbolic side
expands matrix powers and principal-minor permanents over formal entry variables, keeping exact
natural-number occurrence counts for every monomial (no max-plus collapse),
so statements about *how often* a monomial appears can be checked by
census. The numeric side recomputes the characteristic polynomial by a
direct permanent over the polynomial semiring and compares functions by
dense sampling. The lattice side tries every vector of a small integer grid
as an eigenvector: the reference that `spectral.eigenpairs` must cover.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from .errors import BoundExceededError
from .matrix import (
    DetClass,
    DetReport,
    Matrix,
    PermutationTrack,
    check_dim_bound,
    principal_minor,
)
from .polynomial import Polynomial, breakpoints
from .scalar import ONE, Scalar, ZERO, _Record, ghost, tangible
from .spectral import Verdict, check_eigenpair, eigenvalues

Var = tuple[int, int]  # 0-based (row, column) entry variable

# The largest dimension the enumerations accept unless given ``bound=``: set
# apart from ``DEFAULT_DET_BOUND``, so that raising the production bound does
# not raise the size of an ``n!`` enumeration.
ORACLE_DIM_BOUND = 9


def enum_det(a: Matrix, bound: int | None = None) -> DetReport:
    """Permanent by full permutation enumeration, with dominant-track report."""
    check_dim_bound("determinant", a.n, bound, ORACLE_DIM_BOUND)
    rows = a.rows
    value = ZERO
    tracks: list[PermutationTrack] = []
    for perm in permutations(range(a.n)):
        prod = ONE
        for i, j in enumerate(perm):
            prod = prod * rows[i][j]
            if prod.is_zero:
                break
        else:
            tracks.append(PermutationTrack(perm, prod))
            value = value + prod
    if value.is_zero:
        return DetReport(ZERO, (), DetClass.ZERO)
    dominant = tuple(t for t in tracks if t.product.value == value.value)
    if len(dominant) > 1:
        cls = DetClass.GHOST_BY_TIE
    elif dominant[0].product.is_ghost:
        cls = DetClass.GHOST_BY_GHOST_TRACK
    else:
        cls = DetClass.TANGIBLE
    return DetReport(value, dominant, cls)


def minor_sum_charpoly(a: Matrix, bound: int | None = None) -> Polynomial:
    """Characteristic polynomial via principal-minor permanents.

    The coefficient of x^(n-k) is the max over all k-subsets of rows of the
    enumerated determinant of the corresponding principal minor; the top
    coefficient is the unit.
    """
    limit = check_dim_bound("characteristic polynomial", a.n, bound, ORACLE_DIM_BOUND)
    n = a.n
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    for k in range(1, n + 1):
        acc = ZERO
        for subset in combinations(range(n), k):
            acc = acc + enum_det(principal_minor(a, subset), bound=limit).value
        coeffs[n - k] = acc
    return Polynomial(tuple(coeffs))


class SymMonomial(_Record):
    """Product of entry variables with positive integer exponents,
    canonically sorted so equality and hashing are structural."""

    _fields = ("exps",)

    def __init__(self, exps: tuple[tuple[Var, int], ...]):
        self.exps = exps

    @staticmethod
    def of(pairs) -> SymMonomial:
        acc: dict[Var, int] = {}
        for var, e in pairs:
            if e:
                acc[var] = acc.get(var, 0) + e
        return SymMonomial(tuple(sorted(acc.items())))

    def __mul__(self, other: SymMonomial) -> SymMonomial:
        return SymMonomial.of(self.exps + other.exps)

    def __pow__(self, m: int) -> SymMonomial:
        return SymMonomial(tuple((var, e * m) for var, e in self.exps))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exps)

    def value_in(self, a: Matrix) -> Scalar:
        acc = ONE
        for (i, j), e in self.exps:
            acc = acc * a.rows[i][j] ** e
        return acc

    def __str__(self) -> str:
        return " ".join(
            f"a[{i + 1},{j + 1}]" + (f"^{e}" if e > 1 else "")
            for (i, j), e in self.exps
        ) or "1"

    def to_json_dict(self) -> dict:
        return {f"a[{i + 1},{j + 1}]": e for (i, j), e in self.exps}


class SymPoly:
    """Multiset of monomials: monomial -> occurrence count (>= 1)."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[SymMonomial, int] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c}

    @staticmethod
    def zero() -> SymPoly:
        return SymPoly()

    @staticmethod
    def one() -> SymPoly:
        return SymPoly({SymMonomial(()): 1})

    @staticmethod
    def var(i: int, j: int) -> SymPoly:
        return SymPoly({SymMonomial((((i, j), 1),)): 1})

    def __add__(self, other: SymPoly) -> SymPoly:
        out = dict(self.terms)
        for mono, count in other.terms.items():
            out[mono] = out.get(mono, 0) + count
        return SymPoly(out)

    def __mul__(self, other: SymPoly) -> SymPoly:
        out: dict[SymMonomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                key = m1 * m2
                out[key] = out.get(key, 0) + c1 * c2
        return SymPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPoly) and self.terms == other.terms

    def substitute(self, a: Matrix) -> Scalar:
        """Fold the multiset back into a scalar: a monomial occurring more
        than once is a forced tie, so its contribution goes in ghosted."""
        total = ZERO
        for mono, count in self.terms.items():
            val = mono.value_in(a)
            if count >= 2:
                val = val.as_ghost()
            total = total + val
        return total

    def to_json_list(self) -> list[dict]:
        items = sorted(self.terms.items(), key=lambda kv: kv[0].exps)
        return [{"monomial": m.to_json_dict(), "count": c} for m, c in items]

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {c}" for m, c in sorted(self.terms.items(), key=lambda kv: kv[0].exps))
        return f"SymPoly({{{inner}}})"


MAX_SYMBOLIC_N = 3
MAX_SYMBOLIC_M = 3


def _formal_power(n: int, m: int) -> list[list[SymPoly]]:
    base = [[SymPoly.var(i, j) for j in range(n)] for i in range(n)]
    cur = base
    for _ in range(m - 1):
        cur = [[sum((cur[i][t] * base[t][j] for t in range(n)), SymPoly.zero()) for j in range(n)]
               for i in range(n)]
    return cur


def _formal_permanent(grid: list[list[SymPoly]], subset: tuple[int, ...]) -> SymPoly:
    total = SymPoly.zero()
    for perm in permutations(range(len(subset))):
        prod = SymPoly.one()
        for r, c in enumerate(perm):
            prod = prod * grid[subset[r]][subset[c]]
        total = total + prod
    return total


def sym_charpoly_coeff(n: int, m: int, k: int) -> SymPoly:
    """Formal coefficient of x^(n-k) in charpoly(A^m): the multiset of all
    monomials contributed by the k-by-k principal-minor permanents of the
    formally expanded m-th power."""
    if n > MAX_SYMBOLIC_N:
        raise BoundExceededError("symbolic expansion", n, MAX_SYMBOLIC_N)
    if m > MAX_SYMBOLIC_M:
        raise BoundExceededError("symbolic expansion power", m, MAX_SYMBOLIC_M)
    if not 1 <= k <= n:
        raise BoundExceededError("minor size", k, n)
    grid = _formal_power(n, m)
    total = SymPoly.zero()
    for subset in combinations(range(n), k):
        total = total + _formal_permanent(grid, subset)
    return total


def power_track_monomials(n: int, m: int, k: int) -> dict[SymMonomial, tuple]:
    """The m-th powers of every permutation-track monomial of every k-by-k
    principal minor, keyed canonically, with (subset, permutation) attached."""
    out: dict[SymMonomial, tuple] = {}
    for subset in combinations(range(n), k):
        for perm in permutations(range(k)):
            base = SymMonomial.of(
                (((subset[r], subset[c]), 1) for r, c in enumerate(perm))
            )
            out[base**m] = (subset, perm)
    return out


def census_power_tracks(n: int, m: int, k: int) -> Verdict:
    """Census of the formal coefficient: every power-track monomial must
    occur exactly once, every other monomial at least twice."""
    coeff = sym_charpoly_coeff(n, m, k)
    expected = power_track_monomials(n, m, k)
    violations = []
    for mono in expected:
        count = coeff.terms.get(mono, 0)
        if count != 1:
            violations.append({"monomial": str(mono), "count": count, "want": 1})
    others = [c for mono, c in coeff.terms.items() if mono not in expected]
    for mono, count in coeff.terms.items():
        if mono not in expected and count < 2:
            violations.append({"monomial": str(mono), "count": count, "want": ">=2"})
    detail = ({"n": n, "m": m, "k": k, "power_track_monomials": len(expected),
               "other_monomials": len(others), "min_other_count": min(others, default=None),
               "max_other_count": max(others, default=None)},)
    witness = {"violations": violations[:10]} if violations else None
    return Verdict("power-track-census", not violations, witness, detail)


def sym_direct_charpoly(a: Matrix, bound: int | None = None) -> Polynomial:
    """Characteristic polynomial by the direct route: the permanent of the
    matrix with x joined onto the diagonal, expanded over the polynomial
    semiring by permutation enumeration.

    The track products are coefficient lists in `Scalar` arithmetic, and
    one `Polynomial` is built from their sum at the end, so no step shares
    the kernel's key arithmetic.
    """
    check_dim_bound("direct characteristic polynomial", a.n, bound, ORACLE_DIM_BOUND)
    n = a.n
    total = [ZERO] * (n + 1)
    for perm in permutations(range(n)):
        prod = [ONE]
        for i, j in enumerate(perm):
            entry = a.rows[i][j]
            if i == j:
                # Times (entry + x): degree d becomes entry times the
                # coefficient of degree d, plus that of degree d - 1.
                prod = [c * entry + below for c, below in zip(prod + [ZERO], [ZERO] + prod)]
            elif entry.is_zero:
                break
            else:
                prod = [c * entry for c in prod]
        else:
            for d, c in enumerate(prod):
                total[d] = total[d] + c
    return Polynomial(total)


def sampled_equiv(
    f: Polynomial, g: Polynomial, samples: int = 100, seed: int = 0
) -> Verdict:
    """Do f and g evaluate identically at every breakpoint of either and at
    deterministic pseudo-random rational points (tangible and ghost)?"""
    points: list[Scalar] = [ZERO]
    for bp in breakpoints(f) + breakpoints(g):
        points.append(tangible(bp))
        points.append(ghost(bp))
    rng = random.Random(f"sampled-equiv:{seed}")
    for _ in range(samples):
        value = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        points.append(ghost(value) if rng.random() < 0.3 else tangible(value))
    for x in points:
        fx = f.evaluate(x)
        gx = g.evaluate(x)
        if fx != gx:
            witness = {"x": str(x), "f(x)": str(fx), "g(x)": str(gx)}
            return Verdict("sampled-equiv", False, witness)
    return Verdict("sampled-equiv", True, None, ({"points": len(points)},))


def search_eigenpairs(
    a: Matrix,
    lattice: range = range(-3, 4),
    bound: int | None = None,
    max_results: int | None = 1,
) -> list[tuple[tuple[Scalar, ...], Scalar]]:
    """Exhaustive grid search for tangible eigenpairs: candidate vectors are
    drawn from the lattice, candidate values from the corner roots."""
    found = []
    values = [v for v, _ in eigenvalues(a, bound).eigenvalues]
    for x in values:
        for combo in product(lattice, repeat=a.n):
            v = tuple(tangible(c) for c in combo)
            if check_eigenpair(a, v, x).holds:
                found.append((v, x))
                if max_results is not None and len(found) >= max_results:
                    return found
    return found
