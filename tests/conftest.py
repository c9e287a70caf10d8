"""Shared strategies and independent brute-force oracles for the tests.

The oracles here recompute results straight from the definitions (dominant
monomial, dominant permutation track, exact line-crossing attainment) with
no reliance on the production code paths they are used to check.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from pathlib import Path

import hypothesis.strategies as st

import supertropical
from supertropical import Matrix, ONE, Polynomial, ZERO, ghost, parse_scalar, tangible

acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter):
    # Replay the per-criterion acceptance lines even when capture is on.
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=3)

scalars = st.one_of(
    st.just(ZERO),
    st.builds(tangible, small_fractions),
    st.builds(ghost, small_fractions),
)
nonzero_scalars = st.one_of(
    st.builds(tangible, small_fractions), st.builds(ghost, small_fractions)
)
tangibles = st.builds(tangible, small_fractions)


def package_defines() -> set[str]:
    """The names the `supertropical` modules define at top level, read from
    their source; an AST guard checks each name it forbids is one of them,
    so that a rename cannot leave the guard checking nothing."""
    names = set()
    for path in Path(supertropical.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@st.composite
def polynomials(draw, max_degree=6):
    degree = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = [draw(scalars) for _ in range(degree)]
    coeffs.append(draw(nonzero_scalars))
    return Polynomial(tuple(coeffs))


@st.composite
def matrices(draw, min_n=1, max_n=3):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    return Matrix(tuple(tuple(draw(scalars) for _ in range(n)) for _ in range(n)))


def sample_scalar(rng: random.Random, zero_p=0.1, ghost_p=0.25):
    """Plain seeded sampler over a small half-integer lattice."""
    if rng.random() < zero_p:
        return ZERO
    value = Fraction(rng.randint(-10, 10), rng.choice((1, 2)))
    return ghost(value) if rng.random() < ghost_p else tangible(value)


def sample_matrix(rng: random.Random, n: int):
    return Matrix(tuple(tuple(sample_scalar(rng) for _ in range(n)) for _ in range(n)))


def sample_polynomial(rng: random.Random, max_degree: int):
    degree = rng.randint(1, max_degree)
    coeffs = [sample_scalar(rng) for _ in range(degree)]
    lead = sample_scalar(rng, zero_p=0.0)
    coeffs.append(lead)
    return Polynomial(tuple(coeffs))


def literal_sum_polynomial(terms) -> Polynomial:
    """The polynomial of ``(degree, coefficient text)`` terms, built with one
    literal `Scalar` per term and summed by degree with `Scalar` addition;
    an empty coefficient text is the unit."""
    by_degree = {}
    for degree, text in terms:
        c = ONE if text == "" else parse_scalar(text)
        by_degree[degree] = by_degree[degree] + c if degree in by_degree else c
    coeffs = [ZERO] * (max(by_degree) + 1)
    for degree, c in by_degree.items():
        coeffs[degree] = c
    return Polynomial(tuple(coeffs))


def brute_eval(f: Polynomial, x):
    """Evaluate by listing every monomial's value and folding the maximum,
    ghosting on a tie or on any ghost contributor."""
    terms = []
    for i, c in enumerate(f.coeffs):
        if c.is_zero:
            continue
        if x.is_zero:
            if i == 0:
                terms.append((c.value, c.is_ghost))
            continue
        terms.append((c.value + i * x.value, c.is_ghost or (x.is_ghost and i > 0)))
    if not terms:
        return ZERO
    top = max(v for v, _ in terms)
    tied = [(v, g) for v, g in terms if v == top]
    is_ghost = len(tied) > 1 or any(g for _, g in tied)
    return ghost(top) if is_ghost else tangible(top)


def scalar_mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product by the textbook triple loop over `Scalar` arithmetic."""
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for t in range(n):
                acc = acc + a.rows[i][t] * b.rows[t][j]
            row.append(acc)
        rows.append(tuple(row))
    return Matrix(tuple(rows))


def brute_det_value(a: Matrix):
    """Dominant permutation track straight from the definition."""
    finite = []
    for perm in permutations(range(a.n)):
        total = Fraction(0)
        has_ghost = False
        dead = False
        for i, j in enumerate(perm):
            e = a.rows[i][j]
            if e.is_zero:
                dead = True
                break
            total += e.value
            has_ghost = has_ghost or e.is_ghost
        if not dead:
            finite.append((total, has_ghost))
    if not finite:
        return ZERO
    top = max(v for v, _ in finite)
    tied = [(v, g) for v, g in finite if v == top]
    is_ghost = len(tied) > 1 or any(g for _, g in tied)
    return ghost(top) if is_ghost else tangible(top)


def _attaining(points, x):
    """The points ``(d, c)`` whose monomial ``c + d * x`` attains the maximum.

    Every value is taken times one common multiple of the denominators in
    sight, so the comparison runs exactly on plain ints.
    """
    scale = lcm(x.denominator, *(c.value.denominator for _, c in points))
    shift = x.numerator * (scale // x.denominator)
    values = [
        c.value.numerator * (scale // c.value.denominator) + d * shift for d, c in points
    ]
    best = max(values)
    return [p for p, value in zip(points, values) if value == best]


def attained_degrees(f: Polynomial) -> set[int]:
    """Exact attainment oracle: which monomials reach the maximum somewhere.

    A monomial's attainment set is a closed interval bounded by pairwise
    line crossings, so probing all crossings, the midpoints between them,
    and points beyond the extremes decides attainment exactly.
    """
    points = [(d, c) for d, c in enumerate(f.coeffs) if not c.is_zero]
    crossings = set()
    for (i, ci), (j, cj) in combinations(points, 2):
        crossings.add(Fraction(ci.value - cj.value, j - i))
    xs = sorted(crossings)
    probes = list(xs)
    if xs:
        probes.append(xs[0] - 1)
        probes.append(xs[-1] + 1)
        probes.extend((a + b) / 2 for a, b in zip(xs, xs[1:]))
    else:
        probes.append(Fraction(0))
    attained: set[int] = set()
    for x in probes:
        attained |= {d for d, _ in _attaining(points, x)}
    return attained


def brute_breakpoints(f: Polynomial):
    """Breakpoints and corner roots straight from the definition.

    A pairwise crossing is a breakpoint when two or more monomials attain
    the maximum there. It is a corner root when the lowest and highest
    attaining degrees have tangible coefficients, with their spread as the
    multiplicity. Returns ``(breakpoints, [(root, multiplicity), ...])``.
    """
    points = [(d, c) for d, c in enumerate(f.coeffs) if not c.is_zero]
    crossings = {
        Fraction(ci.value - cj.value, j - i)
        for (i, ci), (j, cj) in combinations(points, 2)
    }
    cuts, corners = [], []
    for x in sorted(crossings):
        attaining = _attaining(points, x)
        if len(attaining) < 2:
            continue
        cuts.append(x)
        (lo, c_lo), (hi, c_hi) = attaining[0], attaining[-1]
        if c_lo.is_tangible and c_hi.is_tangible:
            corners.append((x, hi - lo))
    return cuts, corners
