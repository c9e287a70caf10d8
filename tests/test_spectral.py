"""Eigen machinery and the law checkers."""

from __future__ import annotations

import ast
import itertools
import json
import math
import pickle
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertropical import (
    BoundExceededError,
    DomainError,
    Matrix,
    Polynomial,
    ShapeError,
    ZERO,
    char_poly,
    check_charpoly_power,
    check_corner_root_power,
    check_det_rule,
    check_eigen_power,
    check_eigenpair,
    check_frobenius,
    check_tangible_equality,
    check_trace_power,
    det,
    eigenpairs,
    eigenvalues,
    ghost,
    is_root,
    mat_mul,
    mat_pow,
    parse_matrix,
    roots,
    search_eigenpairs,
    tangible,
    trace,
)
from supertropical import Config, Verdict, random_matrix, random_scalar
import supertropical.matrix as matrix_module
import supertropical.spectral as spectral_module
from supertropical.matrix import MAX_POWER
from supertropical.scalar import _key_pow, _key_scale
from supertropical.oracle import enum_det, sym_direct_charpoly
from supertropical.spectral import CHECKS, Trial
from conftest import matrices, package_defines, sample_matrix, scalars, small_fractions

A = parse_matrix("0 0\n1 2")


class TestEigenvalues:
    def test_golden(self):
        report = eigenvalues(A)
        assert report.eigenvalues == ((tangible(0), 1), (tangible(2), 1))
        assert report.ghost_region == ()

    def test_power_matrix(self):
        report = eigenvalues(parse_matrix("1 2\n3 4"))
        assert report.eigenvalues == ((tangible(4), 1),)
        (iv,) = report.ghost_region
        assert iv.lo is None and iv.hi == 1

    def test_diagonal(self):
        report = eigenvalues(parse_matrix("5 -inf\n-inf 2"))
        assert report.eigenvalues == ((tangible(2), 1), (tangible(5), 1))

    @given(matrices(max_n=3))
    def test_eigenvalues_are_roots(self, a):
        f = char_poly(a)
        for value, _ in eigenvalues(a).eigenvalues:
            assert is_root(f, value)


class TestEigenpair:
    def test_exact_pair(self):
        v = (tangible(0), tangible(2))
        verdict = check_eigenpair(A, v, tangible(2))
        assert verdict.holds
        assert [d["lhs"] for d in verdict.detail] == ["2", "4"]

    def test_ghost_surpassing_pair(self):
        v = (tangible(0), tangible(-1))
        verdict = check_eigenpair(A, v, tangible(0))
        assert verdict.holds
        assert [d["lhs"] for d in verdict.detail] == ["0", "1g"]

    def test_failing_pair(self):
        v = (tangible(0), tangible(0))
        verdict = check_eigenpair(A, v, tangible(0))
        assert not verdict.holds
        assert verdict.detail[1]["ok"] is False
        assert verdict.witness is not None

    def test_non_tangible_rejected(self):
        with pytest.raises(DomainError):
            check_eigenpair(A, (tangible(0), ghost(2)), tangible(2))
        with pytest.raises(DomainError):
            check_eigenpair(A, (tangible(0), tangible(2)), ghost(2))
        with pytest.raises(DomainError):
            check_eigenpair(A, (tangible(0), ZERO), tangible(2))


class TestEigenPower:
    def test_exact_pair_squares(self):
        v = (tangible(0), tangible(2))
        verdict = check_eigen_power(A, v, tangible(2), 2)
        assert verdict.holds
        assert [d["lhs"] for d in verdict.detail] == ["4", "6"]

    def test_ghost_pair_squares(self):
        v = (tangible(0), tangible(-1))
        verdict = check_eigen_power(A, v, tangible(0), 2)
        assert verdict.holds
        assert [d["lhs"] for d in verdict.detail] == ["1g", "3g"]

    def test_power_one_reduces(self):
        v = (tangible(0), tangible(2))
        assert check_eigen_power(A, v, tangible(2), 1).holds

    def test_precondition_error(self):
        with pytest.raises(DomainError):
            check_eigen_power(A, (tangible(0), tangible(0)), tangible(0), 2)

    @pytest.mark.parametrize("seed", range(15))
    def test_found_pairs_hold_for_all_powers(self, seed):
        rng = random.Random(f"pairs:{seed}")
        a = sample_matrix(rng, rng.randint(2, 3))
        for v, x in search_eigenpairs(a, lattice=range(-2, 3), max_results=3):
            for m in (2, 3, 4):
                assert check_eigen_power(a, v, x, m).holds


def _reference_matrix(rng: random.Random, max_n: int = 3, span: int = 4):
    """A matrix of dimension 1..max_n on the lattice -span..span over one
    denominator of 1..3, with 0-50% of its entries -inf and 0-40% of the
    rest ghost."""
    n, den = rng.randint(1, max_n), rng.randint(1, 3)
    zero_p, ghost_p = rng.choice((0, 0.25, 0.5)), rng.choice((0, 0.2, 0.4))

    def entry():
        if rng.random() < zero_p:
            return ZERO
        value = Fraction(rng.randint(-span, span), den)
        return ghost(value) if rng.random() < ghost_p else tangible(value)

    return Matrix(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


def _every_two_by_two():
    """Every 2x2 matrix over eight entries: -inf, -1, 0, 1, 2, -1g, 0g, 1g."""
    entries = [ZERO, *map(tangible, (-1, 0, 1, 2)), *map(ghost, (-1, 0, 1))]
    for e in itertools.product(entries, repeat=4):
        yield Matrix((e[:2], e[2:]))


def _reducible_three_by_threes():
    """The 3x3 matrices ``* * * / -inf 1 -inf / y -inf 1`` over -inf, 0, 1,
    0g, which are reducible: the vectors for 42 of the 256 are the sum of
    the star's critical columns."""
    entries = [ZERO, tangible(0), tangible(1), ghost(0)]
    middle = (ZERO, tangible(1), ZERO)
    for *top, y in itertools.product(entries, repeat=4):
        yield Matrix((tuple(top), middle, (y, ZERO, tangible(1))))


def _reference_eigenpairs(a: Matrix, star: bool = False):
    """`eigenpairs` by its documented order, each entry of adj(A + xI)
    taken from the oracle's permanent of its minor, and with ``star`` the
    critical columns of the Kleene star of |A| - x and their sum after them
    (`_reference_critical_columns`); with the number of adjoint columns
    tried over all eigenvalues."""
    pairs, tried = [], 0
    for x, _ in eigenvalues(a).eigenvalues:
        b = [[e + x if i == j else e for j, e in enumerate(row)] for i, row in enumerate(a.rows)]

        def adjoint_entry(r, c):
            minor = [row[:c] + row[c + 1:] for i, row in enumerate(b) if i != r]
            return enum_det(Matrix(minor)).value if minor else tangible(0)

        columns, vector = [], None
        for r in range(a.n + 1):
            if r < a.n:
                tried += 1
                columns.append([adjoint_entry(r, c) for c in range(a.n)])
                column = columns[-1]
            else:
                column = [sum(entries, ZERO) for entries in zip(*columns)]
            if any(e.is_zero for e in column):
                continue
            v = tuple(tangible(e.value) for e in column)
            if check_eigenpair(a, v, x).holds:
                vector = v
                break
        if vector is None and star:
            vector = next((v for v in _reference_critical_columns(a, x)
                           if check_eigenpair(a, v, x).holds), None)
        pairs.append((x, vector))
    return pairs, tried


def _reference_critical_columns(a: Matrix, x):
    """The critical columns of the Kleene star of |A| - x with no -inf
    entry, then their sum if it has none, as tangible vectors; nothing when
    |A| - x has a cycle of positive weight.

    ``d[i][j]`` is the largest weight of a path of one or more steps from i
    to j in the graph of |A| - x (magnitudes, ghosts included), by
    Floyd-Warshall in exact arithmetic. Column j is critical when j lies on
    a cycle of weight 0, ``d[j][j] == 0``; it is then column j of the star,
    a max-plus eigenvector of |A| for x.
    """
    n, lam = a.n, x.value
    d = [[None if e.is_zero else e.value - lam for e in row] for row in a.rows]
    for k in range(n):
        dk = d[k]
        for di in d:
            if (dik := di[k]) is None:
                continue
            for j, dkj in enumerate(dk):
                if dkj is not None and (di[j] is None or dik + dkj > di[j]):
                    di[j] = dik + dkj
    if any(d[i][i] is not None and d[i][i] > 0 for i in range(n)):
        return
    columns = [[row[j] for row in d] for j in range(n) if d[j][j] == 0]
    sums = [max((e for e in entries if e is not None), default=None) for entries in zip(*columns)]
    for column in (*columns, sums):
        if column and None not in column:
            yield tuple(map(tangible, column))


# A positive cycle of |A| for its eigenvalue 0, with an eigenvector all the same.
POSITIVE_CYCLE_TEXT = "3 -inf -inf -3/2\n-inf -inf 0 -inf\n-inf 0 -inf -inf\n0 -inf -inf 0"


def _lattice_holds_eigenvector(a: Matrix, x) -> bool:
    """Whether the tangible eigenvalue x of A has a tangible eigenvector, by
    search on a finite lattice that holds one whenever any exists.

    A finite v is an eigenvector exactly when each row i meets one of these
    options, |a| a magnitude: T(j), |a_ij| + v_j = x + v_i and every
    |a_ik| + v_k at most that; G(j), a_ij ghost and |a_ij| + v_j at least
    x + v_i and every |a_ik| + v_k; D(j, k), |a_ij| + v_j = |a_ik| + v_k, at
    least x + v_i and every other |a_il| + v_l. A choice of one option per
    row is a system of non-strict constraints v_p - v_q <= c, with each c a
    difference of two values in {|a_ij| finite} and x, so at most their
    spread C in size. A system that holds anywhere holds at its shortest-
    path potentials from a source joined to every coordinate by weight 0:
    one coordinate 0, the others sums of at most n - 1 constants, in
    [-(n - 1)C, 0] and on the lattice 1/s, s the LCM of the values'
    denominators.
    """
    values = [e.value for row in a.rows for e in row if not e.is_zero] + [x.value]
    s = math.lcm(*(value.denominator for value in values))
    depth = (a.n - 1) * (max(values) - min(values)) * s
    steps = [tangible(Fraction(-k, s)) for k in range(int(depth) + 1)]
    return any(check_eigenpair(a, v, x).holds
               for v in itertools.product(steps, repeat=a.n) if tangible(0) in v)


class TestEigenpairs:
    def test_covers_the_lattice_search(self):
        # Every eigenvalue for which the oracle's grid finds an eigenvector
        # gets one from the adjoint, and every eigenvector given holds.
        rng = random.Random("eigenpairs")
        grid_found = adjoint_found = 0
        for _ in range(150):
            a = _reference_matrix(rng)
            pairs = eigenpairs(a)
            assert [x for x, _ in pairs] == [x for x, _ in eigenvalues(a).eigenvalues]
            for x, v in pairs:
                assert v is None or check_eigenpair(a, v, x).holds
            grid = {x for _, x in search_eigenpairs(a, max_results=None)}
            assert grid <= {x for x, v in pairs if v is not None}
            grid_found += len(grid)
            adjoint_found += sum(v is not None for _, v in pairs)
        assert 0 < grid_found < adjoint_found

    def test_diagonal_needs_the_column_sum(self):
        # Both columns of adj(A + 1I) have a -inf entry; their sum has none.
        a = parse_matrix("1 -inf\n-inf 1")
        assert eigenpairs(a) == [(tangible(1), (tangible(1), tangible(1)))]
        assert search_eigenpairs(a, max_results=None)

    def test_eigenvalue_without_tangible_eigenvector(self):
        a = parse_matrix("1 3\n-inf 0")
        assert eigenpairs(a) == [(tangible(0), (tangible(3), tangible(1))), (tangible(1), None)]
        assert {x for _, x in search_eigenpairs(a, max_results=None)} == {tangible(0)}

    def test_reducible_needs_the_star(self):
        # Every adjoint candidate for eigenvalue 1 has a -inf entry or fails;
        # the sum of the star's critical columns 1 and 2 is (-1, 0, 0).
        a = parse_matrix("-inf -inf 0\n-inf 1 -inf\n-inf -inf 1")
        assert _reference_eigenpairs(a)[0] == [(tangible(1), None)]
        v = (tangible(-1), tangible(0), tangible(0))
        assert check_eigenpair(a, v, tangible(1)).holds
        assert eigenpairs(a) == [(tangible(1), v)]

    def test_star_columns_and_their_sum(self):
        # For x = 3 both critical columns of the star have a -inf entry and
        # their sum (0, 0) has none; below 3, |A| - x has a positive cycle.
        a = parse_matrix("3 -inf\n-inf 3")
        assert list(_reference_critical_columns(a, tangible(3))) == [(tangible(0), tangible(0))]
        assert list(_reference_critical_columns(a, tangible(2))) == []

    def test_one_by_one_takes_the_unit(self):
        assert eigenpairs(parse_matrix("5")) == [(tangible(5), (tangible(0),))]
        assert eigenpairs(parse_matrix("-inf")) == []

    def test_matches_the_oracle_adjoint(self):
        # Tight lattices, so that ties are common, and eigenvalues whose
        # denominator A's scale lacks, so that B = A + xI has a larger one;
        # then every 2x2 matrix over eight entries, and reducible 3x3s.
        rng = random.Random("eigenpairs-oracle")
        found = finer = 0
        for _ in range(400):
            a = _reference_matrix(rng, max_n=6, span=2)
            pairs = eigenpairs(a)
            assert pairs == _reference_eigenpairs(Matrix(a.rows), star=True)[0]
            found += sum(v is not None for _, v in pairs)
            finer += sum(a._keys[0] % x.value.denominator != 0 for x, _ in pairs)
        assert found > 300 and finer > 40
        for a in itertools.chain(_every_two_by_two(), _reducible_three_by_threes()):
            assert eigenpairs(a) == _reference_eigenpairs(a, star=True)[0], a

    def test_one_table_per_adjoint_column_tried(self, monkeypatch):
        # A's table (for its eigenvalues), then one determinant column per
        # adjoint column tried and no other table; the reducible 3x3, whose
        # vector is the star's, builds no column beyond the adjoint's.
        calls = Counter()
        for name in ("_permanent_table", "_det_column"):

            def counted(*args, _name=name, _original=getattr(matrix_module, name)):
                calls[_name] += 1
                return _original(*args)

            for module in (matrix_module, spectral_module):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        # Eigenvalue 0 takes column 1, and eigenvalue 1 tries both columns
        # and then their sum, which builds no column.
        assert _reference_eigenpairs(parse_matrix("1 3\n-inf 0"))[1] == 2 + 2
        rng = random.Random("eigenpairs-cost")
        texts = ["1 3\n-inf 0", "-inf -inf 0\n-inf 1 -inf\n-inf -inf 1"]
        texts += [str(_reference_matrix(rng, max_n=5, span=2)) for _ in range(20)]
        for text in texts:
            tried = _reference_eigenpairs(parse_matrix(text))[1]
            calls.clear()
            eigenpairs(parse_matrix(text))
            assert calls == Counter({"_permanent_table": 1, "_det_column": tried})

    def test_positive_cycle_needs_the_critical_sum(self):
        # a_00 = 3 makes a positive cycle of |A| for x = 0, so the star is
        # not defined; no adjoint column or their sum holds, but the sum of
        # the columns critical in their own row does: row 0 ties at 3/2.
        a = parse_matrix(POSITIVE_CYCLE_TEXT)
        assert _reference_eigenpairs(a, star=True)[0] == [(tangible(0), None), (tangible(3), None)]
        v = tuple(map(tangible, (Fraction(-3, 2), 3, 3, 3)))
        assert check_eigenpair(a, v, tangible(0)).holds
        assert eigenpairs(a) == [(tangible(0), v), (tangible(3), None)]

    def test_at_most_n_plus_two_candidates(self, monkeypatch):
        # Each eigenvalue tries its n adjoint columns, their sum and the
        # critical sum at most, and skips any with a -inf entry untried; the
        # positive-cycle 4x4's eigenvalue 0 holds only at the last of them.
        tried = Counter()

        def counted(a, v, x, _original=spectral_module.check_eigenpair):
            tried[x] += 1
            return _original(a, v, x)

        monkeypatch.setattr(spectral_module, "check_eigenpair", counted)
        rng = random.Random("eigenpairs-guard")
        seeded = (_reference_matrix(rng, max_n=5, span=2) for _ in range(200))
        extra = [parse_matrix(POSITIVE_CYCLE_TEXT)]
        eigenvalue_count = 0
        for a in itertools.chain(_every_two_by_two(), seeded, extra):
            tried.clear()
            for x, _ in eigenpairs(a):
                eigenvalue_count += 1
                assert tried[x] <= a.n + 2, (a, x)
        assert eigenvalue_count > 2000

    def test_finds_a_vector_exactly_when_the_lattice_holds_one(self):
        # Every 2x2 over eight entries, and seeded 3x3s over -inf, 0, 1, 0g.
        rng = random.Random("eigenpairs-lattice")
        entries = [ZERO, tangible(0), tangible(1), ghost(0)]
        seeded = (Matrix([[rng.choice(entries) for _ in range(3)] for _ in range(3)])
                  for _ in range(300))
        found = missing = 0
        for a in itertools.chain(_every_two_by_two(), seeded):
            for x, v in eigenpairs(a):
                assert (v is not None) == _lattice_holds_eigenvector(a, x), (a, x)
                found += v is not None
                missing += v is None
        assert (found, missing) == (2438 + 242, 352 + 40)


class TestCharpolyPower:
    def test_golden_detail(self):
        verdict = check_charpoly_power(A, 2)
        assert verdict.holds
        by_i = {d["i"]: d for d in verdict.detail}
        assert by_i[0] == {"i": 0, "coeff": "5g", "power": "4", "relation": "ghost-surpass"}
        assert by_i[1]["relation"] == "equal"

    def test_diagonal_all_equal(self):
        d = parse_matrix("3 -inf\n-inf 1")
        for m in (1, 2, 3, 4):
            verdict = check_charpoly_power(d, m)
            assert verdict.holds
            assert all(rec["relation"] == "equal" for rec in verdict.detail)

    def test_power_one_all_equal(self):
        verdict = check_charpoly_power(A, 1)
        assert verdict.holds
        assert all(rec["relation"] == "equal" for rec in verdict.detail)

    @pytest.mark.parametrize("middle, relation", [(ghost(3), "violation"),
                                                  (ghost(4), "ghost-surpass")])
    def test_ghost_coefficient_needs_the_magnitude(self, middle, relation):
        # charpoly(A) = x^2 + 2x + 2, so alpha^2 is (4, 4, 0) by degree. A
        # ghost below 4 does not ghost-surpass it; a ghost at 4 does.
        t = Trial(A, A, 2)
        t.__dict__["beta"] = Polynomial((tangible(4), middle, tangible(0)))
        verdict = CHECKS["thm36"](t)
        assert verdict.holds is (relation != "violation")
        assert verdict.witness == (None if verdict.holds else t.witness(i=1))
        assert [rec["relation"] for rec in verdict.detail] == ["equal", relation, "equal"]

    @given(matrices(max_n=3), st.integers(min_value=1, max_value=4))
    def test_always_holds(self, a, m):
        assert check_charpoly_power(a, m).holds


class TestTangibleEquality:
    def test_golden_not_applicable(self):
        verdict = check_tangible_equality(A, 2)
        assert verdict.holds is None
        assert not verdict.applicable

    def test_diagonal_holds(self):
        assert check_tangible_equality(parse_matrix("1 -inf\n-inf 2"), 3).holds

    def test_one_by_one(self):
        assert check_tangible_equality(Matrix(((tangible(7),),)), 5).holds

    @given(matrices(max_n=3), st.integers(min_value=1, max_value=3))
    def test_never_fails(self, a, m):
        assert check_tangible_equality(a, m).holds is not False


class TestCornerRootPower:
    def test_golden(self):
        verdict = check_corner_root_power(A, 2)
        assert verdict.holds
        assert verdict.detail == ({"corner_root": "4", "base_root": "2"},)

    def test_diagonal(self):
        assert check_corner_root_power(parse_matrix("5 -inf\n-inf 2"), 3).holds

    def test_power_one(self):
        assert check_corner_root_power(A, 1).holds

    @given(matrices(max_n=3), st.integers(min_value=1, max_value=4))
    def test_always_holds(self, a, m):
        assert check_corner_root_power(a, m).holds


class TestDetRule:
    def test_golden_with_itself(self):
        verdict = check_det_rule(A, A)
        assert verdict.holds
        assert verdict.detail[0]["lhs"] == "5g"
        assert verdict.detail[0]["rhs"] == "4"

    @given(st.data())
    def test_always_holds(self, data):
        # B has A's size and one entry of denominator 5, which no entry of A
        # has (the strategies draw denominators up to 3): AB is multiplied at
        # a joint scale that is not A's own.
        a = data.draw(matrices(max_n=4))
        rows = [list(row) for row in data.draw(matrices(min_n=a.n, max_n=a.n)).rows]
        i, j = data.draw(st.tuples(*[st.integers(0, a.n - 1)] * 2))
        rows[i][j] = data.draw(st.builds(tangible, small_fractions.map(lambda v: v + Fraction(1, 5))))
        b = Matrix(rows)
        assert a._keys[0] % 5 and not b._keys[0] % 5
        verdict = check_det_rule(a, b)
        assert verdict.holds
        record = verdict.detail[0]
        if record["tangible_equality"] is not None:
            assert record["tangible_equality"] is True


class TestTracePower:
    def test_golden(self):
        assert check_trace_power(parse_matrix("1 2\n3 4"), 2).holds

    @given(matrices(max_n=4), st.integers(min_value=1, max_value=4))
    def test_always_holds(self, a, m):
        assert check_trace_power(a, m).holds


class TestFrobeniusCheck:
    def test_tie_case(self):
        verdict = check_frobenius(tangible(3), tangible(3), 2)
        assert verdict.holds
        assert verdict.detail[0] == {"lhs": "6g", "rhs": "6g"}

    def test_bad_exponent(self):
        with pytest.raises(DomainError):
            check_frobenius(tangible(1), tangible(2), 0)

    @given(scalars, scalars, st.integers(min_value=1, max_value=5))
    def test_always_holds(self, a, b, n):
        assert check_frobenius(a, b, n).holds


class TestVerdictJson:
    def test_pass_schema(self):
        data = check_charpoly_power(A, 2).to_json_dict()
        assert data["theorem"] == "charpoly-power"
        assert data["holds"] is True
        assert "not_applicable" not in data
        assert isinstance(data["detail"], list)
        json.dumps(data)

    def test_not_applicable_schema(self):
        data = check_tangible_equality(A, 2).to_json_dict()
        assert data["not_applicable"] is True
        assert "holds" not in data

    def test_lazy_detail_reads_as_given(self):
        records = ({"lhs": "1", "rhs": "0"},)
        built = []

        def detail():
            built.append(1)
            yield from records

        lazy, plain = Verdict("x", True, None, detail), Verdict("x", True, None, records)
        assert not built
        assert lazy == plain and repr(lazy) == repr(plain)
        assert pickle.loads(pickle.dumps(lazy)) == plain
        assert lazy.detail is lazy.detail and built == [1]
        assert repr(plain) == (
            "Verdict(check='x', holds=True, witness=None, detail=({'lhs': '1', 'rhs': '0'},))"
        )

    def test_failure_carries_witness(self):
        verdict = check_eigenpair(A, (tangible(0), tangible(0)), tangible(0))
        data = verdict.to_json_dict()
        assert data["holds"] is False
        assert data["witness"]["matrix"]["n"] == 2
        json.dumps(data)


# Denominators with common factors, and every prime from 5 to 97.
_DENOMINATORS = (2, 3, 4, 6, 9, 12, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _palette_matrix(rng: random.Random, n: int) -> Matrix:
    """A matrix over a three-value palette of rationals with one or two
    denominators of its own: 20% ghosts, 10% -inf, ties common."""
    dens = rng.sample(_DENOMINATORS, rng.randint(1, 2))
    palette = [Fraction(rng.randint(-40, 40) * 2 + 1, rng.choice(dens)) for _ in range(3)]

    def entry():
        if rng.random() < 0.1:
            return ZERO
        value = rng.choice(palette)
        return ghost(value) if rng.random() < 0.2 else tangible(value)

    return Matrix(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


class TestTrialKeySpace:
    """A trial computes in key space, with A and B scaled jointly; it must
    give what the public matrix functions give on each matrix alone."""

    def test_matches_public_route(self):
        rng = random.Random("trial-key-space")
        for _ in range(300):
            n = rng.randint(1, 5)
            m = rng.randint(0, 4)
            a, b = _palette_matrix(rng, n), _palette_matrix(rng, n)
            t = Trial(a, b, m)
            assert t.alpha == char_poly(a), a
            power = mat_pow(a, m)
            assert t.beta == char_poly(power), (a, m)
            lhs = det(mat_mul(a, b)).value
            rhs = det(a).value * det(b).value
            record = CHECKS["thm13"](t).detail[0]
            assert (record["lhs"], record["rhs"]) == (str(lhs), str(rhs)), (a, b)
            assert CHECKS["trace"](t).detail[0]["lhs"] == str(trace(power)), (a, m)

    def test_error_texts(self):
        a3 = parse_matrix("0 1 2\n1 2 0\n2 0 1")
        with pytest.raises(ShapeError, match=r"^cannot multiply 2x2 by 3x3$"):
            CHECKS["thm13"](Trial(A, a3, 1))
        with pytest.raises(
            BoundExceededError, match=r"^determinant: size 3 exceeds bound 2$"
        ):
            CHECKS["thm13"](Trial(a3, a3, 1, bound=2))
        for check_id in ("thm36", "cor37", "cor38"):
            with pytest.raises(
                BoundExceededError, match=r"^characteristic polynomial: size 3 exceeds bound 2$"
            ):
                CHECKS[check_id](Trial(a3, a3, 2, bound=2))
        # The trace law computes no determinant, so no dimension bound applies.
        assert CHECKS["trace"](Trial(a3, a3, 2, bound=2)).holds
        # charpoly(A^m) computes the power first: a bad m is refused before
        # the dimension.
        for check_id in ("thm36", "cor37"):
            with pytest.raises(BoundExceededError, match=r"^matrix power: "):
                CHECKS[check_id](Trial(a3, a3, MAX_POWER + 1, bound=2))
            with pytest.raises(DomainError, match=r"^negative matrix powers"):
                CHECKS[check_id](Trial(a3, a3, -1, bound=2))


def test_oversize_matrix_refused_before_its_power(monkeypatch):
    # charpoly(A^m) checks m and then the dimension before A^m is built, so
    # an oversize matrix is refused after no key product.
    calls = []
    product = matrix_module._key_product

    def counting(*args):
        calls.append(1)
        return product(*args)

    monkeypatch.setattr(matrix_module, "_key_product", counting)
    a = Matrix.identity(10)
    for check_id in ("thm36", "cor37"):
        with pytest.raises(
            BoundExceededError, match=r"^characteristic polynomial: size 10 exceeds bound 9$"
        ):
            CHECKS[check_id](Trial(a, a, 3))
    assert calls == []


def test_trial_reads_the_matrix_cache(monkeypatch):
    # A trial's charpoly(A) is the matrix's own: after char_poly(a), the
    # charpoly-power law builds one more table, for A^m.
    calls = []
    table = matrix_module._permanent_table

    def counting(*args):
        calls.append(1)
        return table(*args)

    monkeypatch.setattr(matrix_module, "_permanent_table", counting)
    a = parse_matrix("1/2g 0 -inf\n2 -1/3 1\n0g 1 1/2")
    char_poly(a)
    assert CHECKS["thm36"](Trial(a, a, 2)).holds
    assert len(calls) == 2


def test_det_rule_multiplies_through_mat_mul():
    """The product rule takes AB from `mat_mul`: `spectral` imports none of
    the key-space helpers that encode or multiply matrices or build a
    polynomial subset table, so it keeps no copy of the product of its own
    and reaches a table only through a matrix. The determinant column
    (`_det_column`) is the one kernel it calls on keys, for det(AB), det(B)
    and the adjoint's columns."""
    helpers = {"_encode_keys", "_key_scale", "_key_product", "_permanent_table", "_det_column"}
    assert helpers <= package_defines()
    tree = ast.parse(Path(spectral_module.__file__).read_text(encoding="utf-8"))
    used = {alias.name.rpartition(".")[2] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used & helpers == {"_det_column"}
    assert "mat_mul" in used


def _law_json(t: Trial) -> dict:
    return {check_id: law(t).to_json_dict() for check_id, law in CHECKS.items()}


def _same_matrices_two_ways(rng: random.Random, k: int) -> tuple[Trial, Trial, Matrix, Matrix]:
    """A trial of key-built matrices (`Matrix._from_keys`) and one of the
    same matrices built from rows: drawn by `fuzz` as keys and as scalars
    (scale 1), or palette rationals encoded jointly (a larger scale). n runs
    1..5 and m 0..4."""
    n, m = k % 5 + 1, k // 5 % 5
    if k % 2:
        cfg = Config(value_min=-2, value_max=2, ghost_prob=0.3, zero_prob=0.15)
        seed = rng.random()
        draw = random.Random(seed)
        a, b = (Matrix(tuple(tuple(random_scalar(draw, cfg) for _ in range(n)) for _ in range(n)))
                for _ in range(2))
        draw = random.Random(seed)
        scale, x, y = 1, random_matrix(draw, n, cfg)._keys[1], random_matrix(draw, n, cfg)._keys[1]
    else:
        a, b = _palette_matrix(rng, n), _palette_matrix(rng, n)
        scale = _key_scale((a._keys[0], b._keys[0]), "matrix")
        x, y = ([[_key_pow(k, scale // own) for k in row] for row in keys]
                for own, keys in (a._keys, b._keys))
    keyed = Trial(Matrix._from_keys(scale, x), Matrix._from_keys(scale, y), m)
    return keyed, Trial(a, b, m), a, b


def _poke_wrong(t: Trial, name: str) -> None:
    """Replace the trial's cached ``power``, ``alpha`` or ``beta`` with a
    wrong value at A's scale: A^(m+1) or its characteristic polynomial."""
    wrong_power = mat_pow(t.a, t.m + 1)
    t.__dict__.pop("_coeff_keys", None)
    t.__dict__[name] = wrong_power if name == "power" else char_poly(wrong_power)


class TestKeyBuiltTrial:
    """A trial of key-built matrices decodes their rows only when read;
    every law must give the same verdict, detail and witness included, as
    on the trial of the same matrices built from rows."""

    def test_laws_agree(self):
        rng = random.Random("key-built-trials")
        outcomes = set()
        for k in range(250):
            keyed, built, a, b = _same_matrices_two_ways(rng, k)
            got = _law_json(keyed)
            assert got == _law_json(built), (a, b, keyed.m)
            assert (keyed.a, keyed.b) == (a, b)
            outcomes.update((c, v.get("holds")) for c, v in got.items())
        # Every law passed, and cor37 was also not applicable.
        assert {(c, True) for c in CHECKS} | {("cor37", None)} <= outcomes

    def test_failures_agree(self):
        # A wrong cached value, the same on both trials, makes the laws fail,
        # so the witnesses read the key-built trial's lazy rows.
        rng = random.Random("key-built-failures")
        failed = set()
        for k in range(150):
            keyed, built, a, b = _same_matrices_two_ways(rng, k)
            for cached, check_ids in (
                ("beta", ("thm36", "cor37", "cor38")),
                ("alpha", ("thm13",)),
                ("power", ("trace",)),
            ):
                for t in (keyed, built):
                    _poke_wrong(t, cached)
                for check_id in check_ids:
                    got = CHECKS[check_id](keyed).to_json_dict()
                    assert got == CHECKS[check_id](built).to_json_dict(), (a, b, check_id)
                    if got.get("holds") is False:
                        failed.add(check_id)
        assert failed == set(CHECKS)


def _cor38_reference(t: Trial) -> dict:
    """The corner-root law's verdict JSON, written on the public route: the
    corner roots that `roots` reports, compared as `Scalar` powers."""
    base = [lam for lam, _ in roots(t.alpha).corner_roots]
    detail, bad = [], None
    for mu, _ in roots(t.beta).corner_roots:
        match = next((lam for lam in base if lam**t.m == mu), None)
        if match is None:
            bad = mu
        detail.append({"corner_root": str(mu), "base_root": None if match is None else str(match)})
    witness = None if bad is None else t.witness(corner_root=str(bad))
    return Verdict("corner-root-power", bad is None, witness, tuple(detail)).to_json_dict()


def test_corner_root_law_matches_public_route():
    # The law compares the envelopes' integer cuts with A's scale
    # cancelled; it must agree with the public route on key-built and
    # row-built trials at scale 1 and above, m = 0 included, and, with a
    # wrong cached beta, on failures and their witnesses.
    rng = random.Random("corner-root-reference")
    seen = set()
    for k in range(250):
        keyed, built, a, b = _same_matrices_two_ways(rng, k)
        for t in (keyed, built):
            scale = t.a._keys[0]
            for wrong in (False, True):
                if wrong:
                    _poke_wrong(t, "beta")
                got = CHECKS["cor38"](t).to_json_dict()
                assert got == _cor38_reference(t), (a, t.m, t.beta)
                seen.add((got["holds"], scale > 1, t.m == 0, bool(got["detail"])))
    for holds, m_zero in itertools.product((True, False), (True, False)):
        assert {(holds, True, m_zero, True), (holds, False, m_zero, True)} <= seen


def _tied_lattice_matrix(rng: random.Random, trial: int) -> Matrix:
    """n <= 6 over the integers -2..2, 20% ghosts, 10% -inf: ties are common.
    The oracles grow like n!, so every 20th matrix is 6x6 and every 5th 5x5."""
    n = 6 if trial % 20 == 0 else 5 if trial % 5 == 0 else rng.randint(1, 4)

    def entry():
        if rng.random() < 0.1:
            return ZERO
        value = rng.randint(-2, 2)
        return ghost(value) if rng.random() < 0.2 else tangible(value)

    return Matrix(tuple(tuple(entry() for _ in range(n)) for _ in range(n)))


_SPECTRAL_CALLS = {"det": det, "char_poly": char_poly, "eigenvalues": eigenvalues}


def test_shared_cache_in_every_call_order():
    """det, char_poly and eigenvalues share one matrix's cached encoding and
    characteristic polynomial; in every order of the three calls on one
    object, each result is the one a fresh object gives, and the oracle's."""
    rng = random.Random("shared-matrix-cache")
    for trial in range(300):
        a = _tied_lattice_matrix(rng, trial)
        fresh = {name: call(Matrix(a.rows)) for name, call in _SPECTRAL_CALLS.items()}
        assert fresh["det"].to_json_dict() == enum_det(a).to_json_dict(), a
        direct = sym_direct_charpoly(a)
        assert fresh["char_poly"] == direct, a
        report = roots(direct)
        assert fresh["eigenvalues"].eigenvalues == report.corner_roots, a
        assert fresh["eigenvalues"].ghost_region == report.ghost_intervals, a
        for order in itertools.permutations(_SPECTRAL_CALLS):
            shared = Matrix(a.rows)
            for name in order:
                assert _SPECTRAL_CALLS[name](shared) == fresh[name], (a, order, name)
