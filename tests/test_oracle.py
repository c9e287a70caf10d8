"""Symbolic census and the independent characteristic-polynomial route."""

from __future__ import annotations

import ast
import json
import random
from pathlib import Path

import pytest
from hypothesis import given

from supertropical import (
    BoundExceededError,
    Matrix,
    SymMonomial,
    SymPoly,
    census_power_tracks,
    char_poly,
    check_eigenpair,
    det,
    enum_det,
    essential,
    mat_pow,
    minor_sum_charpoly,
    oracle,
    parse_matrix,
    parse_polynomial,
    sampled_equiv,
    search_eigenpairs,
    sym_charpoly_coeff,
    sym_direct_charpoly,
    tangible,
)
from conftest import matrices, package_defines, sample_matrix, sample_polynomial

A = parse_matrix("0 0\n1 2")


def mono(*pairs) -> SymMonomial:
    return SymMonomial.of(((i, j), e) for i, j, e in pairs)


class TestSymPoly:
    def test_two_by_two_permanent(self):
        coeff = sym_charpoly_coeff(2, 1, 2)
        assert coeff.terms == {
            mono((0, 0, 1), (1, 1, 1)): 1,
            mono((0, 1, 1), (1, 0, 1)): 1,
        }

    def test_trace_of_square(self):
        coeff = sym_charpoly_coeff(2, 2, 1)
        assert coeff.terms == {
            mono((0, 0, 2)): 1,
            mono((0, 1, 1), (1, 0, 1)): 2,
            mono((1, 1, 2)): 1,
        }

    def test_full_square_coefficient_has_unique_powers(self):
        coeff = sym_charpoly_coeff(2, 2, 2)
        assert coeff.terms[mono((0, 0, 2), (1, 1, 2))] == 1
        assert coeff.terms[mono((0, 1, 2), (1, 0, 2))] == 1

    def test_monomial_product_merges_exponents(self):
        a = mono((0, 1, 1))
        assert a * a == mono((0, 1, 2))
        assert (a * mono((1, 0, 1))) ** 3 == mono((0, 1, 3), (1, 0, 3))

    def test_poly_algebra(self):
        x01 = SymPoly.var(0, 1)
        s = x01 + x01
        assert s.terms == {mono((0, 1, 1)): 2}
        assert (s * SymPoly.one()).terms == s.terms
        assert (s * SymPoly.zero()).terms == {}

    def test_json_export(self):
        items = sym_charpoly_coeff(2, 2, 1).to_json_list()
        assert {"monomial": {"a[1,2]": 1, "a[2,1]": 1}, "count": 2} in items
        json.dumps(items)


class TestCensus:
    @pytest.mark.parametrize("nmk", [(2, 2, 1), (2, 2, 2), (3, 2, 2)])
    def test_golden_cases_hold(self, nmk):
        verdict = census_power_tracks(*nmk)
        assert verdict.holds
        assert verdict.detail[0]["power_track_monomials"] >= 1

    def test_min_other_count_is_at_least_two(self):
        verdict = census_power_tracks(3, 2, 2)
        assert verdict.detail[0]["min_other_count"] >= 2

    def test_trivial_power(self):
        # m = 1: the coefficient is exactly the set of track monomials.
        verdict = census_power_tracks(2, 1, 2)
        assert verdict.holds
        assert verdict.detail[0]["other_monomials"] == 0

    def test_violations_of_both_kinds(self, monkeypatch):
        # A power-track monomial counted twice and another counted once.
        track, other = mono((0, 0, 2)), mono((0, 1, 1), (1, 0, 1))
        forged = SymPoly({**sym_charpoly_coeff(2, 2, 1).terms, track: 2, other: 1})
        monkeypatch.setattr(oracle, "sym_charpoly_coeff", lambda n, m, k: forged)
        verdict = census_power_tracks(2, 2, 1)
        assert verdict.holds is False and str(verdict).startswith("FAIL power-track-census")
        assert verdict.witness == {"violations": [
            {"monomial": str(track), "count": 2, "want": 1},
            {"monomial": str(other), "count": 1, "want": ">=2"},
        ]}

    def test_witness_lists_at_most_ten(self, monkeypatch):
        # An empty coefficient misses all 24 power tracks of the 3-minors of
        # a 4x4; the witness lists the first 10.
        monkeypatch.setattr(oracle, "sym_charpoly_coeff", lambda n, m, k: SymPoly.zero())
        verdict = census_power_tracks(4, 2, 3)
        assert verdict.holds is False
        assert verdict.detail[0]["power_track_monomials"] == 24
        violations = verdict.witness["violations"]
        assert len(violations) == 10
        assert all(v["count"] == 0 and v["want"] == 1 for v in violations)

    def test_bounds_rejected(self):
        with pytest.raises(BoundExceededError):
            census_power_tracks(4, 2, 1)
        with pytest.raises(BoundExceededError):
            census_power_tracks(2, 4, 1)
        with pytest.raises(BoundExceededError):
            sym_charpoly_coeff(2, 2, 3)


class TestSubstitution:
    @pytest.mark.parametrize("seed", range(12))
    def test_multiset_folds_to_charpoly_coefficient(self, seed):
        rng = random.Random(f"subst:{seed}")
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        a = sample_matrix(rng, n)
        beta = char_poly(mat_pow(a, m))
        for k in range(1, n + 1):
            folded = sym_charpoly_coeff(n, m, k).substitute(a)
            assert folded == beta.coeff(n - k)


class TestDirectCharpoly:
    def test_golden(self):
        assert sym_direct_charpoly(A) == parse_polynomial("x^2 + 2x + 2")
        assert sym_direct_charpoly(mat_pow(A, 2)) == parse_polynomial("x^2 + 4x + 5g")

    def test_one_by_one(self):
        assert sym_direct_charpoly(Matrix(((tangible(7),),))) == parse_polynomial("x + 7")

    @given(matrices(max_n=3))
    def test_agrees_with_minor_sums(self, a):
        assert sym_direct_charpoly(a) == char_poly(a)

    def test_bound_rejected(self):
        with pytest.raises(BoundExceededError):
            sym_direct_charpoly(Matrix.identity(3), bound=2)


class TestOracleBound:
    """The enumerations default to their own dimension bound, not production's."""

    @pytest.mark.parametrize("enumerate_", [enum_det, minor_sum_charpoly, sym_direct_charpoly])
    def test_default_is_the_oracle_bound(self, enumerate_, monkeypatch):
        monkeypatch.setattr(oracle, "ORACLE_DIM_BOUND", 2)
        a = Matrix.identity(3)
        with pytest.raises(BoundExceededError) as exc:
            enumerate_(a)
        assert (exc.value.size, exc.value.bound) == (3, 2)
        assert det(a).value == char_poly(a).coeff(0)  # production keeps its own bound
        enumerate_(a, bound=3)

    def test_nine_by_default(self):
        assert oracle.ORACLE_DIM_BOUND == 9
        with pytest.raises(BoundExceededError, match="size 10 exceeds bound 9"):
            enum_det(Matrix.identity(10))


def test_oracle_uses_no_kernel_arithmetic():
    """The reference computes in `Scalar`s: it imports none of the key codec,
    the key arithmetic or the permanent kernels (the table and the
    determinant column) that it is there to check."""
    kernel = {"_encode_keys", "_key_scale", "_decode", "_permanent_table", "_det_column",
              "_key_product", "_key_pow", "_key_sum", "_key_surpasses"}
    assert kernel <= package_defines()
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    used = {alias.name.rpartition(".")[2] for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & kernel


class TestEigenpairSearch:
    def test_finds_golden_pair(self):
        a = parse_matrix("0 0\n1 2")
        pairs = search_eigenpairs(a, lattice=range(-2, 3), max_results=None)
        assert ((tangible(0), tangible(2)), tangible(2)) in pairs
        for v, x in pairs:
            assert check_eigenpair(a, v, x).holds


class TestSampledEquiv:
    def test_essential_reduction_sound(self):
        for seed in range(20):
            f = sample_polynomial(random.Random(f"equiv:{seed}"), 8)
            assert sampled_equiv(f, essential(f), samples=60, seed=seed).holds

    def test_distinct_polynomials_fail_with_witness(self):
        verdict = sampled_equiv(parse_polynomial("x + 2"), parse_polynomial("x + 3"))
        assert not verdict.holds
        assert "x" in verdict.witness

    def test_self_equivalence(self):
        f = parse_polynomial("x^3 + 1gx + 4")
        assert sampled_equiv(f, f).holds

    def test_deterministic_for_seed(self):
        f = parse_polynomial("x^2 + 3x + 1")
        g = essential(f)
        first = sampled_equiv(f, g, samples=40, seed=9)
        second = sampled_equiv(f, g, samples=40, seed=9)
        assert first == second
