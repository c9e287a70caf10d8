"""Matrices: product, determinant with track reporting, characteristic polynomial."""

from __future__ import annotations

import itertools
import json
import pickle
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import supertropical.matrix as matrix_module
from supertropical.errors import _digit_count
from supertropical.matrix import MAX_DIM_BOUND, MAX_POWER, check_dim_bound, check_power
from supertropical.scalar import _key_pow
from supertropical import (
    BoundExceededError,
    DetClass,
    DomainError,
    Matrix,
    ParseError,
    ShapeError,
    ZERO,
    char_poly,
    det,
    eigenvalues,
    format_matrix,
    ghost,
    mat_mul,
    mat_pow,
    mat_surpasses,
    mat_vec,
    matrix_from_json_dict,
    parse_matrix,
    parse_polynomial,
    principal_minor,
    tangible,
    trace,
)
from supertropical.oracle import enum_det, minor_sum_charpoly, sym_direct_charpoly
from conftest import brute_det_value, matrices, sample_matrix, scalar_mat_mul

A = parse_matrix("0 0\n1 2")
A2 = parse_matrix("1 2\n3 4")


class TestProduct:
    def test_square_of_golden_matrix(self):
        assert mat_pow(A, 2) == A2

    def test_identity_neutral(self):
        assert mat_mul(A, Matrix.identity(2)) == A
        assert mat_mul(Matrix.identity(2), A) == A

    def test_first_power(self):
        assert mat_pow(A, 1) == A

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_mul(A, Matrix.identity(3))

    @pytest.mark.parametrize("rows", [(), ((ZERO, ZERO), (ZERO,))], ids=["empty", "ragged"])
    def test_refuses_a_non_square_shape(self, rows):
        with pytest.raises(ShapeError, match=r"^matrix must be square and nonempty$"):
            Matrix(rows)

    @given(matrices(max_n=3), matrices(max_n=3), matrices(max_n=3))
    def test_associative(self, x, y, z):
        if x.n == y.n == z.n:
            assert mat_mul(mat_mul(x, y), z) == mat_mul(x, mat_mul(y, z))

    @pytest.mark.parametrize("m,products", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (6, 3)])
    def test_repeated_squaring_product_count(self, monkeypatch, m, products):
        calls = []
        key_product = matrix_module._key_product

        def counting_product(x, y):
            calls.append(1)
            return key_product(x, y)

        monkeypatch.setattr(matrix_module, "_key_product", counting_product)
        mat_pow(A, m)
        assert len(calls) == products

    def test_mat_vec(self):
        v = (tangible(0), tangible(2))
        assert mat_vec(A, v) == (tangible(2), tangible(4))
        with pytest.raises(ShapeError, match=r"^vector length 3 does not match dimension 2$"):
            mat_vec(A, (*v, ZERO))


class TestDet:
    def test_tangible_dominant_id(self):
        report = det(A)
        assert report.value == tangible(2)
        assert report.classification is DetClass.TANGIBLE
        assert [t.name for t in report.dominant_tracks] == ["Id"]

    def test_ghost_by_tie(self):
        report = det(A2)
        assert report.value == ghost(5)
        assert report.classification is DetClass.GHOST_BY_TIE
        assert {t.name for t in report.dominant_tracks} == {"Id", "-Id"}
        assert all(t.product == tangible(5) for t in report.dominant_tracks)
        tracks = report.dominant_tracks
        assert repr(tracks) == "<2 dominant tracks>"
        assert tracks == tuple(tracks) and tracks != list(tracks)

    def test_diagonal(self):
        d = parse_matrix("1 -inf -inf\n-inf 2 -inf\n-inf -inf 3")
        report = det(d)
        assert report.value == tangible(6)
        assert [t.name for t in report.dominant_tracks] == ["Id"]

    def test_ghost_track(self):
        report = det(parse_matrix("1g -inf\n-inf 2"))
        assert report.value == ghost(3)
        assert report.classification is DetClass.GHOST_BY_GHOST_TRACK

    def test_zero_row(self):
        report = det(parse_matrix("-inf -inf\n1 2"))
        assert report.value == ZERO
        assert report.classification is DetClass.ZERO
        assert report.dominant_tracks == ()

    def test_bound_rejected(self):
        with pytest.raises(BoundExceededError):
            det(Matrix.identity(3), bound=2)

    @given(matrices(max_n=4))
    def test_matches_brute_oracle(self, a):
        report = det(a)
        assert report.value == brute_det_value(a)
        if report.value.is_tangible:
            assert len(report.dominant_tracks) == 1
            assert report.dominant_tracks[0].product.is_tangible

    @given(matrices(min_n=2, max_n=3))
    def test_invariant_under_simultaneous_permutation(self, a):
        for perm in itertools.permutations(range(a.n)):
            permuted = Matrix(
                tuple(
                    tuple(a.rows[perm[i]][perm[j]] for j in range(a.n))
                    for i in range(a.n)
                )
            )
            assert det(permuted).value == det(a).value


def _count_matrices():
    """Matrices for n = 1..7 on the lattice -2..2: all tied, all ghost and
    tied, a single ghost dominant track, then seeded draws, every third
    one mostly -inf."""
    rng = random.Random("dominant-count")
    for n in range(1, 8):
        yield Matrix(((tangible(1),) * n,) * n)
        yield Matrix(((ghost(-1),) * n,) * n)
        yield Matrix(tuple(
            tuple((ghost(2) if i == 0 else tangible(2)) if i == j else tangible(0)
                  for j in range(n))
            for i in range(n)
        ))
        for trial in range(30 if n < 6 else 4):
            zero_p = 0.6 if trial % 3 == 0 else 0.1
            yield Matrix(tuple(
                tuple(ZERO if rng.random() < zero_p else
                      (ghost if rng.random() < 0.2 else tangible)(rng.randint(-2, 2))
                      for _ in range(n))
                for _ in range(n)
            ))


@pytest.mark.parametrize("char_poly_first", [False, True], ids=["det-first", "char-poly-first"])
def test_dominant_count_matches_enumeration(char_poly_first):
    # With char_poly first, det reads the column that char_poly cached.
    seen = set()
    for a in _count_matrices():
        if char_poly_first:
            char_poly(a)
        report, expected = det(a), enum_det(a)
        tracks = report.dominant_tracks
        assert len(tracks) == len(expected.dominant_tracks), a
        assert report.classification is expected.classification, a
        assert report == expected and expected == report and hash(report) == hash(expected), a
        assert [tracks[i] for i in range(len(tracks))] == list(tracks), a
        seen.add(report.classification)
    assert seen == set(DetClass)


class TestLazyListing:
    """A report counts its dominant tracks and builds them only when read."""

    Z5 = Matrix(((tangible(0),) * 5,) * 5)

    @pytest.fixture
    def built(self, monkeypatch):
        """The permutations of every track that `det`'s report builds."""
        made = []
        track = matrix_module.PermutationTrack

        def counting(perm, product):
            made.append(perm)
            return track(perm, product)

        monkeypatch.setattr(matrix_module, "PermutationTrack", counting)
        return made

    def test_count_builds_no_track(self, built):
        report = det(self.Z5)
        assert len(report.dominant_tracks) == 120
        assert report.classification is DetClass.GHOST_BY_TIE
        assert report.value == ghost(0)
        assert built == []
        data = report.to_json_dict()
        assert [tuple(j - 1 for j in t["perm"]) for t in data["dominant"]] == built
        assert built == list(itertools.permutations(range(5)))
        assert "track_count" not in data and "truncated" not in data

    def test_nine_by_nine_count(self, built):
        report = det(Matrix(((tangible(0),) * 9,) * 9))
        assert len(report.dominant_tracks) == 362880
        assert built == []

    def test_reader_that_stops_early(self, built):
        tracks = det(self.Z5).dominant_tracks
        assert next(iter(tracks)).name == "Id"
        assert tracks[-1].name == "-Id"
        assert [t.perm for t in tracks[2:4]] == [(0, 1, 3, 2, 4), (0, 1, 3, 4, 2)]
        assert len(built) == 4
        with pytest.raises(IndexError):
            tracks[120]

    def test_json_past_the_cap(self, built, monkeypatch):
        monkeypatch.setattr(matrix_module, "MAX_LISTED_TRACKS", 7)
        report = det(self.Z5)
        data = report.to_json_dict()
        assert len(built) == 7
        assert (data["track_count"], data["truncated"]) == (120, True)
        assert data["dominant"] == [t.to_json_dict() for t in report.dominant_tracks[:7]]


class TestMinorsAndTrace:
    def test_minor_picks_rows_and_columns(self):
        m = parse_matrix("1 2 3\n4 5 6\n7 8 9")
        assert principal_minor(m, (0, 2)) == parse_matrix("1 3\n7 9")

    def test_full_minor_is_matrix(self):
        assert principal_minor(A, (0, 1)) == A

    def test_single_entry(self):
        assert principal_minor(A, (1,)) == Matrix(((tangible(2),),))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            principal_minor(A, ())

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            principal_minor(A, (0, 2))

    def test_trace_golden(self):
        assert trace(A) == tangible(2)
        assert trace(A2) == tangible(4)

    def test_trace_tie(self):
        assert trace(parse_matrix("3 0\n0 3")) == ghost(3)


class TestCharPoly:
    def test_golden(self):
        assert char_poly(A) == parse_polynomial("x^2 + 2x + 2")
        assert char_poly(A2) == parse_polynomial("x^2 + 4x + 5g")

    def test_diagonal_formula(self):
        d = parse_matrix("5 -inf\n-inf 2")
        assert char_poly(d) == parse_polynomial("x^2 + 5x + 7")

    @given(matrices(max_n=3))
    def test_ends_are_trace_and_det(self, a):
        f = char_poly(a)
        assert f.coeff(a.n) == tangible(0)
        assert f.coeff(a.n - 1) == trace(a)
        assert f.coeff(0) == det(a).value

    @given(matrices(max_n=3))
    def test_agrees_with_direct_permanent(self, a):
        assert char_poly(a) == sym_direct_charpoly(a)

    def test_bound_propagates(self):
        with pytest.raises(BoundExceededError):
            char_poly(Matrix.identity(4), bound=3)


class TestCaps:
    def test_scale_digits_cap(self):
        # The scale is the denominator here: 2,000 digits pass, 2,001 do not.
        within = Fraction(1, 10**2000 - 1)
        assert det(Matrix(((tangible(within),),))).value == tangible(within)
        over = Matrix(((tangible(Fraction(1, 10**2000)),),))
        message = r"^digits of the matrix scale: size 2001 exceeds bound 2000$"
        # mat_pow reads the keys before it checks m, so the scale is refused
        # first even for a negative or oversize power.
        powers = (lambda a: mat_pow(a, 2), lambda a: mat_pow(a, -1),
                  lambda a: mat_pow(a, MAX_POWER + 1))
        for route in (det, char_poly, lambda a: mat_mul(a, a), *powers):
            with pytest.raises(BoundExceededError, match=message):
                route(over)

    def test_scale_refused_while_built(self):
        # 256 distinct odd 1,000-digit denominators: their full LCM would
        # have over 250,000 digits, but the running LCM passes the cap at
        # the third denominator and is refused there.
        n = 16
        a = Matrix(tuple(
            tuple(tangible(Fraction(1, 10**999 + 2 * (n * i + j) + 1)) for j in range(n))
            for i in range(n)
        ))
        for route in (lambda a: det(a, bound=n), lambda a: char_poly(a, bound=n),
                      lambda a: mat_mul(a, a)):
            with pytest.raises(BoundExceededError, match="^digits of the matrix scale") as exc:
                route(a)
            assert 2000 < exc.value.size < 3000

    def test_power_cap(self):
        one = Matrix(((tangible(1),),))
        assert mat_pow(one, MAX_POWER) == Matrix(((tangible(MAX_POWER),),))
        message = rf"^matrix power: size {MAX_POWER + 1} exceeds bound {MAX_POWER}$"
        with pytest.raises(BoundExceededError, match=message):
            mat_pow(one, MAX_POWER + 1)
        # The one power rule, which `mat_pow` and the laws' trials call.
        for m in (0, 1, MAX_POWER):
            assert check_power(m) is None
        with pytest.raises(BoundExceededError, match=message):
            check_power(MAX_POWER + 1)
        with pytest.raises(DomainError, match=r"^negative matrix powers are not defined$"):
            check_power(-1)

    def test_dimension_bound_ceiling(self, monkeypatch):
        # A bound above MAX_DIM_BOUND is refused, whatever the dimension,
        # before any table or column is built; the ceiling itself is a bound.
        for name in ("_permanent_table", "_det_column", "_size_layers"):
            monkeypatch.setattr(matrix_module, name, None)
        one = Matrix(((tangible(1),),))
        message = rf"^dimension bound: size {MAX_DIM_BOUND + 1} exceeds bound {MAX_DIM_BOUND}$"
        for route in (det, char_poly, eigenvalues):
            with pytest.raises(BoundExceededError, match=message):
                route(one, bound=MAX_DIM_BOUND + 1)
        with pytest.raises(BoundExceededError, match=r"^dimension bound: size of 31 digits"):
            check_dim_bound("determinant", 2, 10**30)
        assert check_dim_bound("determinant", MAX_DIM_BOUND, MAX_DIM_BOUND) == MAX_DIM_BOUND

    def test_huge_power_reported_by_digit_count(self):
        # 10**5000 is past the interpreter's str() limit for ints; the
        # message gives its digit count instead of the number.
        message = rf"^matrix power: size of 5001 digits exceeds bound {MAX_POWER}$"
        with pytest.raises(BoundExceededError, match=message):
            mat_pow(parse_matrix("0"), 10**5000)

    @pytest.mark.parametrize(
        "size, shown",
        [(10**30 - 1, str(10**30 - 1)), (10**30, "of 31 digits"), (9 * 10**4299, "of 4300 digits")],
    )
    def test_long_sizes_shown_as_digit_counts(self, size, shown):
        assert str(BoundExceededError("x", size, 1)) == f"x: size {shown} exceeds bound 1"

    def test_digit_count_at_every_length(self):
        # From k = 15 on, the float log10 of 10**k - 1 rounds up to k, and
        # the count is mended down by one.
        for k in range(1, 401):
            assert _digit_count(10**k - 1) == k
            assert _digit_count(10**k) == k + 1


class TestSharedCache:
    """A matrix encodes itself once and computes its characteristic
    polynomial once; the cache is invisible otherwise."""

    B3 = "1/2g 0 -inf\n2 -1/3 1\n0g 1 1/2"

    def test_bound_checked_on_every_call(self):
        a = parse_matrix(self.B3)
        char_poly(a)
        for route in (char_poly, det, eigenvalues):
            with pytest.raises(
                BoundExceededError, match=r"^(characteristic polynomial|determinant): size 3 exceeds bound 2$"
            ):
                route(a, bound=2)
        assert char_poly(a) == sym_direct_charpoly(a)

    def test_cache_leaves_identity_unchanged(self):
        a, fresh = parse_matrix(self.B3), parse_matrix(self.B3)
        before = (hash(a), repr(a), a.to_json_dict(), pickle.dumps(a))
        det(a), char_poly(a), eigenvalues(a), mat_pow(a, 2)
        assert a == fresh and fresh == a
        assert (hash(a), repr(a), a.to_json_dict()) == before[:3]
        assert (hash(fresh), repr(fresh), fresh.to_json_dict()) == before[:3]
        for copy in (pickle.loads(before[3]), pickle.loads(pickle.dumps(a))):
            assert copy == a and hash(copy) == hash(a) and repr(copy) == repr(a)
            assert char_poly(copy) == char_poly(fresh)
        assert list(a.__getstate__()) == ["rows"]

    def test_pickle_holds_only_rows(self):
        a = parse_matrix(B4_TEXT)
        fresh = pickle.dumps(a)
        det(a), char_poly(a), eigenvalues(a)
        assert pickle.dumps(a) == fresh
        assert char_poly(pickle.loads(fresh)) == char_poly(a)

    def test_pickles_load_and_dump_as_before(self):
        """The bytes (protocol 4) that B4 and its cube pickled to when
        `Matrix` was a dataclass."""
        b4 = parse_matrix(B4_TEXT)
        for a, data in ((b4, B4_PICKLE), (mat_pow(b4, 3), B4_CUBE_PICKLE)):
            copy = pickle.loads(data)
            assert copy == a and hash(copy) == hash(a) and repr(copy) == repr(a)
            assert pickle.dumps(a, protocol=4) == data
            assert pickle.dumps(copy, protocol=4) == data

    def test_cached_keys_are_immutable(self):
        scale, keys = parse_matrix(self.B3)._keys
        assert scale == 6
        assert isinstance(keys, tuple) and all(isinstance(row, tuple) for row in keys)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_one_encode_two_tables(self, monkeypatch, order):
        """det + char_poly + eigenvalues on one matrix, in any order: one
        encode (one scale) and one table, whose top entry is the
        characteristic polynomial and whose coefficient 0 is the determinant."""
        calls = {"_key_scale": 0, "_permanent_table": 0}

        def counting(name):
            original = getattr(matrix_module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(matrix_module, name, counting(name))
        a = parse_matrix(self.B3)
        routes = (det, char_poly, eigenvalues)
        for k in order:
            routes[k](a)
        assert calls == {"_key_scale": 1, "_permanent_table": 1}

    def test_keeps_the_polynomial_and_the_column(self):
        """After char_poly a matrix keeps the subset table's top entry and
        its determinant column, two flat lists, not its 2^n coefficient
        lists, which come to about 0.55 MB on this 12x12 matrix."""
        rng = random.Random("held")
        a = Matrix(tuple(
            tuple(ZERO if rng.random() < 0.15 else
                  (ghost if rng.random() < 0.2 else tangible)(
                      Fraction(rng.randint(-9, 9), rng.choice((2, 3))))
                  for _ in range(12))
            for _ in range(12)
        ))
        a._keys
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            char_poly(a, bound=12)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 300_000
        top, dets = a._table
        assert type(top) is list and type(dets) is list
        assert all(k is None or type(k) is int for k in top)
        assert len(dets) == 4096 and all(k is None or type(k) is int for k in dets)


class TestKeyForm:
    """A matrix built from keys (`Matrix._from_keys`, as products and powers
    are returned) decodes its rows only when read, and is otherwise the
    matrix of those rows."""

    def test_agrees_with_row_built_twin(self):
        # Keys at the matrix's own scale, and at a joint scale 5 times larger.
        own, keys = parse_matrix(TestSharedCache.B3)._keys
        scale = 5 * own
        assert scale == 30
        x = [[_key_pow(k, 5) for k in row] for row in keys]
        cases = (
            (Matrix._from_keys(*parse_matrix(B4_TEXT)._keys), B4_TEXT),
            (Matrix._from_keys(scale, x), TestSharedCache.B3),
        )
        for keyed, text in cases:
            assert "rows" not in vars(keyed)
            twin = parse_matrix(text)
            assert keyed == twin and twin == keyed and hash(keyed) == hash(twin)
            assert (repr(keyed), str(keyed)) == (repr(twin), str(twin))
            assert keyed.to_json_dict() == twin.to_json_dict()
            assert [keyed[i, j] for i in range(keyed.n) for j in range(keyed.n)] == [
                twin[i, j] for i in range(twin.n) for j in range(twin.n)
            ] == [entry for row in twin.rows for entry in row]
            assert pickle.dumps(keyed) == pickle.dumps(twin)
            assert char_poly(keyed) == char_poly(twin)

    def test_power_decodes_only_when_read(self, monkeypatch):
        calls = []
        decode = matrix_module._decode

        def counting(*args):
            calls.append(1)
            return decode(*args)

        monkeypatch.setattr(matrix_module, "_decode", counting)
        a = parse_matrix(B4_TEXT)
        cube = mat_pow(a, 3)
        char_poly(cube), char_poly(mat_mul(a, cube))
        assert calls == []
        assert cube == mat_mul(a, mat_mul(a, a))
        assert len(calls) == 2 * 16


class TestSurpassesMatrix:
    def test_reflexive(self):
        assert mat_surpasses(A, A)

    def test_scalar_lift(self):
        assert mat_surpasses(Matrix(((ghost(5),),)), Matrix(((tangible(4),),)))
        assert not mat_surpasses(Matrix(((tangible(3),),)), Matrix(((tangible(4),),)))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mat_surpasses(A, Matrix.identity(3))


class TestTextForms:
    def test_round_trip_text(self):
        for seed in range(10):
            a = sample_matrix(random.Random(f"mtx:{seed}"), seed % 4 + 1)
            assert parse_matrix(format_matrix(a)) == a

    def test_round_trip_json(self):
        a = parse_matrix("0 0\n1 2g")
        data = json.loads(json.dumps(a.to_json_dict()))
        assert matrix_from_json_dict(data) == a

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_matrix("0 0\n1 nope")
        assert err.value.line == 2
        assert err.value.col == 2
        assert str(err.value) == "line 2, field 2: not a scalar: 'nope'"

    def test_non_square_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("0 0\n1")
        with pytest.raises(ParseError):
            parse_matrix("0 0")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_matrix("   \n  ")

    def test_bad_json_shape(self):
        # A bool or a float is no dimension, even where it equals the row count.
        for data in ({"n": 2, "rows": [["0"]]}, {"n": True, "rows": [["0"]]},
                     {"n": 1.0, "rows": [["1"]]}):
            with pytest.raises(ParseError):
                matrix_from_json_dict(data)

    @pytest.mark.parametrize("rows", [5, "00", [5, 5], [["0", "0"], None], {"a": 1}])
    def test_json_rows_not_a_grid(self, rows):
        with pytest.raises(ParseError):
            matrix_from_json_dict({"n": 2, "rows": rows})


@given(matrices(max_n=3), st.integers(min_value=0, max_value=6))
def test_power_by_iterated_product(a, m):
    expected = Matrix.identity(a.n)
    for _ in range(m):
        expected = scalar_mat_mul(expected, a)
    assert mat_pow(a, m) == expected


def _lattice_scalar(rng: random.Random):
    """Integers -2..2, 20% ghosts, 10% -inf: ties among tracks are common."""
    if rng.random() < 0.1:
        return ZERO
    value = Fraction(rng.randint(-2, 2))
    return ghost(value) if rng.random() < 0.2 else tangible(value)


def _special_matrices():
    """All-equal (every track ties), diagonal and zero-row matrices, n <= 6."""
    for n in range(1, 7):
        for entry in (tangible(Fraction(1, 3)), ghost(-1), ZERO):
            yield Matrix(tuple((entry,) * n for _ in range(n)))
        yield Matrix(
            tuple(
                tuple(tangible(i) if i == j else ZERO for j in range(n))
                for i in range(n)
            )
        )
        for zero_row in (0, n - 1):
            rows = [tuple(tangible(i * j % 3) for j in range(n)) for i in range(n)]
            rows[zero_row] = (ZERO,) * n
            yield Matrix(tuple(rows))


def _lattice_matrices(count: int):
    """Seeded matrices with n <= 6. The enumeration routes grow like n!, so
    every 30th matrix is 5x5 and every 150th 6x6; the rest are n <= 4."""
    rng = random.Random("dp-vs-enumeration")
    for trial in range(count):
        if trial % 150 == 0:
            n = 6
        elif trial % 30 == 0:
            n = 5
        else:
            n = rng.randint(1, 4)
        yield Matrix(
            tuple(tuple(_lattice_scalar(rng) for _ in range(n)) for _ in range(n))
        )


def test_dp_matches_enumeration():
    ties = 0
    for a in itertools.chain(_special_matrices(), _lattice_matrices(3000)):
        report = det(a)
        assert report.to_json_dict() == enum_det(a).to_json_dict(), a
        ties += report.classification is DetClass.GHOST_BY_TIE
        assert char_poly(a) == minor_sum_charpoly(a) == sym_direct_charpoly(a), a
    assert ties > 300


# Denominators that are not all coprime, plus primes up to 97, so the scale
# (the LCM of a matrix's denominators) is large.
_DENOMINATORS = (2, 3, 4, 6, 9, 12, 5, 7, 11, 13, 31, 53, 89, 97)


def _rational_scalar(rng: random.Random, values):
    """A non-integer from ``values``, 20% ghosts, 10% -inf."""
    if rng.random() < 0.1:
        return ZERO
    value = rng.choice(values)
    return ghost(value) if rng.random() < 0.2 else tangible(value)


def _rational_matrices(count: int):
    """Seeded matrices with n <= 6 over non-integer rationals with mixed
    denominators. Each trial draws one value per denominator; every other
    matrix keeps three of them, so ties among tracks and among product
    terms are common, and the rest use all, so their scale is a product of
    many primes."""
    rng = random.Random("scaled-kernels")
    for trial in range(count):
        n = 6 if trial % 100 == 0 else 5 if trial % 20 == 0 else rng.randint(1, 4)
        values = []
        for q in _DENOMINATORS:
            p = rng.randint(-400, 400)
            if p % q:
                values.append(Fraction(p, q))
        if trial % 2 == 0:
            values = rng.sample(values, 3)
        yield [
            Matrix(tuple(tuple(_rational_scalar(rng, values) for _ in range(n)) for _ in range(n)))
            for _ in range(2)
        ]


def test_scaled_kernels_match_scalar_references():
    ties = 0
    for a, b in _rational_matrices(400):
        report = det(a)
        assert report.to_json_dict() == enum_det(a).to_json_dict(), a
        ties += report.classification is DetClass.GHOST_BY_TIE
        assert char_poly(a) == minor_sum_charpoly(a), a
        assert mat_mul(a, b) == scalar_mat_mul(a, b), (a, b)
        expected = a
        for m in range(2, 5):
            expected = scalar_mat_mul(expected, a)
            assert mat_pow(a, m) == expected, (a, m)
    assert ties > 20


def test_det_column_is_the_table_column():
    """`_det_column` equals `_permanent_table`'s determinant column, ties and
    -inf included, also on rows in a shuffled order, where the table's x
    terms fall off the diagonal and its column still reads none of them."""
    rng = random.Random("det-column")
    ties = scaled = 0
    for trial in range(800):
        n = trial % 8 + 1
        zero_prob = rng.choice((0, 0.15, 0.3, 0.5))
        values = [Fraction(p, rng.choice((1, 2, 3))) for p in range(-2, 3)]
        a = Matrix(tuple(
            tuple(ZERO if rng.random() < zero_prob
                  else (ghost if rng.random() < 0.4 else tangible)(rng.choice(values))
                  for _ in range(n))
            for _ in range(n)
        ))
        scale, keys = a._keys
        shuffled = rng.sample(keys, n)
        for rows in (keys, shuffled):
            column = matrix_module._det_column(rows)
            assert column == matrix_module._permanent_table(rows)[1], a
        assert column[-1] == a._table[1][-1]
        scaled += scale > 1
        ties += det(a).classification is DetClass.GHOST_BY_TIE
    assert ties > 100 and scaled > 400


def _edge_shape(rng: random.Random, shape: str, n: int) -> Matrix:
    """A seeded matrix of one edge shape for the subset table: ``row`` has a
    row of -inf, ``diagonal`` an all -inf diagonal, ``x-only`` finite entries
    only above the diagonal (so every finite track of A + xI but the all-x
    one is -inf), and ``tied`` every entry equal."""
    values = [Fraction(p, rng.choice((1, 2, 3))) for p in range(-3, 4)]

    def entry(i, j):
        if shape == "x-only" and j <= i or shape == "diagonal" and i == j:
            return ZERO
        if rng.random() < 0.15 and shape != "tied":
            return ZERO
        return (ghost if rng.random() < 0.3 else tangible)(rng.choice(values))

    rows = [[entry(i, j) for j in range(n)] for i in range(n)]
    if shape == "row":
        rows[rng.randrange(n)] = [ZERO] * n
    if shape == "tied":
        rows = [[rows[0][0]] * n for _ in range(n)]
    return Matrix(rows)


def test_permanent_table_edge_shapes():
    """On n = 1, a row of -inf, an all -inf diagonal, tracks through x alone
    and all entries tied, the table's top has n + 1 keys, equal to the
    direct route's characteristic polynomial at the matrix's scale for
    n <= 6, and its column equals `_det_column`."""
    rng = random.Random("table-edge-shapes")
    shapes = ("random", "row", "diagonal", "x-only", "tied")
    for trial in range(150):
        shape = shapes[trial % len(shapes)]
        n = 1 if trial < 10 else rng.randint(2, 8)
        a = _edge_shape(rng, shape, n)
        scale, keys = a._keys
        top, dets = matrix_module._permanent_table(keys)
        assert len(top) == n + 1 and top[-1] == 0, (shape, a)
        assert dets == matrix_module._det_column(keys), (shape, a)
        if n <= 6:
            s, expected = sym_direct_charpoly(a)._keys
            assert top == [_key_pow(k, scale // s) for k in expected], (shape, a)
        if shape == "x-only":
            assert top[1:] == [None] * (n - 1) + [0] and dets[-1] is None


def test_permanent_table_holds_reachable_degrees_and_two_layers():
    """While the table is built, ``table[S]`` has the degrees 0..k for the k
    rows i..n-1 of S's layer that are also among S's columns, and every
    entry held is in the layer being built or the one before it."""
    rng = random.Random("table-layers")
    kernel = matrix_module._permanent_table.__code__
    for n in (3, 5):
        a = _edge_shape(rng, "random", n)
        seen = {}

        def trace(frame, event, arg):
            if frame.f_code is not kernel:
                return None
            held = {s: len(entry) for s, entry in enumerate(frame.f_locals.get("table") or ())
                    if entry}
            sizes = {s.bit_count() for s in held}
            assert not sizes or max(sizes) - min(sizes) <= 1
            seen.update(held)
            return trace

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            matrix_module._permanent_table(a._keys[1])
        finally:
            sys.settrace(previous)
        assert len(seen) > 2 ** n // 2
        for s, width in seen.items():
            assert width == 1 + (s >> (n - s.bit_count())).bit_count(), (a, s)


# The subset kernels as they were before the shared column index, kept as
# references: each row's finite entries are tested against every subset.


def _reference_permanent_table(keys):
    n = len(keys)
    live = [[(1 << j, k) for j, k in enumerate(row) if k is not None] for row in keys]
    layers = [[s for s in range(1 << n) if s.bit_count() == size] for size in range(n + 1)]
    table = [None] * (1 << n)
    dets = [None] * (1 << n)
    table[0] = [0]
    dets[0] = 0
    for size in range(1, n + 1):
        i = n - size
        row = live[i]
        diag = 1 << i
        for subset in layers[size]:
            acc = None
            if subset & diag:
                rest = table[subset ^ diag]
                if rest is not None:
                    acc = [None, *rest]
            for bit, p in row:
                if not subset & bit:
                    continue
                rest = table[subset ^ bit]
                if rest is None:
                    continue
                if acc is None:
                    acc = [None if q is None else p + q - (p & q & 1) for q in rest]
                    acc += [None] * (1 + (subset >> i).bit_count() - len(acc))
                    continue
                for d, q in enumerate(rest):
                    if q is None:
                        continue
                    term = p + q - (p & q & 1)
                    old = acc[d]
                    if old is None or term > old | 1:
                        acc[d] = term
                    elif term >> 1 == old >> 1:
                        acc[d] = old | 1
            if acc is not None:
                table[subset] = acc
                dets[subset] = acc[0]
        for subset in layers[size - 1]:
            table[subset] = None
    return table[-1], dets


def _reference_det_column(keys):
    n = len(keys)
    live = [[(1 << j, k) for j, k in enumerate(row) if k is not None] for row in keys]
    dets = [None] * (1 << n)
    dets[0] = 0
    for subset in range(1, 1 << n):
        acc = None
        for bit, p in live[n - subset.bit_count()]:
            if not subset & bit:
                continue
            q = dets[subset ^ bit]
            if q is None:
                continue
            term = p + q - (p & q & 1)
            if acc is None or term > acc | 1:
                acc = term
            elif term >> 1 == acc >> 1:
                acc |= 1
        dets[subset] = acc
    return dets


def _reference_steps(keys, dets):
    """The dominant steps and completion counts of `DominantTracks`."""
    n = len(keys)
    steps = {0: []}
    ways = {0: 1}

    def count(subset):
        if subset not in ways:
            target = dets[subset] >> 1
            steps[subset] = [
                (j, k & 1)
                for j, k in enumerate(keys[n - subset.bit_count()])
                if subset & (1 << j)
                and k is not None
                and (rest := dets[subset ^ (1 << j)]) is not None
                and (k >> 1) + (rest >> 1) == target
            ]
            ways[subset] = sum(count(subset ^ (1 << j)) for j, _ in steps[subset])
        return ways[subset]

    count((1 << n) - 1)
    return steps, ways


def _reference_listing(steps, subset, perm=(), ghosted=0):
    """The (permutation, ghost bit) of each dominant track, depth first in
    ascending column order."""
    if not subset:
        yield perm, ghosted
    for j, ghost_bit in steps.get(subset, ()):
        yield from _reference_listing(steps, subset ^ (1 << j), perm + (j,), ghosted | ghost_bit)


def _index_keys(rng, shape, n):
    """A seeded key matrix of one shape: ``random`` on -5..5 with 5% -inf,
    ``row`` with a row of -inf, ``diagonal`` with an all -inf diagonal,
    ``tied`` with every entry equal, ``ghost`` all ghost, ``wide`` on
    +-10^6 at scale 97; 20% ghosts where the shape leaves it open."""

    def key(i, j):
        if shape == "diagonal" and i == j or shape != "tied" and rng.random() < 0.05:
            return None
        if shape == "wide":
            return rng.randint(-10**6 * 97, 10**6 * 97) << 1 | (rng.random() < 0.2)
        return rng.randint(-5, 5) << 1 | (shape == "ghost" or rng.random() < 0.2)

    keys = [[key(i, j) for j in range(n)] for i in range(n)]
    if shape == "row":
        keys[rng.randrange(n)] = [None] * n
    if shape == "tied":
        keys = [[keys[0][0]] * n for _ in range(n)]
    return tuple(map(tuple, keys))


class TestColumnIndex:
    """The kernels walk the shared column index (`matrix._members`) and
    give what the kernels that tested every column gave, on both sides of
    the 9-column chunk boundary."""

    SHAPES = ("random", "row", "diagonal", "tied", "ghost", "wide")

    def test_kernels_match_their_references(self):
        rng = random.Random("column-index")
        listed = 0
        for n in range(1, 13):
            for shape in self.SHAPES:
                for _ in range(3 if n <= 7 else 1):
                    keys = _index_keys(rng, shape, n)
                    top, dets = matrix_module._permanent_table(keys)
                    assert (top, dets) == _reference_permanent_table(keys), (shape, keys)
                    assert matrix_module._det_column(keys) == _reference_det_column(keys), keys
                    if dets[-1] is None:
                        continue
                    # A track's product is ghost exactly when one of its entries is.
                    tracks = matrix_module.DominantTracks(keys, dets, tangible(0))
                    steps, ways = _reference_steps(keys, dets)
                    assert (tracks._steps, tracks._ways) == (steps, ways), (shape, keys)
                    assert len(tracks) == ways[(1 << n) - 1]
                    if n <= 7:
                        expected = list(_reference_listing(steps, (1 << n) - 1))
                        read = [(t.perm, int(t.product.is_ghost)) for t in tracks]
                        assert read == expected, (shape, keys)
                        indexed = [tracks[i] for i in range(len(tracks))]
                        assert [(t.perm, int(t.product.is_ghost)) for t in indexed] == expected
                        listed += len(expected)
        assert listed > 1000

    def test_cached_index_stays_bounded(self):
        rng = random.Random("column-index-bound")
        for n in (12, 16):
            keys = _index_keys(rng, "random", n)
            assert matrix_module._det_column(keys)[-1] == _reference_det_column(keys)[-1]
        assert len(matrix_module._CHUNKS) == 2
        assert all(len(chunk) <= 512 for chunk in matrix_module._CHUNKS)

    def test_index_at_the_dimension_ceiling(self, monkeypatch):
        # Past 18 columns the index joins a third chunk, one _JoinedMembers
        # inside another; the index alone is read, with no kernel run. A
        # fresh chunk list keeps the shared one at its two chunks.
        monkeypatch.setattr(matrix_module, "_CHUNKS", [])
        rng = random.Random("column-index-ceiling")
        for n in (9, 10, 18, 19, matrix_module.MAX_DIM_BOUND):
            members = matrix_module._members(n)
            for subset in [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(200))]:
                expected = tuple((j, 1 << j) for j in range(n) if subset >> j & 1)
                assert members[subset] == expected, (n, subset)
        assert isinstance(members._high, matrix_module._JoinedMembers)
        assert len(matrix_module._CHUNKS) == 3


# The golden fixture B4 and the bytes of its pickles, pinned above.
B4_TEXT = "1/2g 3/2 1/2 -inf\n1/2 1g 1 -1/3\n-2/3 2 3/2 -inf\n-1/3 2 1 2\n"
B4_PICKLE = (
    b"\x80\x04\x95\xf2\x01\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.matri"
    b"x\x94\x8c\x06Matrix\x94\x93\x94)\x81\x94}\x94\x8c\x04rows\x94((\x8c\x14"
    b"supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x06"
    b"\x8c\x04Kind\x94\x93\x94\x8c\x05ghost\x94\x85\x94R\x94\x8c\tfractions"
    b"\x94\x8c\x08Fraction\x94\x93\x94K\x01K\x02\x86\x94R\x94ebh\x08)\x81\x94"
    b"]\x94(h\x0c\x8c\x08tangible\x94\x85\x94R\x94h\x12K\x03K\x02\x86\x94R"
    b"\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\x01K\x02\x86\x94R\x94ebh\x08)\x81"
    b"\x94]\x94(h\x0c\x8c\x04zero\x94\x85\x94R\x94Nebt\x94(h\x08)\x81\x94]"
    b"\x94(h\x19h\x12K\x01K\x02\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x0fh\x12K"
    b"\x01K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\x01K\x01\x86"
    b"\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12J\xff\xff\xff\xffK\x03\x86\x94"
    b"R\x94ebt\x94(h\x08)\x81\x94]\x94(h\x19h\x12J\xfe\xff\xff\xffK\x03\x86"
    b"\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\x02K\x01\x86\x94R\x94ebh\x08"
    b")\x81\x94]\x94(h\x19h\x12K\x03K\x02\x86\x94R\x94ebh t\x94(h\x08)\x81"
    b"\x94]\x94(h\x19h\x12J\xff\xff\xff\xffK\x03\x86\x94R\x94ebh\x08)\x81\x94"
    b"]\x94(h\x19h\x12K\x02K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12"
    b"K\x01K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\x02K\x01\x86"
    b"\x94R\x94ebt\x94t\x94sb."
)
B4_CUBE_PICKLE = (
    b"\x80\x04\x95\xfb\x01\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.matri"
    b"x\x94\x8c\x06Matrix\x94\x93\x94)\x81\x94}\x94\x8c\x04rows\x94((\x8c\x14"
    b"supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x06"
    b"\x8c\x04Kind\x94\x93\x94\x8c\x05ghost\x94\x85\x94R\x94\x8c\tfractions"
    b"\x94\x8c\x08Fraction\x94\x93\x94K\x03K\x01\x86\x94R\x94ebh\x08)\x81\x94"
    b"]\x94(h\x0c\x8c\x08tangible\x94\x85\x94R\x94h\x12K\tK\x02\x86\x94R\x94e"
    b"bh\x08)\x81\x94]\x94(h\x19h\x12K\x04K\x01\x86\x94R\x94ebh\x08)\x81\x94]"
    b"\x94(h\x19h\x12K\x13K\x06\x86\x94R\x94ebt\x94(h\x08)\x81\x94]\x94(h\x19"
    b"h\x12K\x07K\x02\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\tK\x02"
    b"\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x0fh\x12K\x04K\x01\x86\x94R\x94ebh"
    b"\x08)\x81\x94]\x94(h\x19h\x12K\x0bK\x03\x86\x94R\x94ebt\x94(h\x08)\x81"
    b"\x94]\x94(h\x19h\x12K\x04K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x0fh"
    b"\x12K\x05K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x0fh\x12K\tK\x02\x86"
    b"\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\x0bK\x03\x86\x94R\x94ebt\x94"
    b"(h\x08)\x81\x94]\x94(h\x19h\x12K\tK\x02\x86\x94R\x94ebh\x08)\x81\x94]"
    b"\x94(h\x19h\x12K\x06K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x0fh\x12K"
    b"\x05K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x19h\x12K\x06K\x01\x86"
    b"\x94R\x94ebt\x94t\x94sb."
)
