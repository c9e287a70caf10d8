"""Scalar arithmetic: golden cases, algebraic laws, and text round-trips."""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from supertropical import (
    BoundExceededError, DomainError, Kind, Matrix, ONE, ParseError, Polynomial, Scalar, ZERO,
    ghost, parse_scalar, tangible,
)
from supertropical.scalar import MAX_LITERAL_DIGITS, _decode, _encode_keys, _key_pow, _key_sum, _key_surpasses
from conftest import scalars, tangibles


class TestConstruction:
    def test_fields(self):
        a = Scalar(Kind.GHOST, Fraction(1, 2))
        assert (a.kind, a.value) == (Kind.GHOST, Fraction(1, 2))
        assert Scalar(Kind.ZERO) == ZERO and ZERO.value is None
        assert Scalar(kind=Kind.TANGIBLE, value=Fraction(0)) == ONE
        # A scalar equals only a scalar, not the number of its magnitude.
        assert (Scalar(Kind.TANGIBLE, Fraction(0)) == 0) is False

    @pytest.mark.parametrize(
        "kind, value, message",
        [
            (Kind.ZERO, Fraction(1), "the zero element carries no magnitude"),
            (Kind.GHOST, 1, "ghost scalar needs an exact magnitude"),
            (Kind.TANGIBLE, None, "tangible scalar needs an exact magnitude"),
            (Kind.TANGIBLE, 0.5, "tangible scalar needs an exact magnitude"),
        ],
    )
    def test_refused(self, kind, value, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            Scalar(kind, value)


class TestAdd:
    def test_max_of_distinct(self):
        assert tangible(3) + tangible(5) == tangible(5)

    def test_equal_tangibles_go_ghost(self):
        assert tangible(2) + tangible(2) == ghost(2)

    def test_zero_is_neutral(self):
        assert ghost(1) + ZERO == ghost(1)
        assert ZERO + tangible(-7) == tangible(-7)

    def test_tie_with_ghost_is_ghost(self):
        assert tangible(4) + ghost(4) == ghost(4)
        assert ghost(4) + tangible(4) == ghost(4)


class TestMul:
    def test_values_add(self):
        assert tangible(1) * tangible(2) == tangible(3)

    def test_ghost_absorbs(self):
        assert ghost(2) * tangible(3) == ghost(5)

    def test_zero_absorbing(self):
        assert ZERO * ghost(7) == ZERO


class TestPow:
    def test_tangible(self):
        assert tangible(2) ** 2 == tangible(4)

    def test_kind_preserved(self):
        assert ghost(3) ** 2 == ghost(6)

    def test_power_zero_is_unit(self):
        assert tangible(5) ** 0 == ONE
        assert ZERO**0 == ONE

    def test_zero_powers(self):
        assert ZERO**3 == ZERO

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            tangible(1) ** -1


class TestRoot:
    def test_square_root(self):
        assert tangible(4).root(2) == tangible(2)

    def test_fractional(self):
        assert tangible(1).root(3) == tangible(Fraction(1, 3))

    def test_ghost_root_inverts_pow(self):
        r = ghost(6).root(2)
        assert r**2 == ghost(6)
        assert r == ghost(3)

    def test_zero_fixed(self):
        assert ZERO.root(5) == ZERO

    def test_index_zero_rejected(self):
        with pytest.raises(DomainError):
            tangible(1).root(0)


class TestGhostMap:
    def test_tangible_projects(self):
        assert tangible(5).as_ghost() == ghost(5)

    def test_ghost_fixed(self):
        assert ghost(5).as_ghost() == ghost(5)

    def test_zero_fixed(self):
        assert ZERO.as_ghost() == ZERO


class TestSurpasses:
    def test_ghost_over_smaller_tangible(self):
        assert ghost(5).surpasses(tangible(4))

    def test_reflexive_case(self):
        assert tangible(3).surpasses(tangible(3))

    def test_distinct_tangibles_never(self):
        assert not tangible(3).surpasses(tangible(4))

    def test_small_ghost_fails(self):
        assert not ghost(2).surpasses(tangible(4))

    def test_any_ghost_over_zero(self):
        assert ghost(-99).surpasses(ZERO)
        assert not tangible(-99).surpasses(ZERO)


class TestReciprocal:
    def test_negates_magnitude(self):
        assert tangible(3).reciprocal() == tangible(-3)
        assert tangible(3) * tangible(3).reciprocal() == ONE

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            ZERO.reciprocal()


# --- algebraic laws -------------------------------------------------------


@given(scalars, scalars)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(scalars, scalars, scalars)
def test_add_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(scalars, scalars)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(scalars, scalars, scalars)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(scalars, scalars, scalars)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_identities(a):
    assert a + ZERO == a
    assert a * ONE == a
    assert a * ZERO == ZERO


@given(scalars)
def test_add_idempotent_up_to_ghost(a):
    assert a + a == a.as_ghost()


@given(scalars, scalars, st.integers(min_value=1, max_value=5))
def test_frobenius_exact(a, b, n):
    assert (a + b) ** n == a**n + b**n


@given(tangibles, tangibles, st.integers(min_value=1, max_value=5))
def test_tangible_root_unique(a, y, n):
    x = a.root(n)
    assert x.is_tangible
    assert x**n == a
    if y != x:
        assert y**n != a


@given(scalars)
def test_surpass_reflexive(a):
    assert a.surpasses(a)


@given(scalars, scalars)
def test_surpass_antisymmetric(a, b):
    if a.surpasses(b) and b.surpasses(a):
        assert a == b


@given(scalars, scalars, scalars)
def test_surpass_transitive(a, b, c):
    if a.surpasses(b) and b.surpasses(c):
        assert a.surpasses(c)


@given(scalars, scalars, scalars)
def test_surpass_multiplicative(a, b, c):
    if a.surpasses(b):
        assert (a * c).surpasses(b * c)


@given(scalars, scalars)
def test_ghost_map_multiplicative(a, b):
    assert (a * b).as_ghost() == a.as_ghost() * b.as_ghost()


@given(scalars)
def test_ghost_map_surpasses_argument(a):
    assert a.as_ghost().surpasses(a)


# --- key arithmetic ---------------------------------------------------------


def test_key_arithmetic_matches_scalars():
    # Exhaustive over a grid where ties are common: power, sum and
    # ghost-surpass on keys agree with the `Scalar` operations.
    grid = [ZERO] + [f(Fraction(v)) for v in ("-1", "-1/2", "0", "1/3", "1")
                     for f in (tangible, ghost)]
    scale = 6
    keys = dict(zip(grid, _encode_keys(grid, scale)))
    assert _decode(_key_sum([]), scale) == ZERO
    for a in grid:
        for m in range(4):
            assert _decode(_key_pow(keys[a], m), scale) == a**m, (a, m)
        for b in grid:
            assert _key_surpasses(keys[a], keys[b]) is a.surpasses(b), (a, b)
            for c in grid:
                assert _decode(_key_sum([keys[a], keys[b], keys[c]]), scale) == a + b + c


def _reference_keys(values):
    """The scale and keys of ``values`` as the key definition states them:
    the LCM of the finite values' denominators, then
    ``(numerator * (scale // denominator)) << 1 | ghost``, ``None`` for -inf."""
    finite = [v.value for v in values if v.kind is not Kind.ZERO]
    scale = math.lcm(*(m.denominator for m in finite))
    return scale, [
        None if v.kind is Kind.ZERO
        else (v.value.numerator * (scale // v.value.denominator)) << 1 | (v.kind is Kind.GHOST)
        for v in values
    ]


def _encoder_scalar(rng):
    """-inf at 15%, else a tangible or (30%) ghost value whose denominator
    is drawn from 1..97 and whose numerator is small, or at 20% has 990 to
    `MAX_LITERAL_DIGITS` digits, either sign."""
    if rng.random() < 0.15:
        return ZERO
    if rng.random() < 0.2:
        numerator = rng.randrange(10**(MAX_LITERAL_DIGITS - 10), 10**MAX_LITERAL_DIGITS)
    else:
        numerator = rng.randint(0, 50)
    value = Fraction(rng.choice((-1, 1)) * numerator, rng.randint(1, 97))
    return (ghost if rng.random() < 0.3 else tangible)(value)


def test_matrix_and_polynomial_keys_match_the_definition():
    rng = random.Random("encode")
    for n in range(1, 9):
        for _ in range(6):
            rows = [[_encoder_scalar(rng) for _ in range(n)] for _ in range(n)]
            scale, flat = _reference_keys([e for row in rows for e in row])
            expected = tuple(tuple(flat[i:i + n]) for i in range(0, n * n, n))
            assert Matrix(rows)._keys == (scale, expected), rows
            # A nonzero top coefficient, so the polynomial keeps every one.
            coeffs = [e for row in rows for e in row]
            while coeffs[-1] == ZERO:
                coeffs[-1] = _encoder_scalar(rng)
            scale, keys = _reference_keys(coeffs)
            assert Polynomial(coeffs)._keys == (scale, tuple(keys)), coeffs
    # All -inf: scale 1 and no finite key.
    assert Matrix([[ZERO] * 2] * 2)._keys == (1, ((None, None), (None, None)))
    assert Polynomial([ZERO])._keys == (1, (None,))
    # A 2,001-digit denominator beside -inf and ones that fit is refused.
    values = [tangible(Fraction(1, 3)), ZERO, ghost(Fraction(1, 10**2000))]
    for what, build in (("matrix", lambda: Matrix([values] * 3)._keys),
                        ("polynomial", lambda: Polynomial(values)._keys)):
        with pytest.raises(BoundExceededError,
                           match=f"^digits of the {what} scale: size 2001 exceeds bound 2000$"):
            build()


# --- pickles ----------------------------------------------------------------

# The bytes (protocol 4) that these scalars pickled to while `Scalar` was a
# slotted dataclass.
SCALAR_PICKLES = (
    (ZERO,
     b"\x80\x04\x95B\x00\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.scalar\x94"
     b"\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\x04Kind\x94\x93\x94"
     b"\x8c\x04zero\x94\x85\x94R\x94Neb."),
    (ONE,
     b"\x80\x04\x95f\x00\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.scalar\x94"
     b"\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\x04Kind\x94\x93\x94"
     b"\x8c\x08tangible\x94\x85\x94R\x94\x8c\tfractions\x94\x8c\x08Fraction\x94"
     b"\x93\x94K\x00K\x01\x86\x94R\x94eb."),
    (tangible(Fraction(-1, 2)),
     b"\x80\x04\x95i\x00\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.scalar\x94"
     b"\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\x04Kind\x94\x93\x94"
     b"\x8c\x08tangible\x94\x85\x94R\x94\x8c\tfractions\x94\x8c\x08Fraction\x94"
     b"\x93\x94J\xff\xff\xff\xffK\x02\x86\x94R\x94eb."),
    (ghost(3),
     b"\x80\x04\x95c\x00\x00\x00\x00\x00\x00\x00\x8c\x14supertropical.scalar\x94"
     b"\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h\x00\x8c\x04Kind\x94\x93\x94"
     b"\x8c\x05ghost\x94\x85\x94R\x94\x8c\tfractions\x94\x8c\x08Fraction\x94"
     b"\x93\x94K\x03K\x01\x86\x94R\x94eb."),
)


@pytest.mark.parametrize("a, data", SCALAR_PICKLES, ids=["zero", "one", "-1/2", "3g"])
def test_pickles_load_and_dump_as_before(a, data):
    copy = pickle.loads(data)
    assert copy == a and hash(copy) == hash(a) and repr(copy) == repr(a)
    assert pickle.dumps(a, protocol=4) == data
    assert pickle.dumps(copy, protocol=4) == data


# --- text form ------------------------------------------------------------


@given(scalars)
def test_round_trip(a):
    assert parse_scalar(str(a)) == a


@pytest.mark.parametrize(
    "text,value",
    [
        ("-inf", ZERO),
        ("5", tangible(5)),
        ("-1/2g", ghost(Fraction(-1, 2))),
        ("0g", ghost(0)),
        ("  7/3  ", tangible(Fraction(7, 3))),
    ],
)
def test_parse_examples(text, value):
    assert parse_scalar(text) == value


PARSE_ERRORS = {
    "": "not a scalar: ''",
    "inf": "not a scalar: 'inf'",
    "1/0": "zero denominator in '1/0'",
    "1/00": "zero denominator in '1/00'",
    "3/000g": "zero denominator in '3/000g'",
    "x": "not a scalar: 'x'",
    "5 g": "not a scalar: '5 g'",
    "--5": "not a scalar: '--5'",
    "1.5": "not a scalar: '1.5'",
    "g": "not a scalar: 'g'",
    "5gg": "not a scalar: '5gg'",
    # Digits are the ASCII 0-9 only, not any Unicode decimal digit.
    "\u0663/\uff14g": "not a scalar: '\u0663/\uff14g'",
    "\uff11\uff12": "not a scalar: '\uff11\uff12'",
    # Text of 100 characters is quoted in full; longer text by its first
    # 40 and last 20 characters, with its length.
    "y" * 100: f"not a scalar: '{'y' * 100}'",
    "y" * 101: f"not a scalar: '{'y' * 40}' ... '{'y' * 20}' (101 characters)",
    " 1/0" + " " * 200: f"zero denominator in ' 1/0{' ' * 36}' ... '{' ' * 20}' (204 characters)",
}


@pytest.mark.parametrize("bad", list(PARSE_ERRORS), ids=lambda t: t if len(t) < 40 else f"{t[:8]}...{len(t)}")
def test_parse_rejects(bad):
    with pytest.raises(ParseError) as exc:
        parse_scalar(bad)
    assert str(exc.value) == PARSE_ERRORS[bad]
