"""Polynomials: evaluation, essential reduction, root classification."""

from __future__ import annotations

import ast
import json
import pickle
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from supertropical import (
    BoundExceededError,
    DomainError,
    ONE,
    ParseError,
    Polynomial,
    Scalar,
    ZERO,
    breakpoints,
    char_poly,
    coeff_strings,
    essential,
    ghost,
    is_root,
    parse_matrix,
    parse_polynomial,
    parse_scalar,
    polynomial_from_strings,
    primary_root,
    roots,
    tangible,
)
from supertropical import polynomial
from supertropical.scalar import DIGITS, RATIONAL, _key_scale, check_digits, literal_ratio
from supertropical.spectral import CHECKS, Trial
from conftest import (
    attained_degrees,
    brute_breakpoints,
    brute_eval,
    literal_sum_polynomial,
    polynomials,
    sample_matrix,
    sample_polynomial,
    scalars,
)

X2_2X_2 = parse_polynomial("x^2 + 2x + 2")
X2_4X_5G = parse_polynomial("x^2 + 4x + 5g")

# Rejected polynomial texts and the exact error each one reports.
PARSE_ERRORS = {
    "": "empty polynomial",
    "x +": "not a polynomial term: ''",
    "y^2": "not a polynomial term: 'y^2'",
    "x^-1": "not a polynomial term: 'x^-1'",
    "3 4x": "not a polynomial term: '3 4x'",
    "x^2 ++ 1": "not a polynomial term: ''",
    "1/0x": "zero denominator in '1/0'",
    "2/00": "zero denominator in '2/00'",
    "1/0gx": "zero denominator in '1/0g'",
    # The first faulty term in text order is the one reported, and the
    # degree bound only once every term has parsed.
    "1/0 + y": "zero denominator in '1/0'",
    "y + 1/0": "not a polynomial term: 'y'",
    "x^100001 + y": "not a polynomial term: 'y'",
    "+x": "not a polynomial term: ''",
    "  +  ": "not a polynomial term: ''",
    "1 + " + "9" * 1001 + "x": "number of digits: size 1001 exceeds bound 1000",
    # Digits are the ASCII 0-9 only, not any Unicode decimal digit.
    "\u0663x + \uff11\uff12": "not a polynomial term: '\u0663x'",
    "x + \uff11\uff12": "not a polynomial term: '\uff11\uff12'",
    "x^\u0662": "not a polynomial term: 'x^\u0662'",
}


class TestEvaluate:
    def test_tie_at_zero(self):
        assert X2_2X_2.evaluate(tangible(0)) == ghost(2)

    def test_single_dominant(self):
        x = tangible(3)
        assert X2_2X_2.evaluate(x) == tangible(6)
        assert X2_2X_2.evaluate(x) == brute_eval(X2_2X_2, x)

    def test_ghost_constant_dominates(self):
        assert X2_4X_5G.evaluate(tangible(0)) == ghost(5)

    def test_at_minus_infinity(self):
        assert X2_2X_2.evaluate(ZERO) == tangible(2)
        assert parse_polynomial("x^2 + 3x").evaluate(ZERO) == ZERO

    @given(polynomials(), scalars)
    def test_matches_brute_oracle(self, f, x):
        assert f.evaluate(x) == brute_eval(f, x)


class TestEssential:
    def test_all_essential(self):
        f = X2_2X_2
        assert essential(f) == f
        assert attained_degrees(f) == {0, 1, 2}

    def test_middle_dropped(self):
        f = parse_polynomial("x^2 + 0x + 2")
        assert essential(f) == parse_polynomial("x^2 + 2")
        assert attained_degrees(f) == {0, 2}

    def test_ghost_leader_kept(self):
        assert essential(X2_4X_5G) == X2_4X_5G

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            essential(Polynomial((ZERO,)))

    @given(polynomials())
    def test_support_matches_attainment_oracle(self, f):
        kept = {d for d, c in enumerate(essential(f).coeffs) if not c.is_zero}
        assert kept == attained_degrees(f)

    @given(polynomials())
    def test_idempotent(self, f):
        assert essential(essential(f)) == essential(f)

    @given(polynomials(), scalars)
    def test_function_preserved(self, f, x):
        assert f.evaluate(x) == essential(f).evaluate(x)


class TestRoots:
    def test_two_corner_roots(self):
        report = roots(X2_2X_2)
        assert report.corner_roots == ((tangible(0), 1), (tangible(2), 1))
        assert report.ghost_intervals == ()
        assert not report.is_identically_root

    def test_ghost_interval_below_one(self):
        report = roots(X2_4X_5G)
        assert report.corner_roots == ((tangible(4), 1),)
        (iv,) = report.ghost_intervals
        assert iv.lo is None and iv.hi == 1 and iv.hi_closed
        assert not report.is_identically_root

    def test_single_corner_root_with_multiplicity(self):
        report = roots(parse_polynomial("x^3 + 6"))
        assert report.corner_roots == ((tangible(2), 3),)
        assert is_root(parse_polynomial("x^3 + 6"), tangible(2))
        # Multiplicity matches the factor expansion (x + 2)^3.
        cube = parse_polynomial("x + 2") ** 3
        assert roots(cube).corner_roots == ((tangible(2), 3),)

    def test_zero_polynomial(self):
        report = roots(Polynomial((ZERO,)))
        assert report.is_identically_root
        assert report.corner_roots == ()

    def test_all_ghost_polynomial(self):
        report = roots(parse_polynomial("1gx^2 + 5g"))
        assert report.is_identically_root
        (iv,) = report.ghost_intervals
        assert iv.lo is None and iv.hi is None

    def test_collinear_ghost_point_interval(self):
        # (x+3)^2 has a ghost cross term on the envelope edge: the corner
        # root and a single-point ghost interval coincide.
        f = parse_polynomial("x + 3") ** 2
        assert f == parse_polynomial("x^2 + 3gx + 6")
        report = roots(f)
        assert report.corner_roots == ((tangible(3), 2),)
        (iv,) = report.ghost_intervals
        assert (iv.lo, iv.hi) == (3, 3)

    @pytest.mark.parametrize(
        "text, corners, intervals",
        [
            ("x^3 + 1gx^2 + 2gx + 3", [(1, 3)], ["[1, 1]"]),
            ("x^3 + 1gx^2 + 2x + 3g", [], ["(-inf, 1]"]),
            ("x^4 + 1gx^3 + 2x^2 + 2gx + 2", [(0, 2), (1, 2)], ["[0, 0]", "[1, 1]"]),
        ],
    )
    def test_on_edge_ghosts(self, text, corners, intervals):
        report = roots(parse_polynomial(text))
        assert report.corner_roots == tuple((tangible(x), m) for x, m in corners)
        assert [str(iv) for iv in report.ghost_intervals] == intervals
        assert not report.is_identically_root

    @given(polynomials())
    # 1x ties with both ghost ends at their cut, so every evaluation is
    # ghost though one hull point is tangible.
    @example(parse_polynomial("2gx^2 + 1x + 0g"))
    def test_identically_a_root_exactly_when_every_probe_is(self, f):
        """-inf, a point below the first breakpoint and one above the last,
        the midpoint of each pair of consecutive ones (any point when there
        are none), and the ghost copies of these, cover every piece of the
        envelope."""
        cuts = breakpoints(f)
        points = [cuts[0] - 1, cuts[-1] + 1] if cuts else [Fraction(0)]
        points += [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
        probes = [ZERO, *map(tangible, points), *map(ghost, points)]
        assert roots(f).is_identically_root == all(is_root(f, x) for x in probes)

    @given(polynomials())
    def test_breakpoints_and_corners_match_oracle(self, f):
        cuts, corners = brute_breakpoints(f)
        assert breakpoints(f) == cuts
        assert roots(f).corner_roots == tuple((tangible(x), m) for x, m in corners)

    @given(polynomials())
    def test_corner_roots_are_roots(self, f):
        report = roots(f)
        for r, mult in report.corner_roots:
            assert mult >= 1
            assert is_root(f, r)

    @given(polynomials())
    def test_multiplicities_bounded_by_degree(self, f):
        report = roots(f)
        assert sum(m for _, m in report.corner_roots) <= f.degree

    @given(polynomials())
    def test_ghost_interval_points_are_roots(self, f):
        report = roots(f)
        for iv in report.ghost_intervals:
            for x in _probe_points(iv):
                assert is_root(f, tangible(x))

    @given(polynomials())
    def test_points_off_roots_are_not_roots(self, f):
        report = roots(f)
        corner_values = {r.value for r, _ in report.corner_roots}
        for x in _between_breakpoints(f):
            if x in corner_values:
                continue
            if any(iv.contains(x) for iv in report.ghost_intervals):
                continue
            assert not is_root(f, tangible(x))


def _probe_points(iv):
    if iv.lo is not None and iv.hi is not None:
        yield iv.lo
        yield (iv.lo + iv.hi) / 2
        yield iv.hi
    elif iv.lo is not None:
        yield iv.lo
        yield iv.lo + 7
    elif iv.hi is not None:
        yield iv.hi
        yield iv.hi - 7
    else:
        yield Fraction(0)


def _between_breakpoints(f):
    cuts = breakpoints(f)
    if not cuts:
        return [Fraction(0), Fraction(5)]
    probes = [cuts[0] - 1, cuts[-1] + 1]
    probes.extend((a + b) / 2 for a, b in zip(cuts, cuts[1:]))
    return probes


# Small composites and every prime 5..97, so the support's LCM is often huge.
MIXED_DENOMINATORS = (2, 3, 4, 6, 9, 12) + tuple(
    p for p in range(5, 98) if all(p % q for q in range(2, p))
)


def _mixed_value(rng):
    return Fraction(rng.randint(-400, 400), rng.choice(MIXED_DENOMINATORS))


def _mixed_polynomial(rng, palette):
    """Degree up to 40 with up to 8 support points; with a palette the
    magnitudes repeat, so ties and on-edge points are common."""
    degree = rng.randint(1, 40)
    coeffs = [ZERO] * (degree + 1)
    for d in [*rng.sample(range(degree), rng.randint(0, min(7, degree))), degree]:
        value = rng.choice(palette) if palette else _mixed_value(rng)
        coeffs[d] = ghost(value) if rng.random() < 0.2 else tangible(value)
    return Polynomial(tuple(coeffs))


class TestScaledEnvelope:
    def test_mixed_denominators_match_oracles(self):
        rng = random.Random("mixed-denominators")
        for index in range(2000):
            palette = [_mixed_value(rng) for _ in range(3)] if index % 2 else None
            f = _mixed_polynomial(rng, palette)
            cuts, corners = brute_breakpoints(f)
            assert breakpoints(f) == cuts, f
            assert roots(f).corner_roots == tuple((tangible(x), m) for x, m in corners), f
            kept = {d for d, c in enumerate(essential(f).coeffs) if not c.is_zero}
            assert kept == attained_degrees(f), f

    def test_envelope_computed_once_per_polynomial(self, monkeypatch):
        calls = []
        envelope = polynomial._envelope
        monkeypatch.setattr(polynomial, "_envelope", lambda f: calls.append(f) or envelope(f))
        f = parse_polynomial("x^3 + 1gx^2 + 2x + 3g")
        for _ in range(2):
            roots(f)
            essential(f)
            breakpoints(f)
        assert calls == [f]
        # The corner-root law reads the envelopes that roots and breakpoints read.
        calls.clear()
        a = parse_matrix("3 0\n0 1/2")
        t = Trial(a, a, 3)
        for _ in range(2):
            CHECKS["cor38"](t)
            for g in (t.alpha, t.beta):
                roots(g)
                breakpoints(g)
        assert len(calls) == 2 and calls[0] is t.alpha and calls[1] is t.beta

    # Envelope cuts are unreduced int pairs, so cuts of one magnitude can be
    # different tuples: here (1, 1) and (2, 2), or (2, 1) and (4, 2) at scale 2.
    @pytest.mark.parametrize("text, cuts, corner_roots, ghost_intervals", [
        ("x^3 + 2gx + 3", ((1, 1), (2, 2)), ((tangible(1), 3),), ("[1, 1]",)),
        ("x^3 + 2x + 3g", ((1, 1), (2, 2)), (), ("(-inf, 1]",)),
        ("1/2x^3 + 5/2gx + 7/2", ((2, 1), (4, 2)), ((tangible(1), 3),), ("[1, 1]",)),
        ("x^3 + 2x + 3", ((1, 1), (2, 2)), ((tangible(1), 3),), ()),
    ])
    def test_value_equal_cuts(self, text, cuts, corner_roots, ghost_intervals):
        f = parse_polynomial(text)
        assert f._hull == ((0, 1, 3), cuts)
        report = roots(f)
        assert report.corner_roots == corner_roots
        assert tuple(str(iv) for iv in report.ghost_intervals) == ghost_intervals
        assert breakpoints(f) == [1]

    def test_only_the_edge_walk_and_roots_compare_cuts(self):
        """`_edges` alone groups equal cuts into envelope edges, for
        `_corners` and `breakpoints`; `roots` compares cuts only to merge
        touching ghost spans. No other function calls `_same_cut`."""
        callers = set()
        for path in Path(polynomial.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    callers |= {fn.name for node in ast.walk(fn) if isinstance(node, ast.Call)
                                and "_same_cut" in (getattr(node.func, "id", None),
                                                    getattr(node.func, "attr", None))}
        assert callers == {"_edges", "roots"}


def _plain_chain(keys):
    """The monotone chain over every point of the support: `_envelope` as
    it was before it walked only `_hull_candidates`, kept as its reference."""
    hull, cuts = [], []
    for d, k in enumerate(keys):
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
    return tuple(d for d, _ in hull), tuple(cuts)


def _lattice_keys(rng, degree):
    """Keys of degree ``degree`` on the magnitudes -3..3, so flat tops and
    on-edge points are common: dense or sparse supports, a single point,
    or every point at one magnitude; 30% of them ghost."""
    shape = rng.choice(("dense", "sparse", "single", "equal"))
    density = {"dense": 1.0, "sparse": rng.uniform(0.1, 0.6), "single": 0.0, "equal": 1.0}[shape]
    level = rng.randint(-3, 3)
    keys = []
    for d in range(degree + 1):
        if d < degree and rng.random() >= density:
            keys.append(None)
            continue
        magnitude = level if shape == "equal" else rng.randint(-3, 3)
        keys.append(magnitude << 1 | (rng.random() < 0.3))
    return keys


class TestHullCandidates:
    """`_envelope` walks only the points that can lie on the hull from
    degree `_RECORDS_ABOVE` on; its output is the plain chain's."""

    def test_matches_the_plain_chain(self):
        rng = random.Random("hull-candidates")
        for index in range(6100):
            keys = _lattice_keys(rng, index % 61)
            f = Polynomial._from_keys(1, keys)
            assert polynomial._envelope(f) == _plain_chain(keys), keys

    @pytest.mark.parametrize("keys, kept", [
        # A flat top of three points, each on the hull.
        ([0, 2, 4, 4, 5, 2, 0, -2, -4, -6, -8], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
        # Only the records on each side of the peak at degree 5 are walked;
        # a tie with the record so far is one (degrees 2 and 8).
        ([6, 2, 6, 0, 2, 10, 4, 8, 2, 0, 3, 1], [0, 2, 5, 7, 8, 10, 11]),
        # Every point at one magnitude.
        ([3, 2, 3, 2, 2, 3, 2, 3, 2, 3, 3], list(range(11))),
    ])
    def test_records(self, keys, kept):
        assert [d for d, _ in polynomial._hull_candidates(keys)] == kept

    def test_gate(self, monkeypatch):
        """Polynomials of degree up to 9 (the characteristic polynomials of
        every campaign and every 8x8 matrix) walk every point; from degree
        10 on they walk the candidates."""
        calls = []
        candidates = polynomial._hull_candidates
        monkeypatch.setattr(polynomial, "_hull_candidates",
                            lambda keys: calls.append(len(keys)) or candidates(keys))
        for size in range(1, 14):
            polynomial._envelope(Polynomial._from_keys(1, [0] * size))
        assert calls == [11, 12, 13]


def _coeff_text(rng: random.Random, degree: int) -> str:
    """A coefficient on a tight lattice, written reduced or not (``2/4``,
    ``4/2``, ``0/7``, ``-0``), a quarter of them ghost; or ``-inf``, or
    ``""`` for the omitted unit (never at degree 0, where it is ``0``)."""
    r = rng.random()
    if r < 0.1:
        return "-inf"
    if r < 0.2:
        return "" if degree else "0"
    q = rng.choice((1, 1, 2, 3, 4, 6, 7))
    p = rng.randint(-2 * q, 2 * q)
    num = "-0" if p == 0 and rng.random() < 0.5 else str(p)
    text = num if q == 1 and rng.random() < 0.5 else f"{num}/{q}"
    return text + "g" if rng.random() < 0.25 else text


def _term_text(coeff: str, degree: int, rng: random.Random) -> str:
    if degree == 0:
        return coeff
    space = " " if coeff and rng.random() < 0.3 else ""
    return f"{coeff}{space}x" if degree == 1 else f"{coeff}{space}x^{degree}"


def _key_parse_cases():
    """1,500 seeded polynomial texts, each with its ``(degree, coefficient
    text)`` terms."""
    rng = random.Random("key-parse")
    for _ in range(1500):
        top = rng.randint(0, 12)
        # Degrees from a narrow range, so repeats (and ties) are common.
        terms = [(d, _coeff_text(rng, d)) for d in
                 [top, *(rng.randint(0, top) for _ in range(rng.randint(0, 2 * top + 2)))]]
        rng.shuffle(terms)
        text = (" + " if rng.random() < 0.5 else "+").join(
            _term_text(c, d, rng) for d, c in terms
        )
        yield text, terms


def _roots_json(f: Polynomial) -> str:
    return json.dumps(roots(f).to_json_dict(), sort_keys=True)


def _scalar_form(f: Polynomial) -> Polynomial:
    """``f`` rebuilt from its printed coefficients, one `Scalar` each."""
    return Polynomial(tuple(parse_scalar(str(c)) for c in f.coeffs))


class TestKeyForm:
    """The parser, the JSON route, `essential` and the characteristic
    polynomial build polynomials from keys; ``coeffs`` are decoded on their
    first read, and nothing else tells them from one built from scalars."""

    def test_key_parse_matches_literal_scalars(self):
        for text, terms in _key_parse_cases():
            f, ref = parse_polynomial(text), literal_sum_polynomial(terms)
            # The key paths first, before anything has read f.coeffs.
            assert (str(f), f.degree, f.is_zero) == (str(ref), ref.degree, ref.is_zero), text
            assert _roots_json(f) == _roots_json(ref), text
            assert breakpoints(f) == breakpoints(ref), text
            if not ref.is_zero:
                assert str(essential(f)) == str(essential(ref)), text
            assert "coeffs" not in vars(f)
            assert f.coeffs == ref.coeffs, text
            assert f == ref and ref == f and hash(f) == hash(ref), text
            assert repr(f) == repr(ref)

    def test_charpoly_keys_match_scalar_form(self):
        rng = random.Random("charpoly-keys")
        for _ in range(150):
            f = char_poly(sample_matrix(rng, rng.randint(1, 5)))
            report, ess = _roots_json(f), str(essential(f))
            g = Polynomial(f.coeffs)
            assert (report, ess) == (_roots_json(g), str(essential(g)))

    def test_decodes_only_what_is_read(self, monkeypatch):
        """roots, essential and printing the essential part decode only the
        essential terms; the full coefficient tuple is never built."""
        rng = random.Random("lazy-decode")
        text = " + ".join(
            f"{Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))}x^{d}" for d in range(240, 0, -1)
        ) + " + 1g"
        decoded = []
        decode = polynomial._decode
        monkeypatch.setattr(polynomial, "_decode", lambda k, scale: decoded.append(k) or decode(k, scale))
        f = parse_polynomial(text)
        report = roots(f)
        ess = essential(f)
        printed = str(ess)
        hull = f._hull[0]
        assert f.degree == 240 and len(hull) < 20
        assert sorted(decoded) == sorted(f._keys[1][d] for d in hull)
        assert "coeffs" not in vars(f) and "coeffs" not in vars(ess)
        monkeypatch.undo()
        g = Polynomial(f.coeffs)
        assert (report, printed) == (roots(g), str(essential(g)))

    def test_pickle_holds_only_coeffs(self):
        text = "1/2gx^5 + 3x^4 + 0/7x^3 + 2/4x^2 + -inf x + x^4 + -0g"
        f = parse_polynomial(text)
        fresh = pickle.dumps(f)
        roots(f), essential(f), breakpoints(f)
        assert pickle.dumps(f) == fresh
        g = parse_polynomial(text)
        roots(g), essential(g)
        assert pickle.dumps(g) == fresh
        assert pickle.dumps(_scalar_form(f)) == fresh
        ess = essential(f)
        assert pickle.dumps(ess) == pickle.dumps(_scalar_form(ess))
        copy = pickle.loads(fresh)
        assert copy == f and hash(copy) == hash(f) and repr(copy) == repr(f)
        assert roots(copy) == roots(f) and essential(copy) == ess
        assert list(f.__getstate__()) == ["coeffs"]

    def test_scale_cap(self):
        # Each literal is within its digit cap. Two 1,000-digit denominators
        # make a scale of 2,000 digits, which passes. With a third, 7, the
        # running LCM reaches 2,001 digits and is refused there, whatever
        # follows it.
        q1, q2, q3 = 10**1000 - 1, 10**1000 - 3, 10**1000 - 7
        within = parse_polynomial(f"1/{q1}x + 1/{q2}")
        assert within._keys[0] == q1 * q2
        assert roots(within) == roots(Polynomial(within.coeffs))
        message = r"^digits of the polynomial scale: size 2001 exceeds bound 2000$"
        with pytest.raises(BoundExceededError, match=message):
            parse_polynomial(f"1/{q1}x^3 + 1/{q2}x^2 + 1/7x + 1/{q3}")
        # From scalars, the keys are encoded when the polynomial is built: by
        # ascending degree, q3, 7 and q2 reach 2,001 digits.
        with pytest.raises(BoundExceededError, match=message):
            Polynomial(tuple(tangible(Fraction(1, q)) for q in (q3, 7, q2, q1)))

    def test_json_route_reads_terms_like_the_parser(self, monkeypatch):
        parsed = [parse_polynomial(text) for text, _ in _key_parse_cases()]
        strings = [coeff_strings(f) for f in parsed]
        with monkeypatch.context() as patch:
            patch.setattr(Scalar, "__init__", _no_scalar)
            built = [polynomial_from_strings(s) for s in strings]
        for f, g in zip(parsed, built):
            # The strings are written reduced, so g's scale is that of f's
            # coefficients, not of f's denominators as written.
            assert g._keys == Polynomial(f.coeffs)._keys, f
            assert (str(g), _roots_json(g)) == (str(f), _roots_json(f))
            assert g == f

    def test_pickles_load_and_dump_as_before(self):
        """The bytes a parsed polynomial and one built from scalars pickled
        to (protocol 4) when `Polynomial` was a dataclass."""
        parsed = parse_polynomial(PICKLE_TEXT)
        built = Polynomial((ghost(Fraction(-3, 2)), ZERO, tangible(Fraction(5, 6)), ZERO))
        for f, data in ((parsed, PARSED_PICKLE), (built, SCALAR_PICKLE)):
            copy = pickle.loads(data)
            assert copy == f and str(copy) == str(f) and roots(copy) == roots(f)
            assert pickle.dumps(f, protocol=4) == data
            assert pickle.dumps(copy, protocol=4) == data


def _no_scalar(self, *args, **kwargs):
    raise AssertionError("a Scalar was built")


PICKLE_TEXT = "1/2gx^5 + 3x^4 + 0/7x^3 + 2/4x^2 + -inf x + x^4 + -0g"
PARSED_PICKLE = (
    b"\x80\x04\x95\x1f\x01\x00\x00\x00\x00\x00\x00\x8c\x18supertropical.polyno"
    b"mial\x94\x8c\nPolynomial\x94\x93\x94)\x81\x94}\x94\x8c\x06coeffs\x94("
    b"\x8c\x14supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94"
    b"(h\x06\x8c\x04Kind\x94\x93\x94\x8c\x05ghost\x94\x85\x94R\x94\x8c\tfracti"
    b"ons\x94\x8c\x08Fraction\x94\x93\x94K\x00K\x01\x86\x94R\x94ebh\x08)\x81"
    b"\x94]\x94(h\x0c\x8c\x04zero\x94\x85\x94R\x94Nebh\x08)\x81\x94]\x94(h\x0c"
    b"\x8c\x08tangible\x94\x85\x94R\x94h\x12K\x01K\x02\x86\x94R\x94ebh\x08)"
    b"\x81\x94]\x94(h\x1eh\x12K\x00K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h"
    b"\x1eh\x12K\x03K\x01\x86\x94R\x94ebh\x08)\x81\x94]\x94(h\x0fh\x12K\x01K"
    b"\x02\x86\x94R\x94ebt\x94sb."
)
SCALAR_PICKLE = (
    b"\x80\x04\x95\xdf\x00\x00\x00\x00\x00\x00\x00\x8c\x18supertropical.polyno"
    b"mial\x94\x8c\nPolynomial\x94\x93\x94)\x81\x94}\x94\x8c\x06coeffs\x94\x8c"
    b"\x14supertropical.scalar\x94\x8c\x06Scalar\x94\x93\x94)\x81\x94]\x94(h"
    b"\x06\x8c\x04Kind\x94\x93\x94\x8c\x05ghost\x94\x85\x94R\x94\x8c\tfraction"
    b"s\x94\x8c\x08Fraction\x94\x93\x94J\xfd\xff\xff\xffK\x02\x86\x94R\x94ebh"
    b"\x08)\x81\x94]\x94(h\x0c\x8c\x04zero\x94\x85\x94R\x94Nebh\x08)\x81\x94]"
    b"\x94(h\x0c\x8c\x08tangible\x94\x85\x94R\x94h\x12K\x05K\x06\x86\x94R\x94e"
    b"b\x87\x94sb."
)

class TestMultiplicityRecovery:
    @pytest.mark.parametrize("seed", range(25))
    def test_constructed_factorizations(self, seed):
        rng = random.Random(f"mult:{seed}")
        shift = rng.randint(0, 2)
        count = rng.randint(1, 3)
        values = rng.sample(range(-6, 7), count)
        values.sort(reverse=True)
        mults = [rng.randint(1, 3) for _ in values]
        f = Polynomial(tuple([ZERO] * shift + [ONE]))
        for value, k in zip(values, mults):
            f = f * parse_polynomial(f"x + {value}") ** k
        expected = tuple(
            (tangible(v), k) for v, k in sorted(zip(values, mults))
        )
        assert roots(f).corner_roots == expected


class TestPrimaryRoot:
    def test_cubic(self):
        assert primary_root(parse_polynomial("x^3 + 6")) == tangible(2)

    def test_quadratic(self):
        f = parse_polynomial("x^2 + 2")
        assert primary_root(f) == tangible(1)
        assert f.evaluate(tangible(1)) == ghost(2)

    def test_two_corner_roots_rejected(self):
        with pytest.raises(DomainError):
            primary_root(X2_2X_2)

    def test_ghost_interference_rejected(self):
        # One corner root exists, but it is not the constant/leading chord.
        f = parse_polynomial("0gx^2 + 5x + 4")
        assert len(roots(f).corner_roots) == 1
        with pytest.raises(DomainError):
            primary_root(f)

    @pytest.mark.parametrize("seed", range(25))
    def test_constructed_primaries(self, seed):
        rng = random.Random(f"primary:{seed}")
        degree = rng.randint(1, 6)
        root_value = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
        lead = Fraction(rng.randint(-4, 4))
        f = (parse_polynomial("x") + Polynomial((tangible(root_value),))) ** degree
        f = f * Polynomial((tangible(lead),))
        want = tangible(root_value)
        assert primary_root(f) == want
        assert roots(f).corner_roots == ((want, degree),)


class TestProducts:
    def test_linear_product(self):
        f = parse_polynomial("x + 2") * parse_polynomial("x + 0")
        assert f == X2_2X_2
        assert [r for r, _ in roots(f).corner_roots] == [tangible(0), tangible(2)]

    def test_square_has_ghost_cross_term(self):
        assert parse_polynomial("x + 3") ** 2 == parse_polynomial("x^2 + 3gx + 6")

    def test_unit_is_neutral(self):
        unit = Polynomial((ONE,))
        assert X2_4X_5G * unit == X2_4X_5G

    def test_zero_absorbs(self):
        zero = Polynomial((ZERO,))
        assert (X2_4X_5G * zero).is_zero and (zero * X2_4X_5G).is_zero

    def test_negative_power_rejected(self):
        with pytest.raises(DomainError, match=r"^negative polynomial powers are not defined$"):
            X2_2X_2 ** -1

    @given(polynomials(max_degree=4), polynomials(max_degree=4), scalars)
    def test_product_evaluates_pointwise(self, f, g, x):
        assert (f * g).evaluate(x) == f.evaluate(x) * g.evaluate(x)

    @given(polynomials(max_degree=3), st.integers(min_value=0, max_value=3), scalars)
    def test_power_evaluates_pointwise(self, f, m, x):
        assert (f**m).evaluate(x) == f.evaluate(x) ** m


class TestSurpasses:
    def test_golden(self):
        assert X2_4X_5G.surpasses(parse_polynomial("x^2 + 4x + 4"))

    def test_reflexive(self):
        assert X2_4X_5G.surpasses(X2_4X_5G)

    def test_tangible_mismatch(self):
        assert not parse_polynomial("x + 3").surpasses(parse_polynomial("x + 4"))

    def test_degree_padding(self):
        assert parse_polynomial("1gx^2 + 0").surpasses(parse_polynomial("0"))

    @given(polynomials(max_degree=4), polynomials(max_degree=4))
    def test_antisymmetric(self, f, g):
        if f.surpasses(g) and g.surpasses(f):
            assert f == g


class TestMonotone:
    @pytest.mark.parametrize("seed", range(10))
    def test_growth_beyond_last_breakpoint(self, seed):
        rng = random.Random(f"mono:{seed}")
        f = sample_polynomial(rng, 6)
        cuts = breakpoints(f)
        start = (cuts[-1] if cuts else Fraction(0)) + 1
        previous = f.evaluate(tangible(start))
        for step in range(1, 5):
            current = f.evaluate(tangible(start + step))
            if f.degree >= 1:
                assert current.value > previous.value
            else:
                assert current.value == previous.value
            previous = current


class TestTextForms:
    def test_canonical_print(self):
        assert str(X2_4X_5G) == "x^2 + 4x + 5g"
        assert str(parse_polynomial("2 + x^2 + 2x")) == "x^2 + 2x + 2"
        assert str(Polynomial((ZERO,))) == "-inf"

    def test_duplicate_degrees_combine(self):
        assert parse_polynomial("3x + 3x") == parse_polynomial("3gx")

    @given(polynomials())
    def test_round_trip(self, f):
        assert parse_polynomial(str(f)) == f

    @given(polynomials())
    def test_json_round_trip(self, f):
        assert polynomial_from_strings(coeff_strings(f)) == f

    @pytest.mark.parametrize(
        "bad", list(PARSE_ERRORS), ids=lambda t: t if len(t) < 40 else f"{t[:8]}...{len(t)}"
    )
    def test_parse_rejects(self, bad):
        message = PARSE_ERRORS[bad]
        with pytest.raises((ParseError, BoundExceededError)) as exc:
            parse_polynomial(bad)
        assert str(exc.value) == message
        assert exc.type is (BoundExceededError if "exceeds bound" in message else ParseError)

    @pytest.mark.parametrize(
        "text, canonical, kinds",
        [
            ("-infx^2 + 1", "1", ["tangible"]),
            ("x", "x", ["zero", "tangible"]),
            ("-3/4gx^3", "-3/4gx^3", ["zero", "zero", "zero", "ghost"]),
            ("3x + 3x + 1gx", "3gx", ["zero", "ghost"]),
        ],
    )
    def test_parse_accepts(self, text, canonical, kinds):
        f = parse_polynomial(text)
        assert str(f) == canonical
        assert [c.kind.value for c in f.coeffs] == kinds

    @pytest.mark.parametrize(
        "text, keys",
        [
            ("1\n+\t2x +\xa03x^2", (1, (2, 4, 6))),
            ("\u2003x^2\u2028+ 1/2 \t", (2, (2, None, 0))),
            ("3 x^2", (1, (None, None, 6))),
            ("-inf x^3 + 1", (1, (2,))),
            ("1 + 1g", (1, (3,))),
        ],
    )
    def test_parse_keys(self, text, keys):
        assert parse_polynomial(text)._keys == keys

    def test_parse_caps_degree(self):
        cap = polynomial.MAX_PARSE_DEGREE
        assert parse_polynomial(f"x^{cap} + 1").degree == cap
        for text in ("x^100000000 + 1", f"-infx^{cap + 1}"):
            with pytest.raises(BoundExceededError) as exc:
                parse_polynomial(text)
            assert exc.value.bound == cap
            assert exc.value.size > cap

    def test_json_route_reads_every_string_before_the_degree_cap(self):
        strings = ["1"] * (polynomial.MAX_PARSE_DEGREE + 1) + ["y"]
        with pytest.raises(ParseError, match="^not a scalar: 'y'$"):
            polynomial_from_strings(strings)

    def test_normalization_trims_leading_zeros(self):
        f = Polynomial((tangible(1), ZERO, ZERO))
        assert f.degree == 0
        assert str(f) == "1"

    def test_zero_polynomial_round_trip(self):
        zero = Polynomial((ZERO,))
        assert parse_polynomial("-inf") == zero
        assert parse_polynomial(str(zero)) == zero
        assert polynomial_from_strings(coeff_strings(zero)) == zero


# The term-by-term parser that the one-pass `parse_polynomial` replaced, kept
# as its reference: each "+"-separated term stripped and matched on its own.
_REFERENCE_TERM_RE = re.compile(rf"(?P<coeff>-inf|{RATIONAL})?\s*(?P<x>x(?:\^(?P<deg>{DIGITS}))?)?\Z")


def _reference_parse(text: str) -> Polynomial:
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial")
    terms = []
    for raw in stripped.split("+"):
        term = raw.strip()
        match = _REFERENCE_TERM_RE.match(term)
        if match is None or not (match["coeff"] or match["x"]):
            check_digits(term)
            raise ParseError(f"not a polynomial term: {_reference_quote(term)}")
        coeff_text, num, den, ghost_mark, x, deg = match.groups()
        degree = 0 if x is None else 1 if deg is None else int(deg)
        if coeff_text is None:
            terms.append((degree, 0, 1, False))
        elif num is None:
            terms.append((degree, None, 1, False))
        else:
            p, q = literal_ratio(num, den, coeff_text)
            terms.append((degree, p, q, ghost_mark is not None))
    return _reference_from_terms(terms)


def _reference_quote(text):
    """An error's quote of ``text``: its repr up to 100 characters, else
    the reprs of its first 40 and last 20 characters and its length."""
    if len(text) <= 100:
        return repr(text)
    return f"{text[:40]!r} ... {text[-20:]!r} ({len(text):,} characters)"


def _reference_from_terms(terms):
    """The sum of ``(degree, numerator or None for -inf, denominator as
    written, ghost bit)`` terms; no terms make the zero polynomial."""
    top = max((t[0] for t in terms), default=0)
    if top > polynomial.MAX_PARSE_DEGREE:
        raise BoundExceededError("polynomial degree", top, polynomial.MAX_PARSE_DEGREE)
    scale = _key_scale((q for _, p, q, _ in terms if p is not None), "polynomial")
    keys = [None] * (top + 1)
    for degree, p, q, ghost_bit in terms:
        if p is None:
            continue
        # Repeated degrees add: the larger magnitude wins, a tie is ghost.
        key = (p * (scale // q)) << 1 | ghost_bit
        old = keys[degree]
        if old is None or key > old | 1:
            keys[degree] = key
        elif key >> 1 == old >> 1:
            keys[degree] = old | 1
    return Polynomial._from_keys(scale, keys)


def _outcome(parse, text):
    """The keys ``parse`` reads off ``text``, or its error's type and text."""
    try:
        return parse(text)._keys
    except (ParseError, BoundExceededError) as exc:
        return type(exc), str(exc)


_SEPARATORS = (" + ", "+", "\n+\t", "\xa0+\u2003", " +\u2028", "\x1c+ ")
_STRAYS = "y#*.^/g-x0 \u200b\u0663"
# Denominators of 1,000 digits: any three of them, or two and 7 after a
# third, pass the scale cap, so where the cap refuses depends on the order.
_HUGE_DENOMINATORS = (10**1000 - 1, 10**1000 - 3, 10**1000 - 7, 7)


def _mutate(rng, pieces):
    """One fault, or a whitespace change, in the terms ``pieces``."""
    i = rng.randrange(len(pieces))
    kind = rng.choice(("stray", "plus", "drop", "zero", "long", "huge", "degree", "space"))
    if kind == "stray":
        at = rng.randint(0, len(pieces[i]))
        pieces[i] = pieces[i][:at] + rng.choice(_STRAYS) + pieces[i][at:]
    elif kind == "plus":
        pieces.insert(rng.choice((0, i, len(pieces))), rng.choice(("", " ", "\t")))
    elif kind == "drop":
        pieces[i] = re.sub(r"^-inf|^[-\d/]+g?", "", pieces[i])
    elif kind == "zero":
        pieces[i] = f"{rng.randint(-3, 3)}/{'0' * rng.randint(1, 2)}{rng.choice(('', 'g'))}x^{i}"
    elif kind == "long":
        run = "9" * (1001 if rng.random() < 0.7 else 1000)
        pieces[i] = rng.choice((run, f"1/{run}x", f"-{run}gx^2", f"x^{run}"))
    elif kind == "huge":
        for q in rng.sample(_HUGE_DENOMINATORS, rng.randint(2, 4)):
            pieces.insert(rng.randint(0, len(pieces)), f"1/{q}x^{rng.randint(0, 12)}")
    elif kind == "degree":
        pieces[i] = rng.choice(("x^100001", "-infx^100001", "2gx^0100000"))
    else:
        pieces[i] = rng.choice(("\u2003", "\xa0", "\n", "")) + pieces[i] + rng.choice((" ", "\u3000", ""))


def _differential_texts():
    """2,000 seeded texts: a third well formed, the rest with one or two
    mutations, so two faults in one text are common."""
    rng = random.Random("parse-reference")
    for index in range(2000):
        top = rng.randint(0, 12)
        degrees = [top, *(rng.randint(0, top) for _ in range(rng.randint(0, top + 2)))]
        pieces = [_term_text(_coeff_text(rng, d), d, rng) for d in degrees]
        for _ in range(index % 3):
            _mutate(rng, pieces)
        text = pieces[0]
        for piece in pieces[1:]:
            text += rng.choice(_SEPARATORS) + piece
        yield text


class TestParseReference:
    def test_matches_the_term_by_term_parser(self):
        kinds = set()
        for text in _differential_texts():
            expected = _outcome(_reference_parse, text)
            assert _outcome(parse_polynomial, text) == expected, text
            kinds.add("keys" if isinstance(expected[0], int) else re.split(r":| in '", expected[1])[0])
        assert kinds == {"keys", "empty polynomial", "not a polynomial term", "zero denominator",
                         "number of digits", "polynomial degree", "digits of the polynomial scale"}

    @pytest.mark.parametrize("order, size", [((0, 1, 2, 3), 3000), ((3, 0, 1, 2), 2001)])
    def test_scale_cap_reports_the_text_order(self, order, size):
        text = " + ".join(f"1/{_HUGE_DENOMINATORS[i]}x^{d}" for d, i in enumerate(order))
        message = f"digits of the polynomial scale: size {size} exceeds bound 2000"
        with pytest.raises(BoundExceededError, match=f"^{message}$"):
            parse_polynomial(text)

    @pytest.mark.parametrize("text, quote", [
        ("1" + " " * 100_000 + "#", f"'1{' ' * 39}' ... '{' ' * 19}#' (100,002 characters)"),
        ("1" * 1000 + " " * 5_000 + "#", f"'{'1' * 40}' ... '{' ' * 19}#' (6,001 characters)"),
        ("+".join(["3 4x"] * 20_000), "'3 4x'"),
    ], ids=["long-space-run", "digits-then-spaces", "many-bad-terms"])
    def test_malformed_text_in_bounded_time(self, text, quote):
        # The time and the message are bounded: a long term is quoted by
        # its head and tail.
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text)
        assert time.perf_counter() - start < 2.0
        assert str(exc.value) == f"not a polynomial term: {quote}"
        assert len(str(exc.value)) < 120
