"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Budgets are asserted where a criterion states one.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

import conftest
from supertropical import (
    Config,
    DomainError,
    ONE,
    Polynomial,
    ZERO,
    census_power_tracks,
    char_poly,
    check_det_rule,
    check_tangible_equality,
    essential,
    ghost,
    mat_pow,
    minor_sum_charpoly,
    parse_matrix,
    parse_polynomial,
    primary_root,
    random_matrix,
    roots,
    run_campaign,
    sampled_equiv,
    sym_direct_charpoly,
    tangible,
    trial_seed,
)

CAMPAIGN_SEED = 20260810


@pytest.fixture(scope="module")
def campaign():
    cfg = Config(trials=1000, seed=CAMPAIGN_SEED, min_n=2, max_n=4, min_m=2, max_m=3)
    start = time.perf_counter()
    result = run_campaign(cfg)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _report(number: int, text: str) -> None:
    line = f"ACCEPTANCE {number} PASS: {text}"
    print(line)
    conftest.acceptance_lines.append(line)


def test_criterion_1_golden_example():
    start = time.perf_counter()
    a = parse_matrix("0 0\n1 2")

    f_a = char_poly(a)
    assert f_a == parse_polynomial("x^2 + 2x + 2")
    report_a = roots(f_a)
    assert report_a.corner_roots == ((tangible(0), 1), (tangible(2), 1))
    assert report_a.ghost_intervals == ()

    a2 = mat_pow(a, 2)
    assert a2 == parse_matrix("1 2\n3 4")

    f_a2 = char_poly(a2)
    assert f_a2 == parse_polynomial("x^2 + 4x + 5g")
    report_a2 = roots(f_a2)
    assert report_a2.corner_roots == ((tangible(4), 1),)
    (iv,) = report_a2.ghost_intervals
    assert iv.lo is None and iv.hi == Fraction(1) and iv.hi_closed

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"golden 2x2 example reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_charpoly_power_campaign(campaign):
    result, elapsed = campaign
    tally = result.tallies["thm36"]
    assert tally == {"pass": 1000, "fail": 0, "na": 0}
    assert elapsed < 60.0
    _report(2, f"charpoly-power held on 1000/1000 seeded trials ({elapsed:.1f}s)")


def test_criterion_3_det_rule_thousand_pairs():
    cfg = Config(trials=1000, seed=CAMPAIGN_SEED + 1, min_n=2, max_n=4)
    surpass_count = 0
    tangible_cases = 0
    for trial in range(cfg.trials):
        rng = random.Random(trial_seed(cfg.seed, trial))
        n = rng.randint(cfg.min_n, cfg.max_n)
        a = random_matrix(rng, n, cfg)
        b = random_matrix(rng, n, cfg)
        verdict = check_det_rule(a, b)
        assert verdict.holds
        surpass_count += 1
        record = verdict.detail[0]
        if record["tangible_equality"] is not None:
            tangible_cases += 1
            assert record["tangible_equality"] is True
    assert surpass_count == 1000
    _report(
        3,
        f"det product rule held on 1000/1000 pairs "
        f"({tangible_cases} tangible cases, all exactly equal)",
    )


def test_criterion_4_corollaries(campaign):
    result, _elapsed = campaign
    cor38 = result.tallies["cor38"]
    assert cor38 == {"pass": 1000, "fail": 0, "na": 0}
    cor37 = result.tallies["cor37"]
    assert cor37["fail"] == 0
    assert cor37["pass"] + cor37["na"] == 1000
    assert cor37["pass"] >= 1

    golden = check_tangible_equality(parse_matrix("0 0\n1 2"), 2)
    assert golden.holds is None

    _report(
        4,
        f"corner-root power 1000/1000; tangible equality "
        f"{cor37['pass']} applicable all passed, {cor37['na']} n/a; "
        f"golden example reports not-applicable",
    )


def test_criterion_5_census_sweep():
    start = time.perf_counter()
    cases = 0
    for n in (1, 2, 3):
        for m in (2, 3):
            for k in range(1, n + 1):
                verdict = census_power_tracks(n, m, k)
                assert verdict.holds, (n, m, k)
                cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(5, f"power-track census held on all {cases} (n,m,k) cases ({elapsed:.1f}s)")


def test_criterion_6_charpoly_route_equivalence():
    cfg = Config(trials=500, seed=CAMPAIGN_SEED + 2, min_n=1, max_n=4)
    for trial in range(cfg.trials):
        rng = random.Random(trial_seed(cfg.seed, trial))
        n = rng.randint(cfg.min_n, cfg.max_n)
        a = random_matrix(rng, n, cfg)
        assert char_poly(a) == minor_sum_charpoly(a) == sym_direct_charpoly(a)
    _report(
        6,
        "subset-DP, minor-sum and direct-permanent charpoly agree on 500/500 matrices",
    )


def _law_scalar(rng: random.Random):
    draw = rng.random()
    if draw < 0.1:
        return ZERO
    value = Fraction(rng.randint(-10, 10), rng.choice((1, 2)))
    return ghost(value) if rng.random() < 0.3 else tangible(value)


def test_criterion_7_algebraic_law_suite():
    cases = 10_000
    rng = random.Random("laws:acceptance")
    for _ in range(cases):
        a, b, c = (_law_scalar(rng) for _ in range(3))
        n = rng.randint(1, 4)

        # Commutative semiring axioms.
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a * ZERO == ZERO
        assert a + a == a.as_ghost()

        # Frobenius, exact over this carrier.
        assert (a + b) ** n == a**n + b**n

        # Ghost-surpass partial order and multiplicativity.
        assert a.surpasses(a)
        if a.surpasses(b) and b.surpasses(a):
            assert a == b
        if a.surpasses(b) and b.surpasses(c):
            assert a.surpasses(c)
        if a.surpasses(b):
            assert (a * c).surpasses(b * c)
        assert a.as_ghost().surpasses(a)
        assert (a * b).as_ghost() == a.as_ghost() * b.as_ghost()

        # Root uniqueness among tangibles.
        t = tangible(Fraction(rng.randint(-10, 10), rng.choice((1, 2))))
        root = t.root(n)
        assert root.is_tangible and root**n == t
        other = tangible(Fraction(rng.randint(-10, 10), rng.choice((1, 2))))
        if other != root:
            assert other**n != t
    _report(7, f"semiring, Frobenius, order, and root laws held on {cases} cases each")


def _random_poly(rng: random.Random, max_degree: int) -> Polynomial:
    degree = rng.randint(1, max_degree)
    coeffs = [_law_scalar(rng) for _ in range(degree)]
    lead = _law_scalar(rng)
    while lead.is_zero:
        lead = _law_scalar(rng)
    coeffs.append(lead)
    return Polynomial(tuple(coeffs))


def test_criterion_8_polynomial_suite():
    rng = random.Random("polys:acceptance")

    for case in range(500):
        f = _random_poly(rng, 8)
        assert sampled_equiv(f, essential(f), samples=40, seed=case).holds

    for _ in range(200):
        shift = rng.randint(0, 2)
        count = rng.randint(1, 3)
        values = rng.sample(range(-8, 9), count)
        mults = [rng.randint(1, 3) for _ in values]
        f = Polynomial(tuple([ZERO] * shift + [ONE]))
        for value, k in zip(values, mults):
            f = f * parse_polynomial(f"x + {value}") ** k
        expected = tuple((tangible(v), k) for v, k in sorted(zip(values, mults)))
        assert roots(f).corner_roots == expected

    for _ in range(200):
        degree = rng.randint(1, 6)
        root_value = Fraction(rng.randint(-8, 8), rng.choice((1, 2)))
        scale = tangible(rng.randint(-4, 4))
        f = (parse_polynomial("x") + Polynomial((tangible(root_value),))) ** degree
        f = f * Polynomial((scale,))
        assert primary_root(f) == tangible(root_value)
        assert roots(f).corner_roots == ((tangible(root_value), degree),)

    with pytest.raises(DomainError):
        primary_root(parse_polynomial("x^2 + 2x + 2"))

    _report(
        8,
        "essential reduction sound on 500 polynomials; multiplicities and "
        "primary roots recovered on 200 constructions each",
    )
