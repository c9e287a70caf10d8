"""Generators and campaign determinism."""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from supertropical import fuzz, matrix, polynomial, scalar, spectral
from supertropical.defaults import (
    DEFAULT_DET_BOUND,
    DEFAULT_MAX_M,
    DEFAULT_MAX_N,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    LAW_IDS,
)
from supertropical.fuzz import MAX_TRIALS, generate_trials
from supertropical.matrix import MAX_DIM_BOUND
from supertropical import (
    BoundExceededError,
    Config,
    DomainError,
    Scalar,
    char_poly,
    det,
    mat_mul,
    mat_pow,
    random_matrix,
    random_polynomial,
    roots,
    run_campaign,
    trace,
    trial_seed,
)


class TestConfig:
    def test_defaults_valid(self):
        Config()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": 0},
            {"min_n": 0},
            {"min_n": 3, "max_n": 2},
            {"min_m": 0},
            {"value_min": 1, "value_max": 0},
            {"ghost_prob": 1.5},
            {"zero_prob": -0.1},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            Config(**kwargs)

    def test_trials_cap(self):
        # Building the config draws nothing, so neither side runs a trial.
        assert Config(trials=MAX_TRIALS).trials == MAX_TRIALS
        message = rf"^trials: size {MAX_TRIALS + 1} exceeds bound {MAX_TRIALS}$"
        with pytest.raises(BoundExceededError, match=message):
            Config(trials=MAX_TRIALS + 1)

    def test_max_n_cap(self):
        # The largest generated dimension is capped by the campaign's
        # dimension bound, the default one when none is given.
        assert Config(max_n=DEFAULT_DET_BOUND).max_n == DEFAULT_DET_BOUND
        assert Config(max_n=12, det_bound=12).max_n == 12
        # However large the bound given, it is refused before any draw.
        message = rf"^dimension bound: size 1000000 exceeds bound {MAX_DIM_BOUND}$"
        with pytest.raises(BoundExceededError, match=message):
            Config(max_n=10**6, det_bound=10**6)
        message = rf"^largest generated dimension: size 10 exceeds bound {DEFAULT_DET_BOUND}$"
        with pytest.raises(BoundExceededError, match=message):
            Config(max_n=10)
        with pytest.raises(BoundExceededError, match=r"size 4 exceeds bound 3$"):
            Config(det_bound=3)

    FIELDS = ("trials", "seed", "min_n", "max_n", "min_m", "max_m",
              "value_min", "value_max", "ghost_prob", "zero_prob", "det_bound")

    def test_built_positionally_or_by_keyword(self):
        values = (5, 9, 1, 3, 1, 2, -2, 2, 0.5, 0.0, 4)
        by_position = Config(*values)
        assert by_position == Config(**dict(zip(self.FIELDS, values)))
        assert tuple(getattr(by_position, name) for name in self.FIELDS) == values

    def test_defaults(self):
        assert tuple(getattr(Config(), name) for name in self.FIELDS) == (
            DEFAULT_TRIALS, DEFAULT_SEED, 2, DEFAULT_MAX_N, 2, DEFAULT_MAX_M,
            -5, 5, 0.2, 0.05, None,
        )

    def test_field_names_in_order(self):
        # The one list of fields that the command line's flags and the
        # campaign's JSON read.
        assert Config._fields == self.FIELDS
        assert list(run_campaign(Config(trials=1)).to_json_dict()["config"]) == list(self.FIELDS)

    @pytest.mark.parametrize(
        "kwargs, error, message",
        [
            ({"trials": 0}, DomainError, "trials must be at least 1"),
            ({"trials": MAX_TRIALS + 1}, BoundExceededError,
             f"trials: size {MAX_TRIALS + 1} exceeds bound {MAX_TRIALS}"),
            ({"min_n": 0}, DomainError, "need 1 <= min_n <= max_n"),
            ({"min_n": 3, "max_n": 2}, DomainError, "need 1 <= min_n <= max_n"),
            ({"max_n": 10}, BoundExceededError,
             f"largest generated dimension: size 10 exceeds bound {DEFAULT_DET_BOUND}"),
            ({"max_n": 5, "det_bound": 4}, BoundExceededError,
             "largest generated dimension: size 5 exceeds bound 4"),
            ({"min_m": 0}, DomainError, "need 1 <= min_m <= max_m"),
            ({"min_m": 4, "max_m": 3}, DomainError, "need 1 <= min_m <= max_m"),
            ({"value_min": 1, "value_max": 0}, DomainError, "empty value lattice"),
            ({"ghost_prob": 1.5}, DomainError, "probabilities must lie in [0, 1]"),
            ({"zero_prob": -0.1}, DomainError, "probabilities must lie in [0, 1]"),
            # The checks run in this order, so the first that fails is reported.
            ({"trials": 0, "min_n": 0}, DomainError, "trials must be at least 1"),
            ({"min_m": 0, "value_min": 1, "value_max": 0}, DomainError,
             "need 1 <= min_m <= max_m"),
        ],
    )
    def test_refusal_messages(self, kwargs, error, message):
        with pytest.raises(error) as exc:
            Config(**kwargs)
        assert type(exc.value) is error and str(exc.value) == message


class TestGenerators:
    def test_matrix_shape_and_determinism(self):
        cfg = Config(seed=4)
        first = random_matrix(random.Random(trial_seed(4, 0)), 3, cfg)
        second = random_matrix(random.Random(trial_seed(4, 0)), 3, cfg)
        assert first.n == 3
        assert first == second

    def test_polynomial_leading_nonzero_even_when_always_zero(self):
        cfg = Config(zero_prob=1.0)
        rng = random.Random("degenerate")
        for _ in range(20):
            f = random_polynomial(rng, 5, cfg)
            assert not f.coeffs[-1].is_zero

    def test_polynomial_draws_pinned(self):
        # One SHA-256 over the keys and text of two polynomials per seed,
        # 0..199, under the default shape and a tight ghost-heavy one: a
        # change to the draw order, the leading-term rule or the key form
        # shows here.
        digest = hashlib.sha256()
        for cfg in (Config(), Config(ghost_prob=0.5, zero_prob=0.3, value_min=-2, value_max=2)):
            for seed in range(200):
                rng = random.Random(seed)
                for _ in range(2):
                    f = random_polynomial(rng, 8, cfg)
                    digest.update(f"{f._keys} {f}\n".encode())
        assert digest.hexdigest() == (
            "d95ff1aea809630a60d8a163607c7a9b75a1367835abe84995ae350580b2489b"
        )

    def test_matrix_and_scalar_draws_pinned(self):
        # One SHA-256 over a 3x3 matrix's keys, two scalars (the second
        # never -inf) and the generator's next 32 bits per seed, 0..199,
        # for lattice widths 1, 8 and 11, each with zero_prob and ghost_prob
        # at 0 and 1: a change to the draw order, the number of draws or
        # the rejection rule shows here.
        digest = hashlib.sha256()
        for value_min, value_max in ((3, 3), (-4, 3), (-5, 5)):
            for zero_prob, ghost_prob in ((0, 0), (0, 1), (1, 0), (1, 1)):
                cfg = Config(value_min=value_min, value_max=value_max,
                             zero_prob=zero_prob, ghost_prob=ghost_prob)
                for seed in range(200):
                    rng = random.Random(seed)
                    keys = random_matrix(rng, 3, cfg)._keys
                    first, second = fuzz.random_scalar(rng, cfg), fuzz.random_scalar(rng, cfg, False)
                    digest.update(f"{keys} {first} {second} {rng.getrandbits(32)}\n".encode())
        assert digest.hexdigest() == (
            "504beb9a929f2c02b6c8fbd84fc74840aa33907392b519ea6836fd976edaea9c"
        )

    @pytest.mark.parametrize("value_min, value_max", [(3, 3), (-4, 3), (-5, 5), (-9, -2)])
    @pytest.mark.parametrize("allow_zero", [True, False])
    def test_key_draw_matches_randint(self, value_min, value_max, allow_zero):
        # The lattice value is drawn as CPython's randint draws it, so each
        # seed gives the keys of the randint draw and leaves the generator in
        # the same state. Widths 1 and 8 (a power of two), the default -5..5
        # and an all-negative range.
        cfg = Config(value_min=value_min, value_max=value_max, ghost_prob=0.3, zero_prob=0.2)

        def reference(rng):
            if allow_zero and rng.random() < cfg.zero_prob:
                return None
            return rng.randint(cfg.value_min, cfg.value_max) << 1 | (rng.random() < cfg.ghost_prob)

        for seed in range(300):
            drawn, expected = random.Random(seed), random.Random(seed)
            keys = fuzz._random_keys(drawn, cfg, 20, allow_zero)
            assert keys == [reference(expected) for _ in range(20)]
            assert drawn.getstate() == expected.getstate()


class TestCampaign:
    def test_same_seed_same_json(self):
        cfg = Config(trials=20, seed=13, max_n=3)
        assert run_campaign(cfg).to_json() == run_campaign(cfg).to_json()

    def test_tally_counts_sum_to_trials(self):
        cfg = Config(trials=30, seed=2, max_n=3)
        result = run_campaign(cfg)
        for tally in result.tallies.values():
            assert tally["pass"] + tally["fail"] + tally["na"] == 30
        assert result.ok

    def test_campaign_bytes_pinned(self):
        # One SHA-256 over the JSON of 400 seeded 25-trial campaigns: a
        # change to the draws, the kernels or the laws that moves any tally,
        # violation or config field shows here.
        digest = hashlib.sha256()
        for seed in range(400):
            digest.update(run_campaign(Config(trials=25, seed=seed)).to_json().encode())
        assert digest.hexdigest() == (
            "bffeea61f7a773a6e20f4db6c8edaccfd390ade643e77bc097f238eff8c46230"
        )

    def test_power_and_charpolys_computed_once_per_trial(self, monkeypatch):
        # Count the kernel work wherever it is called from: no encode (a
        # generated matrix is drawn as keys), two charpoly tables per trial,
        # of A and A^m, and two determinant columns, of AB and B (det(A) is
        # coefficient 0 of A's table); the key products are those of A^m's
        # repeated squaring plus one for AB.
        calls = Counter()
        for name in ("_encode_keys", "_permanent_table", "_det_column", "_key_product"):

            def counted(*args, _name=name, _original=getattr(matrix, name)):
                calls[_name] += 1
                return _original(*args)

            for module in (matrix, spectral):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        cfg = Config(trials=10, seed=0)
        run_campaign(cfg)
        power_products = sum(
            t.m.bit_length() + t.m.bit_count() - 2 for t in generate_trials(cfg)
        )
        assert calls == Counter({
            "_encode_keys": 0,
            "_permanent_table": 20,
            "_det_column": 20,
            "_key_product": power_products + 10,
        })

    def test_passing_campaign_builds_no_strings(self, monkeypatch):
        # The laws compare keys, and the corner-root law the envelopes'
        # integer cuts, so a passing campaign decodes no key, builds no
        # root report, Fraction or Scalar and formats no scalar; a verdict's
        # detail is built when it is read, and reads as the public Scalar
        # route writes it.
        calls = Counter()

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        for module in (scalar, polynomial, matrix, spectral, fuzz):
            monkeypatch.setattr(module, "_decode", counted("_decode", module._decode))
        for module in (polynomial, spectral):
            monkeypatch.setattr(module, "roots", counted("roots", module.roots))
        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("Fraction", Fraction.__new__)))
        monkeypatch.setattr(Scalar, "__init__", counted("Scalar", Scalar.__init__))
        monkeypatch.setattr(Scalar, "__str__", counted("__str__", Scalar.__str__))
        seen = []
        for check_id, law in spectral.CHECKS.items():

            def recorded(t, _check_id=check_id, _law=law):
                seen.append((_check_id, t, _law(t)))
                return seen[-1][2]

            monkeypatch.setitem(spectral.CHECKS, check_id, recorded)
        assert run_campaign(Config(trials=50, seed=17)).ok
        assert len(seen) == 250
        assert calls == Counter()
        for check_id, t, verdict in seen:
            assert list(verdict.detail) == _scalar_route_detail(check_id, t), (check_id, t.a)
        assert all(calls[name] > 0 for name in ("_decode", "Fraction", "Scalar", "__str__"))

    def test_violations_in_tally_order(self, monkeypatch):
        # With every law failing, one trial's violations are listed in the
        # order the campaign tallies and runs the checks: by default LAW_IDS,
        # thm13 first, and else the order given.
        ran = []

        def failing(check_id):
            ran.append(check_id)
            return spectral.Verdict(check_id, False, {})

        for check_id in LAW_IDS:
            monkeypatch.setitem(spectral.CHECKS, check_id, lambda t, _id=check_id: failing(_id))
        default = run_campaign(Config(trials=2, seed=0))
        reverse = run_campaign(Config(trials=2, seed=0), LAW_IDS[::-1])
        assert ran == [*LAW_IDS, *LAW_IDS, *LAW_IDS[::-1], *LAW_IDS[::-1]]
        for result, checks in ((default, LAW_IDS), (reverse, LAW_IDS[::-1])):
            assert list(result.tallies) == list(checks)
            assert [(v["trial"], v["check"]) for v in result.violations] == [
                (trial, check_id) for trial in range(2) for check_id in checks
            ]
        assert default.violations[0]["check"] == "thm13"

    def test_unknown_check_id_rejected(self):
        with pytest.raises(DomainError, match="thm99"):
            run_campaign(Config(trials=3), ("thm99", "thm36"))


def _scalar_route_detail(check_id: str, t) -> list[dict]:
    """The detail records of law ``check_id`` on trial ``t``, computed with
    the public API's `Scalar` arithmetic."""
    a, m = t.a, t.m
    alpha, power = char_poly(a), char_poly(mat_pow(a, m))
    pairs = [(c, d**m) for c, d in zip(power.coeffs, alpha.coeffs)]
    if check_id == "thm13":
        lhs = det(mat_mul(a, t.b)).value
        rhs = det(a).value * det(t.b).value
        equal = lhs == rhs if lhs.is_tangible else None
        return [{"lhs": str(lhs), "rhs": str(rhs), "tangible_equality": equal}]
    if check_id == "thm36":
        return [
            {"i": i, "coeff": str(c), "power": str(p),
             "relation": "equal" if c == p else "ghost-surpass" if c.surpasses(p) else "violation"}
            for i, (c, p) in enumerate(pairs)
        ]
    if check_id == "cor37":
        if any(c.is_ghost for c in power.coeffs):
            return []
        return [{"i": i, "coeff": str(c), "power": str(p), "equal": c == p}
                for i, (c, p) in enumerate(pairs)]
    if check_id == "cor38":
        base = [lam for lam, _ in roots(alpha).corner_roots]
        return [
            {"corner_root": str(mu),
             "base_root": next((str(lam) for lam in base if lam**m == mu), None)}
            for mu, _ in roots(power).corner_roots
        ]
    lhs, rhs = trace(mat_pow(a, m)), trace(a) ** m
    return [{"lhs": str(lhs), "rhs": str(rhs)}]

