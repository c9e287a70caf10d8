"""Seeded random inputs and the law-checking campaign.

Entries are drawn from a small integer lattice with configurable ghost and
zero probabilities: a tight lattice makes ties (and therefore ghosts)
frequent, which is where the interesting behavior is. Every entry, of a
matrix, a polynomial or a lone scalar, is drawn by one loop,
`_random_keys`, which reads the shape and the generator's methods once per
call and draws the entries straight into keys. Every trial derives its own
generator from the campaign seed and trial index, so any reported
violation can be reproduced from the summary alone. Exhaustive searches,
such as the eigenvector grid, are references in `oracle`, not here.
"""

from __future__ import annotations

import json
import random
from typing import Iterator

from .defaults import (
    DEFAULT_GHOST_PROB,
    DEFAULT_MAX_M,
    DEFAULT_MAX_N,
    DEFAULT_MIN_N,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    LAW_IDS,
)
from .errors import BoundExceededError, DomainError
from .matrix import Matrix, check_dim_bound
from .polynomial import Polynomial
from .scalar import Scalar, _Record, _decode
from .spectral import CHECKS, Trial

# The most trials one campaign runs; more are refused before any is drawn.
MAX_TRIALS = 10**6


class Config(_Record):
    """Campaign shape; the seed fully determines every generated input.

    ``Config._fields`` names the fields in order, which is the order of the
    positional arguments. The command line reads it to find the flags that
    set a field (``cli._generated_config``), and `CampaignResult.to_json_dict`
    to write the shape.
    """

    _fields = ("trials", "seed", "min_n", "max_n", "min_m", "max_m", "value_min", "value_max",
               "ghost_prob", "zero_prob", "det_bound")

    def __init__(
        self,
        trials: int = DEFAULT_TRIALS,
        seed: int = DEFAULT_SEED,
        min_n: int = DEFAULT_MIN_N,
        max_n: int = DEFAULT_MAX_N,
        min_m: int = 2,
        max_m: int = DEFAULT_MAX_M,
        value_min: int = -5,
        value_max: int = 5,
        ghost_prob: float = DEFAULT_GHOST_PROB,
        zero_prob: float = 0.05,
        det_bound: int | None = None,
    ):
        self.trials = trials
        self.seed = seed
        self.min_n = min_n
        self.max_n = max_n
        self.min_m = min_m
        self.max_m = max_m
        self.value_min = value_min
        self.value_max = value_max
        self.ghost_prob = ghost_prob
        self.zero_prob = zero_prob
        self.det_bound = det_bound
        if self.trials < 1:
            raise DomainError("trials must be at least 1")
        if self.trials > MAX_TRIALS:
            raise BoundExceededError("trials", self.trials, MAX_TRIALS)
        if not 1 <= self.min_n <= self.max_n:
            raise DomainError("need 1 <= min_n <= max_n")
        # Refused before any trial is drawn: an n-by-n draw and its key power
        # cost time in n before the first dimension check reads n.
        check_dim_bound("largest generated dimension", self.max_n, self.det_bound)
        if not 1 <= self.min_m <= self.max_m:
            raise DomainError("need 1 <= min_m <= max_m")
        if self.value_min > self.value_max:
            raise DomainError("empty value lattice")
        if not (0 <= self.ghost_prob <= 1 and 0 <= self.zero_prob <= 1):
            raise DomainError("probabilities must lie in [0, 1]")


def trial_seed(seed: int, trial: int) -> str:
    return f"{seed}:{trial}"


def _random_keys(
    rng: random.Random, cfg: Config, count: int, allow_zero: bool = True
) -> list[int | None]:
    """``count`` lattice entries as keys at scale 1 (see ``scalar.py``):
    ``None`` for ``-inf``, else ``value << 1 | is_ghost``. Each entry draws,
    in this order, the ``-inf`` test (only if ``allow_zero``), the value and
    the ghost test. The value is drawn as CPython's
    ``rng.randint(value_min, value_max)`` draws it, by rejection from
    ``getrandbits``, so a seed gives the same entries as a ``randint`` draw,
    without that call's argument checks; the shape and the generator's
    methods are read once for all ``count`` entries."""
    draw, bits = rng.random, rng.getrandbits
    low, zero_prob, ghost_prob = cfg.value_min, cfg.zero_prob, cfg.ghost_prob
    width = cfg.value_max - low + 1
    k = width.bit_length()
    keys: list[int | None] = []
    for _ in range(count):
        if allow_zero and draw() < zero_prob:
            keys.append(None)
            continue
        r = bits(k)
        while r >= width:
            r = bits(k)
        keys.append((low + r) << 1 | (draw() < ghost_prob))
    return keys


def random_scalar(rng: random.Random, cfg: Config, allow_zero: bool = True) -> Scalar:
    return _decode(_random_keys(rng, cfg, 1, allow_zero)[0], 1)


def random_matrix(rng: random.Random, n: int, cfg: Config) -> Matrix:
    """An n-by-n lattice matrix drawn as keys at scale 1, row by row in one
    `_random_keys` call, decoded only when read."""
    keys = _random_keys(rng, cfg, n * n)
    return Matrix._from_keys(1, [keys[i:i + n] for i in range(0, n * n, n)])


def random_polynomial(rng: random.Random, max_degree: int, cfg: Config) -> Polynomial:
    """Random nonzero polynomial with a guaranteed nonzero leading term,
    drawn as keys at scale 1 as `random_matrix` draws, decoded only when read."""
    degree = rng.randint(1, max_degree)
    keys = _random_keys(rng, cfg, degree)
    keys += _random_keys(rng, cfg, 1, allow_zero=False)
    return Polynomial._from_keys(1, keys)


class CampaignResult(_Record):
    """A campaign's shape, pass/fail/N/A counts by check and violations;
    unhashable, as its counts are."""

    _fields = ("config", "tallies", "violations")
    __hash__ = None

    def __init__(self, config: Config, tallies: dict[str, dict[str, int]], violations: list[dict]):
        self.config = config
        self.tallies = tallies
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "config": {name: getattr(self.config, name) for name in Config._fields},
            "results": self.tallies,
            "violations": self.violations,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def __str__(self) -> str:
        cfg = self.config
        lines = [f"fuzz: {cfg.trials} trials, seed {cfg.seed}, "
                 f"n in [{cfg.min_n},{cfg.max_n}], m in [{cfg.min_m},{cfg.max_m}]"]
        lines += [f"  {name:<6} pass {t['pass']:>5}  fail {t['fail']:>3}  na {t['na']:>5}"
                  for name, t in self.tallies.items()]
        lines.append("violations:" if self.violations else "violations: none")
        lines += [json.dumps(item, sort_keys=True) for item in self.violations]
        return "\n".join(lines)


def generate_trials(cfg: Config) -> Iterator[Trial]:
    """The campaign's inputs in trial order; trial ``i`` draws n, m, A and B
    from its own generator seeded by ``trial_seed(cfg.seed, i)``, as
    `random_matrix` does, so a trial's rows are decoded only if read."""
    for trial in range(cfg.trials):
        rng = random.Random(trial_seed(cfg.seed, trial))
        n = rng.randint(cfg.min_n, cfg.max_n)
        m = rng.randint(cfg.min_m, cfg.max_m)
        a, b = random_matrix(rng, n, cfg), random_matrix(rng, n, cfg)
        yield Trial(a, b, m, cfg.det_bound)


def run_campaign(cfg: Config, checks: tuple[str, ...] = LAW_IDS) -> CampaignResult:
    """Run each of ``checks`` (`spectral.CHECKS` ids, by default ``LAW_IDS``)
    once per trial, and tally it and list its violations, in that order."""
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise DomainError(f"unknown check id: {unknown[0]!r}")
    tallies = {c: {"pass": 0, "fail": 0, "na": 0} for c in checks}
    violations: list[dict] = []
    for trial, inputs in enumerate(generate_trials(cfg)):
        for name, tally in tallies.items():
            verdict = CHECKS[name](inputs)
            if verdict.holds is None:
                tally["na"] += 1
            elif verdict.holds:
                tally["pass"] += 1
            else:
                tally["fail"] += 1
                violations.append(
                    {
                        "trial": trial,
                        "seed": trial_seed(cfg.seed, trial),
                        "check": name,
                        "verdict": verdict.to_json_dict(),
                    }
                )
    return CampaignResult(cfg, tallies, violations)
