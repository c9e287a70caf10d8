"""The benchmark's workloads: seeded inputs, one timed operation, checked outputs.

Each workload draws its inputs from a fixed pool: ``strata`` kinds of input,
``members`` pool entries per kind, each generated deterministically from
(workload, stratum, member). The reference outputs of every pool entry were
recorded from the seed commit by ``record.py`` into ``reference/``.

The run seed chooses a permutation of each stratum's members. Round ``r``
runs member ``perm[s][r % members]`` of every stratum ``s``, so every round
has the same mix of input kinds (the medians stay comparable between seeds)
while the inputs themselves change with the seed.

This module never imports the package; callers pass it in as ``st`` so that
a set-up probe can time the import itself.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
LAUNCHER = HERE / "cli_launcher.py"
TRACE_ENV = "PERFBENCH_TRACE_OUT"

CLI_TIMEOUT_S = 120


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _scalar_text(value: Fraction, is_ghost: bool) -> str:
    return f"{value}g" if is_ghost else str(value)


def _term_text(coeff: str, degree: int) -> str:
    if degree == 0:
        return coeff
    return f"{coeff}x" if degree == 1 else f"{coeff}x^{degree}"


def _lattice_value(rng: random.Random, wide: bool) -> Fraction:
    """Tight: small halves and thirds, so ties are common. Wide: large
    rationals with denominators 2..97, so ties are rare."""
    if wide:
        return Fraction(rng.randint(-10**6, 10**6), rng.randint(2, 97))
    return Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))


def polynomial_text(rng: random.Random, degree: int, wide: bool) -> str:
    """Degree-descending terms, 15% ghosts; about 5% of the lower degrees
    are left out."""
    terms = []
    for d in range(degree, -1, -1):
        if d < degree and rng.random() < 0.05:
            continue
        coeff = _scalar_text(_lattice_value(rng, wide), rng.random() < 0.15)
        terms.append(_term_text(coeff, d))
    return " + ".join(terms)


def matrix_text(rng: random.Random, n: int, kind: str) -> str:
    """One row per line. ``tight``: integers -2..2, 20% ghosts, many ties.
    ``wide``: non-integer rationals, 10% ghosts, ties rare. ``tie``: every
    entry the same tangible value, so every permutation track ties; always
    a non-integer, so every member needs the same memory."""
    if kind == "tie":
        p = rng.choice([p for p in range(-999, 1000) if p % 3 and abs(p) >= 100])
        value = str(Fraction(p, 3))
        return "\n".join(" ".join([value] * n) for _ in range(n))
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if kind == "tight":
                value = Fraction(rng.randint(-2, 2))
                row.append(_scalar_text(value, rng.random() < 0.2))
            else:
                q = rng.randint(2, 9)
                p = rng.randint(-10**4, 10**4)
                p += 0 if p % q else 1
                row.append(_scalar_text(Fraction(p, q), rng.random() < 0.1))
        rows.append(" ".join(row))
    return "\n".join(rows)


class Workload:
    """A pool of inputs, the timed call on one input, and its canonical output."""

    name: str
    strata: tuple[str, ...]
    members: int
    in_process = True
    # Rounds run by a traced run: a fixed amount of work, so counts repeat.
    trace_rounds: int
    op_label: str
    rate_label: str

    def prepare(self, st, stratum: str, member: int):
        """Input for one pool entry (set-up work, not timed as an operation)."""
        raise NotImplementedError

    def call(self, st, inp, tracer=None):
        """The timed operation; returns its raw output."""
        raise NotImplementedError

    def canon(self, raw) -> dict[str, str]:
        """The outputs the seed commit's references record, as strings."""
        raise NotImplementedError

    def items(self, inp) -> int:
        return 1

    def phases(self, raw) -> dict[str, float]:
        """Seconds of the named parts of one operation, if it has parts."""
        return {}

    def schedule(self, seed: int) -> list[list[int]]:
        perms = []
        for stratum in self.strata:
            perm = list(range(self.members))
            random.Random(f"perfbench:{self.name}:{seed}:{stratum}").shuffle(perm)
            perms.append(perm)
        return perms

    def round_entries(self, schedule, r: int) -> list[tuple[str, int]]:
        return [
            (stratum, perm[r % self.members])
            for stratum, perm in zip(self.strata, schedule)
        ]

    def round_inputs(self, st, schedule, r: int) -> list:
        return [self.prepare(st, s, m) for s, m in self.round_entries(schedule, r)]


class Campaign(Workload):
    name = "campaign"
    strata = ("campaign",)
    members = 1024
    trace_rounds = 40
    trials = 25
    op_label = "25-trial run_campaign call"
    rate_label = "campaign_trials_per_s"

    def prepare(self, st, stratum, member):
        return st.Config(trials=self.trials, seed=member)

    def call(self, st, cfg, tracer=None):
        return st.run_campaign(cfg)

    def canon(self, result):
        text = json.dumps(
            {"results": result.tallies, "violations": result.violations}, sort_keys=True
        )
        return {"digest": digest(text)}

    def items(self, cfg):
        return cfg.trials


class DenseSpectrum(Workload):
    name = "dense_spectrum"
    # The all-tied matrix first: its 40320 dominant tracks set the peak memory,
    # which then does not depend on what earlier inputs left in the heap.
    strata = ("tie8", "tight7", "wide7", "tight8", "wide8")
    members = 8
    trace_rounds = 1
    op_label = "matrix: det, char_poly and eigenvalues"
    rate_label = "matrices_per_s"

    def prepare(self, st, stratum, member):
        rng = random.Random(f"dense:{stratum}:{member}")
        return st.parse_matrix(matrix_text(rng, int(stratum[-1]), stratum[:-1]))

    def call(self, st, a, tracer=None):
        t0 = time.perf_counter()
        report = st.det(a)
        t1 = time.perf_counter()
        poly = st.char_poly(a)
        t2 = time.perf_counter()
        eigen = st.eigenvalues(a)
        t3 = time.perf_counter()
        return report, poly, eigen, {"det_s": t1 - t0, "charpoly_s": t2 - t1, "eigen_s": t3 - t2}

    def canon(self, raw):
        report, poly, eigen, _phases = raw
        classification = report.classification.value
        return {
            "det": f"{report.value} {classification} {len(report.dominant_tracks)}",
            "char_poly": str(poly),
            "eigen": json.dumps(eigen.to_json_dict(), sort_keys=True),
        }

    def phases(self, raw):
        return raw[3]


class PolyRoots(Workload):
    name = "poly_roots"
    # 64 degree bands covering 100..1000; even bands tight, odd bands wide.
    strata = tuple(f"band{b:02d}" for b in range(64))
    members = 32
    trace_rounds = 4
    op_label = "polynomial, parse to rendered report: roots_ms"
    rate_label = "polynomials_per_s"

    def prepare(self, st, stratum, member):
        band = int(stratum[4:])
        lo = 100 + (901 * band) // 64
        hi = 100 + (901 * (band + 1)) // 64 - 1
        rng = random.Random(f"poly:{band}:{member}")
        return polynomial_text(rng, rng.randint(lo, hi), wide=band % 2 == 1)

    def call(self, st, text, tracer=None):
        f = st.parse_polynomial(text)
        report = st.roots(f)
        ess = st.essential(f)
        return str(ess) + "\n" + json.dumps(report.to_json_dict(), sort_keys=True)

    def canon(self, rendered):
        return {"digest": digest(rendered)}


class CliOneshot(Workload):
    name = "cli_oneshot"
    strata = ("charpoly", "eigen", "roots", "thm36", "charpoly-equiv", "claim35", "fuzz")
    members = 64
    in_process = False
    trace_rounds = 2
    op_label = "command: cli_call_ms"
    rate_label = "calls_per_s"

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)

    def _matrix_file(self, stratum, rng) -> str:
        path = self.workdir / f"{stratum}.txt"
        path.write_text(matrix_text(rng, rng.choice((3, 4)), "tight") + "\n", encoding="utf-8")
        return str(path)

    def prepare(self, st, stratum, member):
        rng = random.Random(f"cli:{stratum}:{member}")
        if stratum in ("charpoly", "eigen"):
            return [stratum, self._matrix_file(stratum, rng)]
        if stratum == "roots":
            return ["roots", polynomial_text(rng, rng.randint(8, 16), wide=False)]
        if stratum == "thm36":
            return ["check", "thm36", "-f", self._matrix_file(stratum, rng),
                    "-m", str(rng.choice((2, 3)))]
        if stratum == "charpoly-equiv":
            return ["check", "charpoly-equiv", "--trials", "30", "--seed", str(member)]
        if stratum == "claim35":
            return ["check", "claim35", "-n", "3", "-m", "2"]
        return ["fuzz", "--json", "--trials", "20", "--seed", str(member)]

    def call(self, st, argv, tracer=None):
        env = dict(os.environ)
        env.pop(TRACE_ENV, None)
        trace_path = None
        if tracer is not None:
            trace_path = self.workdir / "trace.json"
            env[TRACE_ENV] = str(trace_path)
        proc = subprocess.run(
            [sys.executable, str(LAUNCHER), *argv],
            capture_output=True, env=env, timeout=CLI_TIMEOUT_S,
        )
        if tracer is not None:
            tracer.counts["cli.stdout_bytes"] += len(proc.stdout)
            trace = json.loads(trace_path.read_text(encoding="utf-8"))
            trace_path.unlink()
            tracer.merge(trace["spans"], trace["counts"])
        return proc.returncode, proc.stdout.decode("utf-8")

    def canon(self, raw):
        code, stdout = raw
        return {"exit": str(code), "stdout": digest(stdout)}


NAMES = ("campaign", "dense_spectrum", "poly_roots", "cli_oneshot")


def make(name: str, workdir: Path) -> Workload:
    if name == "campaign":
        return Campaign()
    if name == "dense_spectrum":
        return DenseSpectrum()
    if name == "poly_roots":
        return PolyRoots()
    if name == "cli_oneshot":
        return CliOneshot(workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.json"


def load_reference(wl: Workload) -> dict[str, list[dict[str, str]]]:
    """Reference outputs by stratum and member; refuses a stale pool shape."""
    data = json.loads(reference_path(wl.name).read_text(encoding="utf-8"))
    strata = data["strata"]
    if tuple(strata) != wl.strata or any(len(v) != wl.members for v in strata.values()):
        raise ValueError(f"reference for {wl.name} does not match its input pool")
    return strata
