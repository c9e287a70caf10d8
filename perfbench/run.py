"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else. One caller, no threads, closed loop: each
operation starts when the previous one has returned, and the command-line
workload runs its subprocesses one at a time.

``--trace 0`` runs whole rounds of operations until ``--seconds`` have
passed and reports the end-to-end metrics. Operation and set-up times are
corrected for the host's speed drift by ``clock`` (each timing scaled by a
calibration loop run next to it); raw wall times are printed alongside.

``--trace 1`` runs a fixed number of rounds twice, untraced and then
traced, and reports the per-layer metrics; its work does not depend on
``--seconds``, so its counts repeat exactly for a seed. Every output is checked against the
references recorded from the seed commit; an exception, a wrong value or
a wrong exit code counts as a failed operation.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import clock
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)


@dataclass
class Op:
    stratum: str
    member: int
    seconds: float
    items: int
    parts: dict[str, str] | None = None
    error: str | None = None
    phases: dict[str, float] = field(default_factory=dict)
    calibration_s: float = clock.REFERENCE_S

    @property
    def scaled_s(self) -> float:
        return clock.scaled(self.seconds, self.calibration_s)


def run_op(wl, st, refs, stratum, member, inp, tracer=None) -> Op:
    start = time.perf_counter()
    try:
        raw = wl.call(st, inp, tracer)
        seconds = time.perf_counter() - start
        parts = wl.canon(raw)
    except Exception as exc:  # any failure of the program is a failed operation
        return Op(stratum, member, time.perf_counter() - start, 0,
                  error=f"{type(exc).__name__}: {exc}")
    expected = refs[stratum][member]
    error = None if parts == expected else f"output {parts} differs from reference {expected}"
    return Op(stratum, member, seconds, wl.items(inp), parts, error, wl.phases(raw))


def run_round(wl, st, refs, schedule, r, tracer=None) -> list[Op]:
    """Prepare round ``r``'s inputs untraced, then run its operations, each
    with the calibrations taken before, during and after it."""
    entries = wl.round_entries(schedule, r)
    inputs = wl.round_inputs(st, schedule, r)
    in_process_trace = tracer is not None and wl.in_process
    if in_process_trace:
        tracer.install()
    try:
        ops = []
        with clock.Sampler() as speed:
            speed.sample()
            for (s, m), inp in zip(entries, inputs):
                first = len(speed.samples) - 1
                op = run_op(wl, st, refs, s, m, inp, tracer)
                speed.sample()
                op.calibration_s = statistics.fmean(speed.samples[first:])
                ops.append(op)
        return ops
    finally:
        if in_process_trace:
            tracer.restore()


def timed_rounds(wl, st, refs, schedule, seconds) -> tuple[list[Op], int]:
    """Whole rounds until ``seconds`` have passed (at least one)."""
    ops: list[Op] = []
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        ops += run_round(wl, st, refs, schedule, r)
        r += 1
        if time.perf_counter() >= deadline:
            return ops, r


def setup_seconds(name, seed, workdir) -> list[tuple[float, float]]:
    """(seconds, calibration seconds) of set-ups in fresh interpreters:
    package import plus first-round inputs."""
    samples = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup-{i}"
        probe_dir.mkdir()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, calibration_s = proc.stdout.split()
        samples.append((float(seconds), float(calibration_s)))
    return samples


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def distribution(values: list[float]) -> str:
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"p50 {statistics.median(ordered):.6g}"
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100) >= 10:
            text += f"  p{p:g} {ordered[math.ceil(p / 100 * n) - 1]:.6g}"
            break
    return text + f"  n={n}"


def report_failures(ops: list[Op]) -> int:
    failed = [op for op in ops if op.error is not None]
    for op in failed[:5]:
        print(f"FAILED {op.stratum}[{op.member}]: {op.error}", file=sys.stderr)
    return len(failed)


def end_to_end(wl, st, refs, seed, seconds, workdir) -> dict:
    setup = setup_seconds(wl.name, seed, workdir)
    schedule = wl.schedule(seed)
    ops, rounds = timed_rounds(wl, st, refs, schedule, seconds)
    failed = report_failures(ops)
    done = [op for op in ops if op.error is None] or ops
    scaled = [op.scaled_s for op in done]
    setup_scaled = [clock.scaled(s, c) for s, c in setup]
    metrics = {
        "op_ms": statistics.median(scaled) * 1000,
        "items_per_s": sum(op.items for op in done) / sum(scaled),
        "peak_rss_mb": peak_rss_mb(wl),
        "setup_s": statistics.median(setup_scaled),
    }
    units = {"op_ms": "ms", "items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}

    print(f"workload {wl.name}  seed {seed}  rounds {rounds}  operations {len(ops)}")
    print("  times scaled to reference machine speed; raw wall times in brackets")
    print(f"  setup_s        {distribution(setup_scaled)}  (s, import + first-round inputs)"
          f"  [{distribution([s for s, _ in setup])}]")
    print(f"  op_ms          {distribution([t * 1000 for t in scaled])}  (ms per {wl.op_label})"
          f"  [{distribution([op.seconds * 1000 for op in done])}]")
    for phase in sorted({p for op in done for p in op.phases}):
        phase_s = [clock.scaled(op.phases[phase], op.calibration_s) for op in done]
        print(f"  {phase:<14} {distribution(phase_s)}  (s per matrix)")
    print(f"  {wl.rate_label:<14} {metrics['items_per_s']:.6g}  (1/s)")
    print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.6g}  (MB)")
    print(f"  failed_ratio   {failed}/{len(ops)} = {failed / len(ops):.6g}")
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def per_layer(wl, st, refs, seed) -> dict:
    schedule = wl.schedule(seed)
    plain = [op for r in range(wl.trace_rounds) for op in run_round(wl, st, refs, schedule, r)]
    tracer = tracing.Tracer()
    traced = [
        op for r in range(wl.trace_rounds)
        for op in run_round(wl, st, refs, schedule, r, tracer)
    ]
    failed = report_failures(plain) + report_failures(traced)
    for a, b in zip(plain, traced):
        if a.error is None and b.error is None and a.parts != b.parts:
            failed += 1
            print(f"FAILED {a.stratum}[{a.member}]: traced output differs", file=sys.stderr)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.write(spans_path)

    values = tracer.summary()
    values["trace.overhead_ratio"] = (
        sum(op.scaled_s for op in traced) / sum(op.scaled_s for op in plain)
    )
    print(f"workload {wl.name}  seed {seed}  traced rounds {wl.trace_rounds}"
          f"  operations {len(traced)}  spans {len(tracer.spans)} -> {spans_path.name}")
    for name, value in values.items():
        note = "  (computed from inputs)" if name in tracing.COMPUTED else ""
        print(f"  {name:<36} {value:.6g} {tracing.unit(name)}{note}")
    print(f"  failed_ratio {failed}/{2 * len(plain)} = {failed / (2 * len(plain)):.6g}")
    return {
        "correct": failed == 0,
        "attempted": 2 * len(plain),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": tracing.unit(k)} for k, v in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "supertropical" / "__init__.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import supertropical as st

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        wl = workloads.make(args.workload, Path(tmp))
        refs = workloads.load_reference(wl)
        if args.trace:
            result = per_layer(wl, st, refs, args.seed)
        else:
            result = end_to_end(wl, st, refs, args.seed, args.seconds, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
