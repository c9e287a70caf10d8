"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each layer in every
``supertropical`` namespace that holds them (the defining module and every
module that imported the name), plus the scalar and polynomial operators.
Layer functions record spans (id, parent id, name, start, end) in memory;
the scalar operators and a few leaf functions only count calls, because a
span per scalar operation would cost more memory than the work it traces.
`Tracer.restore` puts every original back.

Counts marked "computed from inputs" are derived from call arguments
(n! tracks per determinant, 2^n - 1 minors per characteristic polynomial,
support points per envelope), not measured inside the package, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# Metric prefix -> (defining module, attribute). Each records spans.
SPANNED = {
    "matrix.det": ("supertropical.matrix", "det"),
    "matrix.char_poly": ("supertropical.matrix", "char_poly"),
    "matrix.mat_pow": ("supertropical.matrix", "mat_pow"),
    "polynomial.parse": ("supertropical.polynomial", "parse_polynomial"),
    "polynomial.roots": ("supertropical.polynomial", "roots"),
    "polynomial.essential": ("supertropical.polynomial", "essential"),
    "spectral.thm13": ("supertropical.spectral", "check_det_rule"),
    "spectral.thm36": ("supertropical.spectral", "check_charpoly_power"),
    "spectral.cor37": ("supertropical.spectral", "check_tangible_equality"),
    "spectral.cor38": ("supertropical.spectral", "check_corner_root_power"),
    "spectral.trace": ("supertropical.spectral", "check_trace_power"),
    "spectral.eigenvalues": ("supertropical.spectral", "eigenvalues"),
    "fuzz.run_campaign": ("supertropical.fuzz", "run_campaign"),
    "fuzz.random_matrix": ("supertropical.fuzz", "random_matrix"),
    "oracle.sym_direct_charpoly": ("supertropical.oracle", "sym_direct_charpoly"),
    "oracle.census_power_tracks": ("supertropical.oracle", "census_power_tracks"),
    "cli.main": ("supertropical.cli", "main"),
}

# Functions whose calls are counted without a span.
COUNTED = {
    "matrix.mat_mul": ("supertropical.matrix", "mat_mul"),
    "scalar.parse": ("supertropical.scalar", "parse_scalar"),
}

# Operator methods: metric prefix -> (module, class, method, spanned).
METHODS = {
    "scalar.add": ("supertropical.scalar", "Scalar", "__add__", False),
    "scalar.mul": ("supertropical.scalar", "Scalar", "__mul__", False),
    "scalar.pow": ("supertropical.scalar", "Scalar", "__pow__", False),
    "polynomial.mul": ("supertropical.polynomial", "Polynomial", "__mul__", True),
}

SPECTRAL_CHECKS = ("thm13", "thm36", "cor37", "cor38", "trace")


def _support_size(poly) -> int:
    return sum(1 for c in poly.coeffs if not c.is_zero)


def _det_counts(counts, args, report) -> None:
    counts["matrix.det.tracks_enumerated"] += math.factorial(args[0].n)
    counts["matrix.det.dominant_tracks"] += len(report.dominant_tracks)


def _char_poly_counts(counts, args, _poly) -> None:
    counts["matrix.char_poly.minors"] += 2 ** args[0].n - 1


def _envelope_counts(counts, args, _result) -> None:
    counts["polynomial.support_points"] += _support_size(args[0])


def _campaign_counts(counts, args, _result) -> None:
    counts["fuzz.trials"] += args[0].trials


def _verdict_counts(counts, _args, verdict) -> None:
    outcome = "na" if verdict.holds is None else ("pass" if verdict.holds else "fail")
    counts[f"spectral.verdicts.{outcome}"] += 1


# Work counts derived from arguments and results, by span prefix.
_EXTRA = {
    "matrix.det": _det_counts,
    "matrix.char_poly": _char_poly_counts,
    "polynomial.roots": _envelope_counts,
    "polynomial.essential": _envelope_counts,
    "fuzz.run_campaign": _campaign_counts,
    **{f"spectral.{check}": _verdict_counts for check in SPECTRAL_CHECKS},
}


# Counts computed from the inputs rather than observed inside the package.
COMPUTED = frozenset(
    {"matrix.det.tracks_enumerated", "matrix.char_poly.minors", "polynomial.support_points"}
)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.stdout_bytes":
        return "bytes"
    if name == "trace.overhead_ratio":
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for prefix in SPANNED:
        names += [f"{prefix}.calls", f"{prefix}.self_s"]
    names += [f"{prefix}.calls" for prefix in COUNTED]
    for prefix, (_m, _c, _a, spanned) in METHODS.items():
        names.append(f"{prefix}.calls")
        if spanned:
            names.append(f"{prefix}.self_s")
    names += [
        "matrix.det.tracks_enumerated",
        "matrix.det.dominant_tracks",
        "matrix.char_poly.minors",
        "polynomial.support_points",
        "spectral.verdicts.pass",
        "spectral.verdicts.fail",
        "spectral.verdicts.na",
        "fuzz.trials",
        "cli.import_s",
        "cli.stdout_bytes",
        "trace.overhead_ratio",
    ]
    return names


class Tracer:
    """Spans and counts for one process; install, run, restore, summarise."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def _spanned(self, prefix, fn):
        extra = _EXTRA.get(prefix)
        counts, spans, stack = self.counts, self.spans, self._stack
        calls = f"{prefix}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, prefix, start, end))
                counts[calls] += 1
            if extra is not None:
                extra(counts, args, result)
            return result

        return wrapper

    def _counted(self, prefix, fn):
        counts = self.counts
        calls = f"{prefix}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function in every loaded package namespace."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "supertropical" or name.startswith("supertropical."))
        ]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for prefix, (module_name, attr) in table.items():
                if module_name not in sys.modules:
                    continue
                original = getattr(sys.modules[module_name], attr)
                wrapper = make(prefix, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
        for prefix, (module_name, cls_name, method, spanned) in METHODS.items():
            cls = getattr(sys.modules[module_name], cls_name)
            make = self._spanned if spanned else self._counted
            self._patch(cls, method, make(prefix, vars(cls)[method]))

    def restore(self) -> None:
        """Put back every original, in reverse order of patching."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def merge(self, spans, counts) -> None:
        """Add spans and counts recorded by another process (ids re-based)."""
        base = self._next_id
        for sid, parent, name, start, end in spans:
            self.spans.append(
                (sid + base, parent + base if parent >= 0 else -1, name, start, end)
            )
        self._next_id += 1 + max((s[0] for s in spans), default=-1)
        for name, value in counts.items():
            self.counts[name] += value

    def summary(self) -> dict[str, float]:
        """Calls, self time per spanned layer and every count, by metric name."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {name: 0 for name in per_layer_names()}
        for sid, _parent, name, start, end in self.spans:
            key = f"{name}.self_s"
            out[key] = out.get(key, 0.0) + (end - start) - child_time[sid]
        for name, value in self.counts.items():
            out[name] = value
        return {name: out[name] for name in per_layer_names()}

    def write(self, path) -> None:
        """Spans as [id, parent, name, start_s, end_s] rows, and the counts."""
        data = {"spans": [list(s) for s in self.spans], "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
