"""Self-tests of the benchmark: python -m pytest perfbench

Small smoke runs of every workload against the recorded references, seed
determinism, the tracer's install/restore, exact repetition of the work
counts, and a one-off cross-check of the dense_spectrum references against
the package's brute-force oracles.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import supertropical as st  # noqa: E402
from supertropical import oracle  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Strata small enough for a smoke run; the 8x8 dense strata take seconds each.
SMOKE_STRATA = {
    "campaign": ("campaign",),
    "dense_spectrum": ("tight7", "wide7"),
    "poly_roots": workloads.PolyRoots.strata[::8],
    "cli_oneshot": workloads.CliOneshot.strata,
}


@pytest.fixture
def make(tmp_path):
    return lambda name: workloads.make(name, tmp_path)


def run_strata(wl, seed, strata, tracer=None):
    refs = workloads.load_reference(wl)
    schedule = wl.schedule(seed)
    ops = []
    for stratum, member in wl.round_entries(schedule, 0):
        if stratum in strata:
            inp = wl.prepare(st, stratum, member)
            ops.append(run.run_op(wl, st, refs, stratum, member, inp, tracer))
    return ops


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_matches_references(make, name):
    ops = run_strata(make(name), 3, SMOKE_STRATA[name])
    assert ops
    assert [op.error for op in ops] == [None] * len(ops)


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == tracing.per_layer_names()
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == tracing.unit(m["name"])


def test_end_to_end_command_prints_every_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "campaign",
         "--seed", "5", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_inputs(make, name):
    wl = make(name)
    first, again, other = wl.schedule(1), wl.schedule(1), wl.schedule(2)
    rounds = range(3)
    assert [wl.round_entries(first, r) for r in rounds] == [
        wl.round_entries(again, r) for r in rounds
    ]
    assert [wl.round_entries(first, r) for r in rounds] != [
        wl.round_entries(other, r) for r in rounds
    ]
    stratum, member = wl.round_entries(first, 0)[0]
    assert wl.prepare(st, stratum, member) == wl.prepare(st, stratum, member)


def _namespace_snapshot():
    modules = {n: m for n, m in sys.modules.items() if n.startswith("supertropical")}
    snap = {(n, k): v for n, m in modules.items() for k, v in vars(m).items()}
    for cls in (st.Scalar, st.Polynomial):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return snap


def test_tracer_restores_every_namespace():
    import supertropical.cli  # noqa: F401  (so its imported names are patched too)

    before = _namespace_snapshot()
    originals = (st.spectral.char_poly, st.fuzz.check_charpoly_power, st.Scalar.__add__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert st.spectral.char_poly is not originals[0]
        assert st.fuzz.check_charpoly_power is not originals[1]
        assert st.cli.check_charpoly_power is st.fuzz.check_charpoly_power
        assert st.Scalar.__add__ is not originals[2]
        assert st.det is st.matrix.det is st.spectral.det
    finally:
        tracer.restore()
    after = _namespace_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_summary(wl, rounds):
    refs = workloads.load_reference(wl)
    tracer = tracing.Tracer()
    schedule = wl.schedule(7)
    plain = [op for r in range(rounds) for op in run.run_round(wl, st, refs, schedule, r)]
    traced = [
        op for r in range(rounds) for op in run.run_round(wl, st, refs, schedule, r, tracer)
    ]
    assert [op.error for op in plain + traced] == [None] * (2 * len(plain))
    assert [op.parts for op in traced] == [op.parts for op in plain]
    return tracer.summary()


@pytest.mark.parametrize("name", ["campaign", "poly_roots", "cli_oneshot"])
def test_traced_counts_repeat_exactly(make, name):
    wl = make(name)
    first, second = _traced_summary(wl, 1), _traced_summary(wl, 1)
    counts = [k for k in first if tracing.unit(k) in ("count", "bytes")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert list(first) == tracing.per_layer_names()
    if name == "campaign":
        assert first["fuzz.trials"] == wl.trials
        assert first["matrix.char_poly.calls"] > 0 and first["spectral.verdicts.pass"] > 0
    if name == "poly_roots":
        assert first["polynomial.support_points"] > 0 and first["matrix.det.calls"] == 0
    if name == "cli_oneshot":
        assert first["cli.import_s"] > 0 and first["cli.main.self_s"] > 0
        assert first["oracle.census_power_tracks.calls"] == 3


def test_det_tracks_are_computed_from_the_inputs():
    a = st.parse_matrix(workloads.matrix_text(random.Random(0), 4, "tight"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        st.char_poly(a)
    finally:
        tracer.restore()
    summary = tracer.summary()
    # One permanent per nonempty principal minor: sum over k of C(4, k) * k!.
    assert summary["matrix.det.tracks_enumerated"] == sum(
        math.comb(4, k) * math.factorial(k) for k in range(1, 5)
    )
    assert summary["matrix.char_poly.minors"] == 15
    assert summary["matrix.det.calls"] == 15


def test_dense_references_agree_with_the_oracles(make):
    wl = make("dense_spectrum")
    refs = workloads.load_reference(wl)
    for stratum in wl.strata:
        for member, ref in enumerate(refs[stratum]):
            poly = st.parse_polynomial(ref["char_poly"])
            assert str(poly) == ref["char_poly"]
            # The constant coefficient is the determinant of the whole matrix.
            assert ref["det"].split()[0] == str(poly.coeffs[0])
            roots = st.roots(poly)
            assert json.loads(ref["eigen"]) == {
                "eigenvalues": [
                    {"value": str(v), "multiplicity": m} for v, m in roots.corner_roots
                ],
                "ghost_region": [iv.to_json_dict() for iv in roots.ghost_intervals],
            }
            if stratum.endswith("7"):
                direct = oracle.sym_direct_charpoly(wl.prepare(st, stratum, member))
                assert str(direct) == ref["char_poly"]
                assert oracle.sampled_equiv(poly, direct, seed=member).holds
