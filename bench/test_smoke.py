"""Smoke test of the benchmark harness at tiny sizes; runs in seconds.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs through the same parent/child path as a real run, with
``--size smoke`` (the (3,2) rung, a narrowed battery, small complexes and a
few queries).  It checks the output contract, not the figures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
import child  # noqa: E402
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path("bench") / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    return last


def test_spec_matches_harness_tables():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in run.PER_LAYER
    ]
    assert tuple(WORKLOADS) == run.WORKLOADS


def test_probe_window_scales_to_the_reference_speed():
    probe = child.SpeedProbe()
    # a window of 1 s of work plus its probes, run at half the reference speed
    probe.samples = [2 * child.PROBE_REF_S] * child.MIN_PROBES
    probe_s = sum(probe.samples)
    window = probe.window(1.0 + probe_s)
    assert window["probes"] == child.MIN_PROBES
    assert window["slowdown"] == pytest.approx(2.0)
    assert window["scaled_s"] == pytest.approx(0.5)
    assert probe.samples == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_plain_run_reports_every_end_to_end_metric(workload):
    metrics = smoke(workload, 0)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    metrics = smoke(workload, 1)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] >= 0
    # the layers every workload calls have a measured self time
    assert metrics["strata.chart_of.self_s"]["value"] > 0


def test_traced_counts_repeat_and_a_second_seed_agrees():
    first = smoke("queries", 1, seed=5)["metrics"]
    again = smoke("queries", 1, seed=5)["metrics"]
    other = smoke("queries", 1, seed=6)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first[k]["value"] for k in counts} == {k: again[k]["value"] for k in counts}
    assert list(other) == list(first)


def test_fails_without_the_program():
    """A directory holding only BENCHMARK.json and bench/ must not yield a result."""
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    shutil.copy(BENCH / "golden.json", bare / "bench")
    try:
        proc = bench("--workload", "ladder", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
