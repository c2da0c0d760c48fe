"""kdc benchmark: cold-process workloads with end-to-end and per-layer metrics.

    python3 bench/run.py --workload ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each repeat runs in a fresh interpreter (bench/child.py), one at a time,
with ``KUMMER_THREADS`` removed from its environment and a fixed
``PYTHONHASHSEED``.  Repeats start while the next one is expected to end
within ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics over the repeats, with the
set-up and wall times scaled to a reference host speed by the speed probe
in child.py;
``--trace 1`` alternates plain and traced repeats and reports the
per-layer metrics.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any output check failed.  Every run also writes a result file with
the raw repeats and the environment under bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("battery", "ladder", "roundtrip", "queries")

# A run never starts a repeat after this many seconds, whatever --seconds
# says, so it stays well inside a three-minute limit.
HARD_LIMIT_S = 120.0
# set-up time is a median over at least this many interpreter starts
MIN_SETUPS = 7
# a plain run leaves this many seconds for set-up-only starts, so that a
# cheap set-up, which the host's load sways most, gets a median over many
SETUP_RESERVE_S = 3.0

# name, unit; all are better lower.  Every workload reports all of them,
# so a figure that exists on one workload only (the ladder rungs, the query
# latency percentiles) is printed and stored in the result file instead.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


median = statistics.median


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run


def _calls(traced, name):
    return traced[0]["trace"]["spans"].get(name, {}).get("calls", 0)


def _self_s(traced, name):
    return median([r["trace"]["spans"].get(name, {}).get("self_s", 0.0) for r in traced])


def _self_share(traced, name):
    """Self time of ``name`` as a share of the traced interval."""
    return median([r["trace"]["spans"].get(name, {}).get("self_s", 0.0) / r["trace"]["traced_s"]
                   for r in traced])


def _count(traced, key):
    return traced[0]["trace"]["counts"].get(key, 0)


def _ratio(num, den):
    return num / den if den else 0.0


def _criterion_s(plain, label):
    return median([sum(sec for lab, sec, _parts in r["ops"] if lab == label) for r in plain])


# Self time is reported in seconds (self_s) only for layers that all four
# workloads call; a layer that some workload never calls would read exactly
# 0 s on every run there.  Those layers report self_share instead: self
# time over the traced interval, a ratio that is legitimately 0 where the
# layer is not used.
SPAN_FIELDS = {"calls": ("count", _calls), "self_s": ("s", _self_s),
               "self_share": ("ratio", _self_share)}

# (span, fields, the end-to-end metrics and workloads it should move)
LAYERS = (
    ("strata.Stratum", ("calls", "self_s"),
     "wall_s on ladder and queries; setup_s on roundtrip"),
    ("strata.chart_of", ("calls", "self_s"),
     "wall_s on ladder and battery; setup_s on roundtrip"),
    ("strata.face_items", ("calls", "self_s"),
     "wall_s on ladder and queries; setup_s on roundtrip"),
    ("dualcomplex.build", ("self_share",), "wall_s on ladder; setup_s on roundtrip"),
    ("linechart.validate", ("calls", "self_s"), "wall_s on battery and ladder"),
    ("linechart.valid_neutral_levels", ("calls", "self_s"), "wall_s on battery and ladder"),
    ("strata.valid_levels", ("self_s",), "wall_s on battery and ladder"),
    ("strata.iter_strata", ("self_s",), "wall_s on battery and ladder"),
    ("strata.specializations", ("self_share",), "wall_s and the op latency on queries"),
    ("strata.find_admissible_r", ("self_share",), "wall_s on queries"),
    ("strata.r_exists", ("self_share",), "wall_s on queries, a little on battery"),
    ("linechart.subcharts", ("self_share",), "wall_s on queries"),
    ("cli.main", ("self_share",), "wall_s on queries"),
    ("polytope.iso", ("self_share",), "wall_s on battery"),
    ("polytope.slice_lattice", ("self_share",), "wall_s on battery"),
    ("linechart.enumerate_complete_admissible", ("self_share",), "wall_s on battery"),
    ("counting.n3_counts", ("self_share",), "wall_s on battery"),
    ("dualcomplex.verify_disk", ("self_share",), "wall_s on roundtrip, a little on battery"),
    ("dualcomplex.local_chart", ("self_share",), "wall_s on roundtrip, a little on battery"),
    ("dualcomplex.has_automorphism", ("self_share",), "wall_s on roundtrip"),
    ("dualcomplex.parse_complex", ("self_share",), "wall_s on roundtrip"),
    ("dualcomplex.export.json", ("self_share",), "wall_s on roundtrip and ladder"),
    ("dualcomplex.export.dot", ("self_share",), "wall_s on roundtrip"),
    ("dualcomplex.export.off", ("self_share",), "wall_s on roundtrip"),
    ("dualcomplex.export.tikz", ("self_share",), "wall_s on roundtrip"),
)

# (name, unit, better, moves, how) for figures that are not a span field
DERIVED = (
    ("strata.chart_of.per_stratum", "calls/stratum", "lower",
     "wall_s on ladder and battery",
     lambda traced, plain: _ratio(_calls(traced, "strata.chart_of"),
                                  _count(traced, "strata.iter_strata.yielded"))),
    ("strata.face_items.items", "count", "lower",
     "wall_s on ladder and queries",
     lambda traced, plain: _count(traced, "strata.face_items.items")),
    ("strata.iter_strata.yielded", "count", "lower", "wall_s on battery and ladder",
     lambda traced, plain: _count(traced, "strata.iter_strata.yielded")),
    ("dualcomplex.build.covers", "count", "lower", "none: fixed by (n, N)",
     lambda traced, plain: _count(traced, "dualcomplex.build.covers")),
    ("dualcomplex.build.kept_ratio", "ratio", "higher", "wall_s on ladder",
     lambda traced, plain: _ratio(_count(traced, "dualcomplex.build.covers"),
                                  _count(traced, "dualcomplex.build.items_examined"))),
    # share of each gated criterion's wall-clock budget, from the plain repeats
    ("verify.c01.budget_used", "ratio", "lower", "wall_s on battery",
     lambda traced, plain: _criterion_s(plain, "c01") / 0.001),
    ("verify.c02.budget_used", "ratio", "lower", "wall_s on battery",
     lambda traced, plain: _criterion_s(plain, "c02") / 1.0),
    ("verify.c03.budget_used", "ratio", "lower", "wall_s on battery",
     lambda traced, plain: _criterion_s(plain, "c03") / 10.0),
    ("tracing_overhead_ratio", "ratio", "lower", "none: the cost of tracing itself",
     lambda traced, plain: _ratio(
         median([r["wall_raw_s"] for r in traced]),
         median([r["wall_raw_s"] - r["wall_probe"]["probe_s"] for r in plain]))),
)


def _layer_table():
    rows = []
    for span, fields, moves in LAYERS:
        for field in fields:
            unit, fn = SPAN_FIELDS[field]
            rows.append(("%s.%s" % (span, field), unit, "lower", moves,
                         lambda traced, plain, fn=fn, span=span: fn(traced, span)))
    return tuple(rows) + DERIVED


# name, unit, better, the end-to-end metrics and workloads it should move, how
PER_LAYER = _layer_table()


def per_layer(traced: list, plain: list) -> dict:
    """Per-layer figures: counts from the first traced repeat, times as medians."""
    return {name: (how(traced, plain), unit) for name, unit, _b, _m, how in PER_LAYER}


# ---------------------------------------------------------------------------
# repeats


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "KUMMER_THREADS"}
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_child(workload: str, seed: int, size: str, trace: bool, setup_only: bool,
              timeout: float) -> dict:
    launched = time.monotonic()
    cfg = {"workload": workload, "seed": seed, "size": size, "trace": trace,
           "setup_only": setup_only, "launched": launched}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(cfg)],
        cwd=str(ROOT), env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError("%s repeat exited %d:\n%s" % (workload, proc.returncode, proc.stderr))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["elapsed_s"] = time.monotonic() - launched
    return rep


def repeats(workload: str, seed: int, seconds: float, size: str, trace: bool):
    """Run repeats, then set-up-only starts, until the next would end after ``seconds``.

    Every repeat takes the same inputs, those of the seed.  Without
    tracing every repeat is plain, and the repeats stop SETUP_RESERVE_S
    early to leave time for set-up-only starts; at least MIN_SETUPS set-ups
    are taken.  With tracing, plain and traced repeats alternate, starting
    plain, at least one of each runs, and no set-up-only start runs.
    """
    start = time.monotonic()
    reserve = 0.0 if trace else SETUP_RESERVE_S
    plain: list = []
    traced: list = []
    while True:
        want_traced = trace and len(traced) < len(plain)
        elapsed = time.monotonic() - start
        rep = run_child(workload, seed, size, want_traced, False,
                        timeout=max(10.0, HARD_LIMIT_S + 50.0 - elapsed))
        (traced if want_traced else plain).append(rep)
        elapsed = time.monotonic() - start
        if trace and not traced:
            continue
        nxt = traced if trace and len(traced) < len(plain) else plain
        predicted = max(r["elapsed_s"] for r in nxt)
        if elapsed + predicted > seconds - reserve or elapsed > HARD_LIMIT_S:
            break
    setups = [r["setup_s"] for r in plain]
    predicted = max(r["setup_raw_s"] for r in plain)
    while not trace and time.monotonic() - start < HARD_LIMIT_S:
        if len(setups) >= MIN_SETUPS and time.monotonic() - start + predicted > seconds:
            break
        rep = run_child(workload, seed, size, False, True, timeout=60.0)
        setups.append(rep["setup_s"])
        predicted = rep["elapsed_s"]
    return plain, traced, setups


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(plain: list, setups: list) -> dict:
    """Medians over the repeats (and set-up-only starts) of each figure.

    The times are scaled to the reference host speed by the speed probe
    (see child.py); the raw times are in the result file.
    """
    figures = {
        "setup_s": median(setups),
        "wall_s": median([r["wall_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    return {name: (figures[name], unit) for name, unit in END_TO_END}


def op_latency(plain: list) -> dict:
    """Latency of one op: each percentile within a repeat, then the median.

    Only ``queries`` has enough ops per repeat (100) for ten samples beyond
    the 90th percentile; on the other workloads it ranks a few fixed ops.
    """
    per_rep = [[sec * 1000.0 for _label, sec, _parts in rep["ops"]] for rep in plain]
    return {
        "ops_per_repeat": len(per_rep[0]),
        "op_p50_ms": median([quantile(ms, 50) for ms in per_rep]),
        "op_p90_ms": median([quantile(ms, 90) for ms in per_rep]),
    }


def op_medians(plain: list) -> dict:
    """Median seconds of each labelled op, and of each of its parts."""
    by_label: dict = {}
    for rep in plain:
        for label, sec, parts in rep["ops"]:
            by_label.setdefault(label, []).append(sec)
            for part, psec in parts.items():
                by_label.setdefault("%s.%s" % (label, part), []).append(psec)
    return {label: median(v) for label, v in by_label.items()}


# ---------------------------------------------------------------------------
# environment and results


def git_revision():
    """HEAD of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "src_lines": src_lines(),
    }


def run_workload(workload: str, seed: int, seconds: float, size: str, trace: bool) -> dict:
    plain, traced, setups = repeats(workload, seed, seconds, size, trace)
    failures = [f for rep in plain + traced for f in rep["failures"]]
    attempted = sum(len(rep["ops"]) for rep in plain + traced)
    if trace:
        metrics = per_layer(traced, plain)
        counts = [rep["trace"]["counts"] for rep in traced]
        calls = [{k: v["calls"] for k, v in rep["trace"]["spans"].items()} for rep in traced]
        if any(c != counts[0] for c in counts) or any(c != calls[0] for c in calls):
            failures.append("traced repeats disagree on call counts")
            attempted += 1
    else:
        metrics = end_to_end(plain, setups)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "trace": int(trace),
        "repeats": {"plain": len(plain), "traced": len(traced), "setups": len(setups)},
        "environment": environment(),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "ops_failed_ratio": len(failures) / attempted,
        "failures": failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "op_latency": op_latency(plain),
        "op_medians_s": op_medians(plain),
        "setups_s": setups,
        "plain": plain,
        "traced": traced,
    }


def write_result(result: dict) -> Path:
    out = BENCH / "results"
    out.mkdir(exist_ok=True)
    path = out / ("%s-seed%d-trace%d.json" % (result["workload"], result["seed"], result["trace"]))
    with open(path, "w", encoding="ascii") as handle:
        json.dump(result, handle, indent=1)
        handle.write("\n")
    return path


def summary_lines(result: dict) -> list:
    lines = ["%s seed=%d trace=%d repeats=%s"
             % (result["workload"], result["seed"], result["trace"], result["repeats"])]
    for name, m in result["metrics"].items():
        lines.append("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))
    lines.append("  %-40s %14.6g (%d of %d ops)" % (
        "ops_failed_ratio", result["ops_failed_ratio"], result["failed"], result["attempted"]))
    for name, value in result["op_latency"].items():
        lines.append("  %-40s %14.6g%s" % (name, value, " ms" if name.endswith("_ms") else ""))
    if not result["trace"] and len(result["op_medians_s"]) <= 40:
        for label, sec in result["op_medians_s"].items():
            lines.append("  op %-37s %14.6g s" % (label, sec))
    for failure in result["failures"]:
        lines.append("  FAILED %s" % failure)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload to a few seconds")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kdc" / "__init__.py").is_file():
        print("error: no kdc sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    compileall.compile_dir(str(ROOT / "src"), quiet=2)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.size, bool(args.trace))
        path = write_result(result)
        print("\n".join(summary_lines(result)))
        print("  result file: %s" % path.relative_to(ROOT))
        results.append(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v
                   for r in results for k, v in r["metrics"].items()}
    final = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
