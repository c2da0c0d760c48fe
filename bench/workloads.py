"""The benchmark's four workloads.

Each workload has three steps, run in one fresh interpreter per repeat:

- ``setup(seed, size)`` makes the inputs of the seed (and any prebuilt
  objects) and returns them as a state dict; every repeat of a run gets
  the same inputs, so each op can be compared across repeats;
- ``measure(state)`` is the timed section.  It returns one ``Op`` per
  operation, each with its own latency and raw result;
- ``check(state, ops)`` compares the results with the recorded golden
  values or with an independent property and returns one message per
  failed op.  ``state["traced"]`` tells it whether the tracer was on.

The kdc functions are always reached through their module
(``dc.build(...)``), never bound by name at import, so a tracer installed
before ``setup`` sees every call.

Why these four (later benchmark work refers to them by name):

- ``battery``: ``verify.run_suite("all")`` at default ranges, the
  headline ``kdc verify`` number.  Mostly strata enumeration with
  ``valid_levels``/``chart_of`` (criterion 3), then the oracles, polytope
  isomorphism and small n = 3 builds; no incidence assembly at n >= 4.
- ``ladder``: cold ``build(n, N)`` plus JSON export at (3,16), (4,4) and
  (5,2), the write path: face items, ``Stratum`` construction and
  ``chart_of`` inside incidence assembly.
- ``roundtrip``: n = 3 complexes built during set-up, then the read and
  check path: disk verification, local charts, the four exports (off and
  tikz include the layout iteration), ``parse_complex`` with its
  re-validation of every stratum, and automorphism search.
- ``queries``: seeded per-stratum queries (faces, smoothing, the
  specialization scan, both admissibility oracles) and ``kdc chart`` on
  seeded literals.  None of this runs in the other workloads.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import time
from pathlib import Path

from kdc import cli
from kdc import dualcomplex as dc
from kdc import strata as st
from kdc import verify

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# (n, N, cell dimension, queries) per repeat.  The cost of a query is set
# mostly by (n, N) and the dimension of its stratum, so the mix is fixed and
# the seed only picks strata within each class.  The classes form five bands
# of 20 queries, cheapest first: top cells, whose specializations are empty;
# (3,4) vertices and edges; (5,1) 3-cells; (4,2) and (5,1) edges; (5,1)
# 2-cells.  The 50th and 90th percentiles fall in the middle of the third
# and fifth band, each a single class, not on a step between two classes,
# so they do not jump with the draw.
QUERY_MIX = (
    (3, 4, 2, 10), (4, 2, 3, 5), (5, 1, 4, 5),
    (3, 4, 1, 10), (3, 4, 0, 10),
    (5, 1, 3, 20),
    (4, 2, 1, 10), (5, 1, 1, 10),
    (5, 1, 2, 20),
)

SIZES = {
    "full": {
        "battery": {"max_n": None, "max_N": None},
        "ladder": {"rungs": ((3, 16), (4, 4), (5, 2))},
        "roundtrip": {"Ns": (8, 12, 16)},
        "queries": {"mix": QUERY_MIX},
    },
    "smoke": {
        "battery": {"max_n": 3, "max_N": 2},
        "ladder": {"rungs": ((3, 2),)},
        "roundtrip": {"Ns": (2, 3)},
        "queries": {"mix": ((3, 2, 0, 2), (3, 2, 1, 2), (3, 2, 2, 2))},
    },
}

# find_admissible_r(bound=...) scans every expansion up to this total;
# the test suite uses the same bound
ORACLE_BOUND = 12


class Op:
    """One timed operation; ``parts`` optionally splits its seconds by step."""

    __slots__ = ("label", "seconds", "result", "parts")

    def __init__(self, label: str, seconds: float, result) -> None:
        self.label = label
        self.seconds = seconds
        self.result = result
        self.parts: dict = {}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="ascii") as handle:
        return json.load(handle)


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def run_chart_cli(literal: str) -> tuple[int, bytes]:
    """``kdc chart <literal>`` in process; returns (exit code, stdout bytes)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["chart", literal])
    return code, out.getvalue().encode("ascii")


def _timed(ops: list, label: str, fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    ops.append(Op(label, time.perf_counter() - t0, result))
    return result


# ---------------------------------------------------------------------------
# battery


def battery_setup(seed: int, size: str) -> dict:
    return dict(SIZES[size]["battery"])


def battery_measure(state: dict) -> list:
    report, _ok = verify.run_suite("all", max_n=state["max_n"], max_N=state["max_N"])
    return [
        Op("c%02d" % entry["id"], entry["seconds"], (entry["status"], entry["detail"]))
        for entry in report["criteria"]
    ]


# the failure detail of c01, c02 and c03 when only their wall-clock budget failed
_OVER_BUDGET = re.compile(r"took [0-9.]+s, budget is [0-9]+m?s$")


def battery_check(state: dict, ops: list) -> list:
    """Each failed criterion is a failed op (the report then reads fail).

    In a traced repeat the wrappers slow every call, so a criterion that
    failed only its wall-clock budget is not counted there: the budget is a
    property of the uninstrumented program, and the plain repeats that every
    traced run also makes check it.
    """
    failures = []
    for op in ops:
        status, detail = op.result
        if status == "pass":
            continue
        if state["traced"] and _OVER_BUDGET.search(detail):
            continue
        failures.append("%s: %s" % (op.label, detail))
    return failures


# ---------------------------------------------------------------------------
# ladder


def ladder_setup(seed: int, size: str) -> dict:
    # the rungs are fixed sizes; the seed draws nothing here
    return {"rungs": SIZES[size]["ladder"]["rungs"], "golden": load_golden()["ladder"]}


def _build_and_export(n: int, N: int):
    cx = dc.build(n, N)
    return cx.f_vector(), dc.export(cx, "json")


def ladder_measure(state: dict) -> list:
    ops: list = []
    for n, N in state["rungs"]:
        _timed(ops, "build.%d_%d" % (n, N), _build_and_export, n, N)
    return ops


def ladder_check(state: dict, ops: list) -> list:
    failures = []
    for op in ops:
        want = state["golden"][op.label]
        f_vector, blob = op.result
        if list(f_vector) != want["f_vector"]:
            failures.append("%s: f-vector %s" % (op.label, f_vector))
        elif sha256(blob) != want["json_sha256"]:
            failures.append("%s: json export hash changed" % op.label)
    return failures


# ---------------------------------------------------------------------------
# roundtrip


def roundtrip_setup(seed: int, size: str) -> dict:
    Ns = SIZES[size]["roundtrip"]["Ns"]
    return {"complexes": {N: dc.build(3, N) for N in Ns}, "layout_seed": seed}


def _roundtrip(cx, layout_seed: int):
    """Every read-path step on one complex; returns (results, seconds) by step."""
    results: dict = {}
    seconds: dict = {}

    def step(name, fn, *args):
        t0 = time.perf_counter()
        results[name] = fn(*args)
        seconds[name] = time.perf_counter() - t0

    step("verify_disk", dc.verify_disk, cx)
    step("local_chart", lambda: [dc.local_chart(c.stratum) for c in dc.type4_vertices(cx)])
    step("export.json", dc.export, cx, "json")
    for fmt in ("dot", "off", "tikz"):
        step("export." + fmt, dc.export, cx, fmt, layout_seed)
    step("parse_complex", dc.parse_complex, results["export.json"])
    step("automorphism.2", dc.has_automorphism, cx, 2)
    step("automorphism.3", dc.has_automorphism, cx, 3)
    return results, seconds


def roundtrip_measure(state: dict) -> list:
    ops: list = []
    for N, cx in state["complexes"].items():
        op = _timed(ops, "N%d" % N, _roundtrip, cx, state["layout_seed"])
        ops[-1].parts = op[1]
    return ops


def roundtrip_check(state: dict, ops: list) -> list:
    """Exports and the order-2 search have no reference; they must finish."""
    failures = []
    for op, (N, cx) in zip(ops, state["complexes"].items()):
        res, _seconds = op.result
        centers = [cell.id for cell in dc.type4_vertices(cx)]
        checks = {
            "verify_disk": res["verify_disk"].ok,
            "local_chart": [star.center.id for star in res["local_chart"]] == centers,
            "parse_complex": res["parse_complex"] == cx,
            "automorphism.3": res["automorphism.3"] == (N % 3 == 0),
        }
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            failures.append("%s: %s failed" % (op.label, ", ".join(bad)))
    return failures


# ---------------------------------------------------------------------------
# queries


def queries_setup(seed: int, size: str) -> dict:
    """Draw the seed's queries; the same seed always draws the same ones."""
    spec = SIZES[size]["queries"]
    golden = load_golden()["chart"]
    rng = random.Random(seed)
    literals = sorted(golden)
    queries = []
    for n, N, dim, count in spec["mix"]:
        # enumeration fills the admissible cache that specializations scans,
        # so the timed queries measure lookups, not the first enumeration
        for s in rng.sample(st.enumerate_admissible(n, N)[dim], count):
            queries.append((s, rng.choice(literals)))
    rng.shuffle(queries)
    return {"queries": queries, "golden": golden}


def _query(s, literal: str):
    occ = st.occupancy(s)
    return {
        "faces": st.faces(s),
        "smooth": [st.smooth(s, j) for j in range(1, s.b + 2)] if s.b else [],
        "specializations": st.specializations(s),
        "r_exists": st.r_exists(occ),
        "witness": st.find_admissible_r(occ, bound=ORACLE_BOUND),
        "cli": run_chart_cli(literal),
    }


def queries_measure(state: dict) -> list:
    ops: list = []
    for i, (s, literal) in enumerate(state["queries"]):
        _timed(ops, "q%03d" % i, _query, s, literal)
    return ops


def queries_check(state: dict, ops: list) -> list:
    failures = []
    for op, (s, literal) in zip(ops, state["queries"]):
        res = op.result
        witness = res["witness"]
        problems = []
        if res["r_exists"] != (witness is not None):
            problems.append("oracles disagree")
        elif witness is not None:
            occ = st.occupancy(s)
            weight = st.W_plus(occ, witness) + st.W_minus(occ, witness)
            if weight % (2 * s.N * witness.rsum):
                problems.append("witness %s fails the weight identity" % (witness.r,))
        if not all(s in st.faces(t) for t in res["specializations"]):
            problems.append("a specialization lacks the stratum among its faces")
        code, out = res["cli"]
        if code != 0 or sha256(out)[:16] != state["golden"][literal]:
            problems.append("kdc chart %s: exit %d or output changed" % (literal, code))
        if problems:
            failures.append("%s %s: %s" % (op.label, st.format_stratum(s), "; ".join(problems)))
    return failures


WORKLOADS = {
    "battery": (battery_setup, battery_measure, battery_check),
    "ladder": (ladder_setup, ladder_measure, ladder_check),
    "roundtrip": (roundtrip_setup, roundtrip_measure, roundtrip_check),
    "queries": (queries_setup, queries_measure, queries_check),
}
