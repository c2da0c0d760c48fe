"""Write golden.json: the reference outputs the benchmark checks against.

    python3 bench/record_golden.py

The file in the repository was recorded from ``src/`` at commit 9c11064,
before any optimisation.  Re-record only for a change that is meant to
alter these outputs, and say so in the change.

It holds
- ``ladder``: the f-vector and the sha256 of the JSON export of each
  ladder rung (and of the smoke-test rung);
- ``chart``: for every valid chart literal with n in 3..5 (each nonempty
  vertex subset of each complete chart, so shifted and inadmissible charts
  are included), the first 16 hex digits of the sha256 of the stdout of
  ``kdc chart <literal>``.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from kdc import dualcomplex as dc  # noqa: E402
from kdc import linechart as lc  # noqa: E402

CHART_NS = (3, 4, 5)


def chart_literals(n: int) -> list[str]:
    out = set()
    for steps in itertools.product((1, -1), repeat=n):
        ys = list(itertools.accumulate(steps, initial=0))
        verts = list(enumerate(ys))
        for mask in range(1, 1 << (n + 1)):
            chosen = [v for i, v in enumerate(verts) if mask >> i & 1]
            out.add(lc.format_chart(lc.LineChart(n, chosen)))
    return sorted(out)


def main() -> int:
    rungs = sorted({r for size in workloads.SIZES.values() for r in size["ladder"]["rungs"]})
    ladder = {}
    for n, N in rungs:
        cx = dc.build(n, N)
        ladder["build.%d_%d" % (n, N)] = {
            "f_vector": list(cx.f_vector()),
            "json_sha256": workloads.sha256(dc.export(cx, "json")),
        }
    chart = {}
    for n in CHART_NS:
        for literal in chart_literals(n):
            code, out = workloads.run_chart_cli(literal)
            if code != 0:
                raise SystemExit("kdc chart %s exited %d" % (literal, code))
            chart[literal] = workloads.sha256(out)[:16]
    path = workloads.GOLDEN_PATH
    with open(path, "w", encoding="ascii") as handle:
        json.dump({"ladder": ladder, "chart": chart}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print("wrote %s: %d rungs, %d chart literals" % (path, len(ladder), len(chart)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
