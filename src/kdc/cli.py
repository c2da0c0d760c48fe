"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or input error,
3 breached internal invariant.  All output is deterministic for a fixed
command line; layouts take an explicit --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import dualcomplex as dc
from . import linechart as lc
from . import strata as st
from . import verify
from .errors import InvariantError


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdc",
        description="Combinatorics of degeneration strata: enumeration, "
        "charts, dual complexes, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list admissible strata")
    p_enum.add_argument("--n", type=_positive, required=True, help="points per fiber")
    p_enum.add_argument("--N", type=_positive, required=True, help="residue modulus")
    p_enum.add_argument("--delta", type=int, choices=(1, 2), default=2,
                        help="transversality weight in quotient dimensions")
    p_enum.add_argument("--format", dest="fmt", choices=("csv",),
                        help="structured output format")
    p_enum.add_argument("--out", "-o", help="write output to a file")
    p_enum.add_argument("--quiet", action="store_true",
                        help="print only the per-dimension summary")

    p_chart = sub.add_parser("chart", help="analyze one chart literal")
    p_chart.add_argument("literal", help="chart literal, e.g. "
                         "'LC{n=3;(0,0)(1,1)(2,2)(3,3)}'")

    p_dual = sub.add_parser("dual", help="build and export a dual complex")
    p_dual.add_argument("--n", type=_positive, required=True)
    p_dual.add_argument("--N", type=_positive, required=True)
    p_dual.add_argument("--format", dest="fmt",
                        choices=("json", "dot", "off", "tikz"), default="json")
    p_dual.add_argument("--out", "-o", help="write the export to a file")
    p_dual.add_argument("--seed", type=int, default=0, help="layout seed")
    p_dual.add_argument("--quiet", action="store_true",
                        help="suppress the disk report")

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", choices=verify.SUITES, default="all")
    p_verify.add_argument("--max-n", type=_positive, dest="max_n")
    p_verify.add_argument("--max-N", type=_positive, dest="max_N")
    p_verify.add_argument("--out", "-o", help="write the JSON report to a file")
    p_verify.add_argument("--quiet", action="store_true",
                          help="suppress per-criterion progress lines")
    return parser


def _emit(text: str, out: Optional[str]):
    if out:
        with open(out, "w", encoding="ascii") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.n < 2:
        print("enumerate needs --n at least 2", file=sys.stderr)
        return 2
    groups = st.enumerate_admissible(args.n, args.N)
    rows = []
    for dim in sorted(groups, reverse=True):
        for s in groups[dim]:
            rows.append(
                (
                    st.format_stratum(s),
                    s.b,
                    str(st.classify_stratum(s)),
                    st.cell_dimension(s),
                    st.quotient_dimension(s, delta=args.delta),
                    lc.format_chart(st.chart_of(s)),
                )
            )
    summary = " ".join(
        "%d:%d" % (dim, len(groups[dim])) for dim in sorted(groups, reverse=True)
    )
    if args.fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(("id", "b", "class", "dim", "qdim", "chart"))
        writer.writerows(rows)
        _emit(buffer.getvalue(), args.out)
        return 0
    lines = []
    if not args.quiet:
        lines.extend("\t".join(str(field) for field in row) for row in rows)
    lines.append(summary)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    chart = lc.parse_chart(args.literal)
    report = lc.validate(chart)
    print("chart: %s" % lc.format_chart(chart))
    if not report:
        print("valid: no (%s)" % report.reason)
        return 0
    print("valid: yes")
    canonical = lc.canonicalize(chart)
    print("canonical: %s" % lc.format_chart(canonical))
    levels = sorted(lc.valid_neutral_levels(canonical))
    print("neutral levels: %s" % (
        ", ".join("%d" % k for k in levels) if levels else "(none)"
    ))
    for k in levels:
        print("class at k=%d: %s" % (k, lc.classify(canonical, k)))
    print("admissible: %s" % ("yes" if levels else "no"))
    print("admissible subcharts: %d" % lc.count_admissible_subcharts(canonical))
    return 0


def cmd_dual(args: argparse.Namespace) -> int:
    if args.n < 2:
        print("dual needs --n at least 2", file=sys.stderr)
        return 2
    # geometry formats only apply to n = 3; refuse before building
    if args.fmt in ("off", "tikz") and args.n != 3:
        print("error: %s output needs an n = 3 complex" % args.fmt, file=sys.stderr)
        return 2
    cx = dc.build(args.n, args.N)
    blob = dc.export(cx, args.fmt, layout_seed=args.seed)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(blob)
    else:
        sys.stdout.buffer.write(blob)
        sys.stdout.buffer.flush()
    if args.n == 3 and not args.quiet:
        print(dc.verify_disk(cx).summary(), file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report, ok = verify.run_suite(args.suite, max_n=args.max_n, max_N=args.max_N)
    if not args.quiet:
        for entry in report["criteria"]:
            print(
                "%-4s %2d %s (%.3fs)"
                % (entry["status"], entry["id"], entry["name"], entry["seconds"]),
                file=sys.stderr,
            )
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if ok else 1


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "chart": cmd_chart,
    "dual": cmd_dual,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvariantError as breach:
        print("invariant breached: %s" % breach, file=sys.stderr)
        return 3
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
