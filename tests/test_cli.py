import hashlib
import json
import subprocess
import sys

import pytest

from kdc import cli
from kdc import dualcomplex as dc
from kdc import linechart as lc
from kdc import strata as st
from kdc import verify


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_enumerate_table(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "3", "--N", "1")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 20
    assert lines[-1] == "2:4 1:9 0:6"
    first = lines[0].split("\t")
    assert first == [
        "X{n=3;N=1;b=3;[(0,-1),(0,-2),(0,-3)]}",
        "3",
        "wide",
        "2",
        "2",
        "LC{n=3;(0,0)(1,-1)(2,-2)(3,-3)}",
    ]


def test_enumerate_quiet_keeps_summary(capsys, monkeypatch):
    rc, out, _ = run(capsys, "enumerate", "--n", "2", "--N", "2", "--quiet")
    assert rc == 0
    assert out == "1:2 0:3\n"
    # the rows are never written, so they are never made
    monkeypatch.setattr(st, "quotient_dimension", lambda s, delta: 1 / 0)
    rc, out, _ = run(capsys, "enumerate", "--n", "3", "--N", "1", "--quiet")
    assert (rc, out) == (0, "2:4 1:9 0:6\n")


def test_enumerate_delta_changes_qdim(capsys):
    _, out2, _ = run(capsys, "enumerate", "--n", "3", "--N", "1")
    _, out1, _ = run(capsys, "enumerate", "--n", "3", "--N", "1", "--delta", "1")
    qdim2 = [int(ln.split("\t")[4]) for ln in out2.splitlines()[:-1]]
    qdim1 = [int(ln.split("\t")[4]) for ln in out1.splitlines()[:-1]]
    assert [a - b for a, b in zip(qdim2, qdim1)] == [2] * 19


def test_enumerate_csv(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "2", "--N", "1", "--format", "csv")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "id,b,class,dim,qdim,chart"
    assert len(lines) == 4
    assert all(ln.count(",") >= 5 for ln in lines[1:])
    # --quiet shortens only the text table
    assert run(capsys, "enumerate", "--n", "2", "--N", "1", "--format", "csv", "--quiet")[1] == out


def test_enumerate_needs_n2(capsys, tmp_path):
    target = tmp_path / "x"
    target.write_text("kept")
    rc, _, err = run(capsys, "enumerate", "--n", "1", "--N", "1", "--out", str(target))
    assert rc == 2
    assert "at least 2" in err
    assert target.read_text() == "kept"  # refused before --out is opened


def test_bad_flag_values_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--n", "3", "--N", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_parser_is_built_once(capsys):
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["chart", "LC{n=3;(0,0)(1,1)}"])
    parser.parse_args(["chart", "LC{n=3;(0,0)}"])
    assert first.literal == "LC{n=3;(0,0)(1,1)}"
    assert run(capsys, "enumerate", "--n", "3", "--N", "1")[0] == 0
    test_bad_flag_values_exit_2()


def test_chart_report(capsys):
    rc, out, _ = run(capsys, "chart", "LC{n=3;(0,0)(1,1)(2,2)(3,3)}")
    assert rc == 0
    assert out.splitlines() == [
        "chart: LC{n=3;(0,0)(1,1)(2,2)(3,3)}",
        "valid: yes",
        "canonical: LC{n=3;(0,0)(1,1)(2,2)(3,3)}",
        "neutral levels: 1",
        "class at k=1: wide",
        "admissible: yes",
        "admissible subcharts: 7",
    ]


def diagonal(v):
    """Literal of the chart with v vertices on the diagonal y = x."""
    return "LC{n=%d;%s}" % (v - 1, "".join("(%d,%d)" % (i, i) for i in range(v)))


def test_chart_counts_a_wide_literal(capsys):
    # 31 vertices: 2^31 subsets, counted per pair of heights instead
    rc, out, _ = run(capsys, "chart", diagonal(31))
    assert rc == 0
    assert out.splitlines()[-1] == "admissible subcharts: 2147483570"


def test_chart_validates_a_bounded_number_of_times(capsys, monkeypatch):
    # 1,001 vertices have 499 neutral levels, each printed with its class
    calls = []
    validate = lc.validate

    def counted(chart):
        calls.append(chart)
        return validate(chart)

    monkeypatch.setattr(lc, "validate", counted)
    rc, out, _ = run(capsys, "chart", diagonal(1001))
    assert rc == 0
    assert out.count("class at k=") == 499
    assert len(calls) <= 6


def test_chart_refuses_a_count_too_long_to_print(capsys):
    # the count has more digits than Python converts to a string by default
    rc, out, err = run(capsys, "chart", diagonal(15001))
    assert rc == 2
    assert out == ""
    assert "15001-vertex chart" in err and "cannot be printed" in err


@pytest.mark.parametrize("field, literal", [
    ("n", "LC{n=%s;(0,0)(1,1)}" % ("9" * 5000)),
    ("x", "LC{n=3;(0,0)(%s,1)}" % ("1" * 5001)),
    ("y", "LC{n=3;(0,0)(1,%s)}" % ("1" * 5001)),
])
def test_chart_refuses_a_field_past_the_digit_limit(capsys, field, literal):
    rc, out, err = run(capsys, "chart", literal)
    assert rc == 2
    assert out == ""
    assert err == "error: chart literal field %r has more than %d digits\n" % (
        field, sys.get_int_max_str_digits())


def test_chart_reports_invalid_without_failing(capsys):
    rc, out, _ = run(capsys, "chart", "LC{n=3;(0,0)(0,0)}")
    assert rc == 0
    assert "valid: no (x not strictly increasing)" in out


def test_chart_rejects_garbage(capsys):
    rc, _, err = run(capsys, "chart", "not-a-chart")
    assert rc == 2
    assert "error:" in err
    # digits other than ASCII ones (Arabic-Indic, fullwidth) are no number
    literal = "LC{n=\u0663;(0,0)(\uff11,\uff11)}"
    rc, out, err = run(capsys, "chart", literal)
    assert (rc, out) == (2, "")
    assert err == "error: malformed chart literal: %r\n" % literal


def test_dual_json_round_trips(capsys):
    rc, out, err = run(capsys, "dual", "--n", "3", "--N", "2", "--format", "json")
    assert rc == 0
    assert dc.parse_complex(out) == dc.build(3, 2)
    assert "combinatorial disk" in err


def test_dual_quiet_silences_report(capsys):
    rc, _, err = run(capsys, "dual", "--n", "3", "--N", "1", "--quiet")
    assert rc == 0
    assert err == ""


def test_dual_off_needs_n3(capsys, tmp_path):
    target = tmp_path / "x"
    target.write_text("kept")
    rc, _, err = run(capsys, "dual", "--n", "4", "--N", "1", "--format", "off",
                     "--out", str(target))
    assert rc == 2
    assert "error:" in err
    assert target.read_text() == "kept"  # refused before --out is opened


def test_dual_geometry_check_precedes_build(capsys):
    # must refuse without building the (huge) n=12 complex
    rc, _, err = run(capsys, "dual", "--n", "12", "--N", "1", "--format", "tikz")
    assert rc == 2
    assert "n = 3" in err


def test_dual_writes_files(capsys, tmp_path):
    target = tmp_path / "complex.json"
    rc, out, _ = run(capsys, "dual", "--n", "3", "--N", "1", "--out", str(target))
    assert rc == 0
    assert out == ""
    assert dc.parse_complex(target.read_bytes()) == dc.build(3, 1)


@pytest.mark.parametrize("fmt", ["json", "dot", "off", "tikz"])
def test_dual_writes_the_export_bytes(capsys, tmp_path, fmt):
    # N = 8 has more cells, covers and lines than one chunk
    want = dc.export(dc.build(3, 8), fmt, layout_seed=3)
    argv = ("dual", "--n", "3", "--N", "8", "--format", fmt, "--seed", "3", "--quiet")
    rc, out, _ = run(capsys, *argv)
    assert (rc, out.encode("ascii")) == (0, want)
    target = tmp_path / ("complex." + fmt)
    rc, out, _ = run(capsys, *argv, "--out", str(target))
    assert (rc, out, target.read_bytes()) == (0, "", want)


# sha256 of `kdc enumerate` output, recorded while it still joined its rows
@pytest.mark.parametrize("argv, digest", [
    (("--n", "4", "--N", "2"), "78cf614034c98597e6a80e9e22a69943b5b29e214a224b3611b5bbd9ffe1da2c"),
    (("--n", "4", "--N", "2", "--format", "csv"),
     "04d58576001a38372da65f0b4ce54c0e706a79f2bdeaeba28bc2104dfdcb3c17"),
    (("--n", "3", "--N", "3", "--delta", "1"),
     "ee8c6b048a4ace399103a0556739d8e4b7baa4572dcbd156c26400a44685775b"),
    (("--n", "5", "--N", "1", "--quiet"),
     "0ecf3070e7326f126a61c875c5fc721472b241d3d2c3cb32de22760d735c4262"),
])
def test_enumerate_keeps_its_bytes(capsys, tmp_path, argv, digest):
    target = tmp_path / "strata.txt"
    rc, out, _ = run(capsys, "enumerate", *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
    assert run(capsys, "enumerate", *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode("ascii")


@pytest.mark.parametrize("argv", [
    ("dual", "--n", "3", "--N", "1"),
    ("enumerate", "--n", "3", "--N", "1"),
    ("verify", "--suite", "counts", "--max-n", "3", "--max-N", "1", "--quiet"),
])
def test_unwritable_out_exits_2(capsys, tmp_path, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("the work ran before --out was opened")

    monkeypatch.setattr(st, "enumerate_admissible", refuse)
    monkeypatch.setattr(dc, "build", refuse)
    monkeypatch.setattr(verify, "run_suite", refuse)
    target = tmp_path / "missing" / "x"
    rc, out, err = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err


def test_verify_counts_suite(capsys):
    rc, out, err = run(capsys, "verify", "--suite", "counts", "--max-n", "4", "--max-N", "3")
    assert rc == 0
    report = json.loads(out)
    assert report["status"] == "pass"
    assert [c["id"] for c in report["criteria"]] == [2, 3, 4, 11, 12]
    assert all(c["status"] == "pass" for c in report["criteria"])
    assert err.count("pass") == 5


def test_verify_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "verify", "--suite", "counts", "--max-n", "3", "--max-N", "2",
        "--quiet", "--out", str(target),
    )
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["status"] == "pass"


def test_cli_byte_determinism():
    cmd = [sys.executable, "-m", "kdc.cli", "dual", "--n", "3", "--N", "2",
           "--format", "tikz", "--seed", "3", "--quiet"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stdout.count(b"\\draw") == 30
