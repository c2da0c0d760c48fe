import json
import subprocess
import sys

import pytest

from kdc import cli
from kdc import dualcomplex as dc


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


def test_enumerate_quiet_keeps_summary(capsys):
    rc, out, _ = run(capsys, "enumerate", "--n", "2", "--N", "2", "--quiet")
    assert rc == 0
    assert out == "1:2 0:3\n"


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


def test_enumerate_needs_n2(capsys):
    rc, _, err = run(capsys, "enumerate", "--n", "1", "--N", "1")
    assert rc == 2
    assert "at least 2" in err


def test_bad_flag_values_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["enumerate", "--n", "3", "--N", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


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


def test_chart_counts_a_wide_literal(capsys):
    # 31 vertices: 2^31 subsets, counted per pair of heights instead
    literal = "LC{n=30;%s}" % "".join("(%d,%d)" % (i, i) for i in range(31))
    rc, out, _ = run(capsys, "chart", literal)
    assert rc == 0
    assert out.splitlines()[-1] == "admissible subcharts: 2147483570"


def test_chart_reports_invalid_without_failing(capsys):
    rc, out, _ = run(capsys, "chart", "LC{n=3;(0,0)(0,0)}")
    assert rc == 0
    assert "valid: no (x not strictly increasing)" in out


def test_chart_rejects_garbage(capsys):
    rc, _, err = run(capsys, "chart", "not-a-chart")
    assert rc == 2
    assert "error:" in err


def test_dual_json_round_trips(capsys):
    rc, out, err = run(capsys, "dual", "--n", "3", "--N", "2", "--format", "json")
    assert rc == 0
    assert dc.parse_complex(out) == dc.build(3, 2)
    assert "combinatorial disk" in err


def test_dual_quiet_silences_report(capsys):
    rc, _, err = run(capsys, "dual", "--n", "3", "--N", "1", "--quiet")
    assert rc == 0
    assert err == ""


def test_dual_off_needs_n3(capsys):
    rc, _, err = run(capsys, "dual", "--n", "4", "--N", "1", "--format", "off")
    assert rc == 2
    assert "error:" in err


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
