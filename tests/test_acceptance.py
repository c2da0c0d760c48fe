"""Run every verification criterion at its full default range.

Each criterion is one parametrized test so the report shows one
pass/fail line per criterion; the detail string is printed for the
record.  A final check keeps the whole battery inside its time budget.
"""

import itertools
import os
import platform
import re
import time

import pytest

from kdc import dualcomplex as dc
from kdc import linechart as lc
from kdc import strata as st
from kdc import verify

_DURATIONS = {}


@pytest.mark.parametrize(
    "cid,name",
    [(entry[0], entry[1]) for entry in verify.criteria("all")],
    ids=["c%02d-%s" % (entry[0], entry[1].replace(" ", "-")) for entry in verify.criteria("all")],
)
def test_criterion(cid, name):
    result = verify.run_criterion(cid)
    _DURATIONS[cid] = result.seconds
    status = "pass" if result.passed else "FAIL"
    print("%s %2d %s (%.3fs): %s" % (status, cid, name, result.seconds, result.detail))
    assert result.passed, "criterion %d (%s): %s" % (cid, name, result.detail)


def test_all_criteria_present():
    assert [entry[0] for entry in verify.criteria("all")] == list(range(1, 13))


def test_total_time_budget():
    assert sum(_DURATIONS.values()) < 60.0


def test_suite_report_shape():
    report, ok = verify.run_suite("counts", max_n=4, max_N=3)
    assert ok
    assert report["status"] == "pass"
    assert {c["id"] for c in report["criteria"]} == {2, 3, 4, 11, 12}
    assert all(c["status"] == "pass" for c in report["criteria"])


def test_suite_report_names_its_environment():
    report, _ok = verify.run_suite("counts", max_n=2, max_N=1)
    assert report["environment"] == {"python": platform.python_version(), "nproc": os.cpu_count()}


def test_unknown_suite_and_criterion():
    with pytest.raises(ValueError):
        verify.criteria("everything")
    with pytest.raises(ValueError):
        verify.run_criterion(13)


def test_narrowed_ranges_still_pass():
    # shapes that cannot exist below their first N are not demanded
    for max_N in (1, 2, 3):
        result = verify.run_criterion(6, max_N=max_N)
        assert result.passed, result.detail


def _slow_enumeration(monkeypatch, slow):
    """Make the calls numbered in slow (from 0) of criterion 1's enumeration sleep 2 ms."""
    real, calls = lc.enumerate_complete_admissible, itertools.count()

    def enumerate_complete_admissible(n):
        if next(calls) in slow:
            time.sleep(0.002)
        return real(n)

    monkeypatch.setattr(lc, "enumerate_complete_admissible", enumerate_complete_admissible)


def test_c01_fails_when_every_call_is_over_budget(monkeypatch):
    _slow_enumeration(monkeypatch, range(5))
    result = verify.run_criterion(1)
    assert not result.passed
    assert re.fullmatch(r"enumeration took [0-9.]+s, budget is 1ms", result.detail)


def test_c01_judges_the_fastest_of_five_calls(monkeypatch):
    _slow_enumeration(monkeypatch, {0})
    result = verify.run_criterion(1)
    assert result.passed, result.detail


@pytest.mark.parametrize("cid, detail", [
    (8, "pyramid example labeled correctly; top cells: {'tetrahedron': 54, 'pyramid': 18}"),
    (10, "smoothing lists and both worked triangles reproduced"),
])
def test_closed_cell_criteria_keep_their_detail(cid, detail):
    result = verify.run_criterion(cid)
    assert (result.passed, result.detail) == (True, detail)


def test_c08_refuses_a_cell_missing_a_cover(monkeypatch):
    real = dc.delta_K

    def delta_K(top, k=None):
        cell = real(top, k)
        return dc.DualComplex(cell.n, cell.N, cell.cells, cell.incidence - {min(cell.incidence)})

    monkeypatch.setattr(dc, "delta_K", delta_K)
    result = verify.run_criterion(8)
    assert not result.passed
    assert re.fullmatch(r"top cell \S+ is neither tetrahedron nor pyramid", result.detail)


def test_c03_fails_when_the_walk_drops_an_admissible_stratum(monkeypatch):
    real = st.iter_strata

    def iter_strata(n, N, b=None, admissible_only=False):
        walk = real(n, N, b=b, admissible_only=admissible_only)
        if (n, N) == (4, 2):  # drop the first admissible stratum; it has one level
            assert len(st.valid_levels(next(s for s in walk if st.valid_levels(s)))) == 1
        return walk

    monkeypatch.setattr(st, "iter_strata", iter_strata)
    result = verify.run_criterion(3)
    assert not result.passed
    found = re.fullmatch(r"deepest cells at \(n=4, N=2\): (\d+) != (\d+)", result.detail)
    assert found and int(found[1]) == int(found[2]) - 1


@pytest.mark.parametrize("value", [0, -1, 2.5, "4"])
@pytest.mark.parametrize("name", ["max_n", "max_N"])
def test_range_caps_must_be_positive_integers(name, value):
    message = r"^%s must be None or an integer >= 1, got %s$" % (name, re.escape(repr(value)))
    with pytest.raises(ValueError, match=message):
        verify.run_suite("all", **{name: value})
    with pytest.raises(ValueError, match=message):
        verify.run_criterion(3, **{name: value})
