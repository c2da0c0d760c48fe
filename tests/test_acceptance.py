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

from kdc import linechart as lc
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
