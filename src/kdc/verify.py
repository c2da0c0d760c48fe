"""Verification suite: every documented acceptance check as a criterion.

Each criterion is a callable that either returns a detail string or
raises CriterionFailure.  The registry drives both the command line
``verify`` subcommand and the acceptance tests, so the two can never
drift apart.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from . import counting
from . import dualcomplex as dc
from . import linechart as lc
from . import polytope as pt
from . import strata as st

SUITES = ("counts", "appendixB", "all")


class CriterionFailure(Exception):
    """A verification criterion did not hold."""


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    seconds: float
    detail: str


_REGISTRY: List[Tuple[int, str, Tuple[str, ...], Callable]] = []


def _criterion(cid: int, name: str, suites: Tuple[str, ...]):
    def wrap(fn):
        _REGISTRY.append((cid, name, suites, fn))
        return fn

    return wrap


def _cap(hi: int, cap: Optional[int]) -> int:
    return hi if cap is None else min(hi, cap)


def _need(cond: bool, message: str):
    if not cond:
        raise CriterionFailure(message)


def _xs(cells) -> set:
    """The sorted level tuples of some cells' strata."""
    return {tuple(sorted(p.x for p in c.stratum.points)) for c in cells}


# ---------------------------------------------------------------------------
# criteria


@_criterion(1, "complete admissible charts at n=3", ("all",))
def _c01(max_n, max_N) -> str:
    def signs_chart(signs):
        ys = [0]
        for s in signs:
            ys.append(ys[-1] + s)
        return lc.LineChart(3, [(i, y) for i, y in enumerate(ys)])

    expected = {
        (signs_chart((1, 1, 1)), 1),
        (signs_chart((1, -1, -1)), 0),
        (signs_chart((-1, 1, 1)), 0),
        (signs_chart((-1, -1, -1)), -1),
    }
    dt = math.inf
    for _ in range(5):  # the fastest of five calls, so one preemption cannot fail the gate
        t0 = time.perf_counter()
        found = set(lc.enumerate_complete_admissible(3))
        dt = min(dt, time.perf_counter() - t0)
    _need(found == expected, "n=3 complete admissible charts differ: %r" % (found,))
    _need(dt < 0.001, "enumeration took %.6fs, budget is 1ms" % dt)
    return "4 chart/level pairs in %.3fms" % (dt * 1000)


@_criterion(2, "deepest-count recursion against brute force", ("counts", "all"))
def _c02(max_n, max_N) -> str:
    hi = _cap(12, max_n)
    t0 = time.perf_counter()
    for n in range(1, hi + 1):
        brute = len(lc.enumerate_complete_admissible(n))
        _need(
            counting.a(n) == brute,
            "a(%d)=%d but brute force finds %d" % (n, counting.a(n), brute),
        )
    dt = time.perf_counter() - t0
    _need(dt < 1.0, "recursion check took %.3fs, budget is 1s" % dt)
    return "a(n) matches enumeration for n<=%d in %.3fs" % (hi, dt)


@_criterion(3, "deepest cells count N^(n-1) a(n)", ("counts", "all"))
def _c03(max_n, max_N) -> str:
    t0 = time.perf_counter()
    checked = 0
    for n in range(3, _cap(5, max_n) + 1):
        for N in range(1, _cap(5, max_N) + 1):
            cells = sum(
                len(st.valid_levels(s)) for s in st.iter_strata(n, N, b=n)
            )
            want = N ** (n - 1) * counting.a(n)
            _need(
                cells == want,
                "deepest cells at (n=%d, N=%d): %d != %d" % (n, N, cells, want),
            )
            checked += 1
    dt = time.perf_counter() - t0
    _need(dt < 10.0, "deepest count sweep took %.2fs, budget is 10s" % dt)
    return "%d (n, N) pairs in %.2fs" % (checked, dt)


@_criterion(4, "n=3 per-dimension counts", ("counts", "all"))
def _c04(max_n, max_N) -> str:
    for N in range(1, _cap(8, max_N) + 1):
        groups = st.enumerate_admissible(3, N)
        found = tuple(len(groups.get(d, ())) for d in (2, 1, 0))
        want = counting.n3_counts(N)
        _need(found == want, "n=3 N=%d counts %r != %r" % (N, found, want))
    return "faces/edges/vertices match closed forms for N<=%d" % _cap(8, max_N)


@_criterion(5, "n=3 complexes are disks with grown rows", ("all",))
def _c05(max_n, max_N) -> str:
    hi = _cap(8, max_N)
    for N in range(1, hi + 1):
        cx = dc.build(3, N)
        rep = dc.verify_disk(cx)
        _need(rep.ok, "n=3 N=%d is %s" % (N, rep.verdict))
        _need(rep.euler == 1, "n=3 N=%d euler %d" % (N, rep.euler))
        t4 = dc.type4_vertices(cx)
        want = math.comb(N + 2, 2)
        _need(len(t4) == want, "type-4 count at N=%d: %d != %d" % (N, len(t4), want))
        centers = {
            st.format_stratum(c.stratum) for row in dc.grow_rows(N) for c in row
        }
        _need(
            centers == {c.id for c in t4},
            "grown rows do not reproduce type-4 vertices at N=%d" % N,
        )
    return "disk verdict, type-4 count and row growth agree for N<=%d" % hi


@_criterion(6, "local charts around type-4 vertices", ("all",))
def _c06(max_n, max_N) -> str:
    hi = _cap(5, max_N)
    want_tris = {
        ("A", 3): 12, ("A", 2): 6, ("A", 1): 2,
        ("B", 3): 6, ("B", 2): 3, ("B", 1): 1,
    }
    seen = set()
    for N in range(1, hi + 1):
        cx = dc.build(3, N)
        covered: List[str] = []
        for cell in dc.type4_vertices(cx):
            rep = dc.local_chart(cell.stratum)
            kind = "A" if cell.stratum.points[0].x == 0 else "B"
            key = (kind, rep.distinct_taus)
            _need(
                len(rep.triangles) == want_tris[key],
                "star of %s has %d triangles, expected %d"
                % (cell.id, len(rep.triangles), want_tris[key]),
            )
            want_bnd = 0 if rep.distinct_taus == 3 else 2
            _need(
                len(rep.boundary_edges) == want_bnd,
                "star of %s has %d boundary edges, expected %d"
                % (cell.id, len(rep.boundary_edges), want_bnd),
            )
            covered.extend(rep.triangles)
            seen.add(key)
        _need(
            sorted(covered) == [t.id for t in cx.by_dim[2]],
            "type-4 stars do not tile the N=%d complex" % N,
        )
    # corner stars exist from N=1, boundary stars from N=2, interior A
    # stars from N=3 and interior B stars from N=4
    first_N = {
        ("A", 1): 1, ("B", 1): 1, ("A", 2): 2, ("B", 2): 2,
        ("A", 3): 3, ("B", 3): 4,
    }
    expected = {key for key, n0 in first_N.items() if hi >= n0}
    _need(
        seen == expected,
        "star shapes %r do not match the %d expected for N<=%d"
        % (sorted(seen), len(expected), hi),
    )
    return "all %d star shapes verified for N<=%d, stars tile each complex" % (len(expected), hi)


@_criterion(7, "slice lattices match cones over products", ("appendixB", "all"))
def _c07(max_n, max_N) -> str:
    cases = 0
    for total in range(2, 9):
        for n_plus in range(1, total):
            for n_minus in range(1, total - n_plus + 1):
                n_zero = total - n_plus - n_minus
                sl = pt.slice_lattice(n_plus, n_minus, n_zero)
                _need(
                    sl.f_vector()[0] == n_zero + n_plus * n_minus,
                    "slice(%d,%d,%d) vertex count" % (n_plus, n_minus, n_zero),
                )
                model = pt.cone(
                    pt.product(pt.simplex(n_plus - 1), pt.simplex(n_minus - 1)),
                    n_zero,
                )
                _need(
                    pt.iso(sl, model),
                    "slice(%d,%d,%d) is not the expected cone"
                    % (n_plus, n_minus, n_zero),
                )
                cases += 1
    return "%d slice/cone pairs isomorphic" % cases


@_criterion(8, "n=4 local complexes", ("all",))
def _c08(max_n, max_N) -> str:
    top = st.Stratum(4, 1, 4, [st.PointLabel(0, x) for x in (1, 2, 3, 4)])
    cell = dc.delta_K(top)
    _need(cell.f_vector() == (5, 8, 5, 1), "f-vector %r" % (cell.f_vector(),))

    _need(
        _xs(cell.by_dim[0])
        == {(0, 0, 1, 1), (1, 1, 1, 1), (1, 1, 1, 2), (0, 1, 1, 2), (0, 1, 1, 1)},
        "pyramid vertices are mislabeled",
    )
    _need(
        _xs(cell.by_dim[1])
        == {(1, 1, 2, 2), (1, 2, 2, 2), (0, 1, 1, 2), (0, 1, 2, 3),
            (0, 1, 2, 2), (1, 1, 1, 2), (1, 1, 2, 3), (1, 2, 2, 3)},
        "pyramid edges are mislabeled",
    )
    _need(
        _xs(cell.by_dim[2])
        == {(1, 2, 2, 3), (1, 1, 2, 3), (1, 2, 3, 4), (0, 1, 2, 3), (1, 2, 3, 3)},
        "pyramid 2-faces are mislabeled",
    )

    tetra = pt.simplex(3)
    pyramid = pt.cone(pt.product(pt.simplex(1), pt.simplex(1)), 1)
    shapes = {"tetrahedron": 0, "pyramid": 0}
    for N in (1, 2):
        for s in st.iter_strata(4, N, b=4, admissible_only=True):
            for k in st.valid_levels(s):
                cell = dc.delta_K(s, k)
                if dc.has_face_poset(cell, tetra):
                    shapes["tetrahedron"] += 1
                elif dc.has_face_poset(cell, pyramid):
                    shapes["pyramid"] += 1
                else:
                    raise CriterionFailure(
                        "top cell %s is neither tetrahedron nor pyramid"
                        % st.format_stratum(s)
                    )
    _need(min(shapes.values()) > 0, "expected both shapes, got %r" % (shapes,))
    return "pyramid example labeled correctly; top cells: %r" % (shapes,)


@_criterion(9, "admissibility oracles agree", ("all",))
def _c09(max_n, max_N) -> str:
    checked = 0
    witnesses = 0
    for n in range(2, _cap(4, max_n) + 1):
        for N in range(1, _cap(3, max_N) + 1):
            bound = 4 * N * n
            for b in range(0, n + 1):
                for s in st.iter_strata(n, N, b=b):
                    occ = st.occupancy(s)
                    direct = st.is_admissible(s)
                    window = st.r_exists(occ)
                    if direct != window:  # str(s) is its literal, made only on failure
                        raise CriterionFailure(
                            "combinatorial and window oracles disagree on %s" % s)
                    r = st.find_admissible_r(occ, bound=bound)
                    if (r is not None) != direct:
                        raise CriterionFailure("bounded scan disagrees on %s" % s)
                    if r is not None:
                        _need(
                            len(r) == b + 1 and min(r) >= 1,
                            "bad witness shape %r" % (r.r,),
                        )
                        total = st.W_plus(occ, r) + st.W_minus(occ, r)
                        _need(
                            total % (2 * N * r.rsum) == 0,
                            "witness %r fails the weight identity" % (r.r,),
                        )
                        witnesses += 1
                    checked += 1

    # the worked pair: same chart, one obstructed and one witnessed
    m_bad = st.OccupancyVector(2, 1, (1, 1, 1, 0, 0, 0))
    m_good = st.OccupancyVector(2, 1, (0, 2, 1, 0, 0, 0))
    _need(not st.r_exists(m_bad), "obstructed occupancy admits r")
    _need(st.find_admissible_r(m_bad, bound=24) is None, "obstructed occupancy scanned a hit")
    _need(st.r_exists(m_good), "witnessed occupancy reports obstructed")
    printed = st.ExpansionTuple((3, 1, 1))
    total = st.W_plus(m_good, printed) + st.W_minus(m_good, printed)
    _need(total % (2 * 1 * printed.rsum) == 0, "printed witness (3,1,1) fails")
    return "%d strata cross-checked, %d witnesses verified" % (checked, witnesses)


@_criterion(10, "smoothing worked example", ("all",))
def _c10(max_n, max_N) -> str:
    D = st.Stratum(3, 1, 3, [st.PointLabel(0, x) for x in (1, 2, 3)])
    hilbert = [st.smooth(D, j, mode="hilbert") for j in (1, 2, 3, 4)]
    want = [(0, 1, 2), (1, 1, 2), (1, 2, 2), (1, 2, 3)]
    got = [tuple(sorted(p.x for p in s.points)) for s in hilbert]
    _need(got == want, "plain smoothings of the full chart: %r" % (got,))
    kummer = [st.smooth(D, j, mode="kummer") for j in (1, 2, 3, 4)]
    _need(
        kummer[0] is None and [s for s in kummer if s] == hilbert[1:],
        "admissible smoothing must drop exactly the first level",
    )

    plus = dc.delta_K(D)
    _need(plus.f_vector() == (3, 3, 1), "triangle f-vector %r" % (plus.f_vector(),))
    _need(_xs(plus.by_dim[0]) == {(0, 1, 1), (1, 1, 1), (1, 1, 2)},
          "triangle vertices mislabeled")
    _need(_xs(plus.by_dim[1]) == {(1, 1, 2), (1, 2, 2), (1, 2, 3)},
          "triangle edges mislabeled")

    mirror = st.Stratum(3, 1, 3, [st.PointLabel(0, x) for x in (1, 2, -3)])
    minus = dc.delta_K(mirror)
    _need(minus.f_vector() == (3, 3, 1), "mirror f-vector %r" % (minus.f_vector(),))
    _need(_xs(minus.by_dim[0]) == {(0, 0, 0), (0, 1, 1), (1, 1, 2)},
          "mirror vertices mislabeled")
    _need(_xs(minus.by_dim[1]) == {(-1, 0, 1), (-2, 1, 1), (1, 2, 3)},
          "mirror edges mislabeled")
    shared = {c.id for c in plus.cells} & {c.id for c in minus.cells}
    _need(len(shared) == 3, "triangles must share an edge and its ends: %r" % shared)
    return "smoothing lists and both worked triangles reproduced"


@_criterion(11, "n=2 complexes are paths", ("counts", "all"))
def _c11(max_n, max_N) -> str:
    hi = _cap(10, max_N)
    for N in range(1, hi + 1):
        _need(
            not list(st.iter_strata(2, N, b=2, admissible_only=True)),
            "n=2 N=%d has an admissible deepest stratum" % N,
        )
        groups = st.enumerate_admissible(2, N)
        _need(len(groups.get(1, ())) == N, "n=2 N=%d edge count" % N)
        _need(len(groups.get(0, ())) == N + 1, "n=2 N=%d vertex count" % N)
        cx = dc.build(2, N)
        _need(cx.f_vector() == (N + 1, N), "n=2 N=%d f-vector" % N)
        degrees = sorted(len(cx.up[v.id]) for v in cx.by_dim[0])
        _need(
            degrees == [1, 1] + [2] * (N - 1),
            "n=2 N=%d degree sequence %r" % (N, degrees),
        )
        _need(cx.is_connected(), "n=2 N=%d complex is disconnected" % N)
    return "path complexes verified for N<=%d" % hi


@_criterion(12, "residue triple counts", ("counts", "all"))
def _c12(max_n, max_N) -> str:
    hi = _cap(50, max_N)
    for N in range(1, hi + 1):
        profile = counting.m_profile(N)
        _need(
            sum(profile) == math.comb(N + 2, 3),
            "triple counts at N=%d do not sum to C(N+2,3)" % N,
        )
        for k in range(N):
            _need(
                profile[k] == profile[(k + 3) % N],
                "m(%d) != m(%d) at N=%d" % (k, k + 3, N),
            )
        _need(
            counting.sum_of_three(N) == math.comb(N + 2, 2),
            "m(-1)+m(0)+m(1) at N=%d" % N,
        )
    for N in (1, 2, 3, 5, 7):
        for k in range(-3, 4):
            _need(
                counting.m_k(N, k) == counting.m_profile(N)[k % N],
                "profile disagrees with direct count at N=%d k=%d" % (N, k),
            )
    return "triple identities hold for N<=%d" % hi


# ---------------------------------------------------------------------------
# runner


def criteria(suite: str = "all"):
    if suite not in SUITES:
        raise ValueError("unknown suite %r, pick one of %s" % (suite, ", ".join(SUITES)))
    return [entry for entry in sorted(_REGISTRY) if suite in entry[2]]


def _ranges(max_n, max_N) -> None:
    """Refuse a range cap that is neither None nor an integer >= 1: a cap of 0 would
    leave most criteria nothing to check, and pass."""
    for name, value in (("max_n", max_n), ("max_N", max_N)):
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError("%s must be None or an integer >= 1, got %r" % (name, value))


def run_criterion(cid: int, max_n: Optional[int] = None, max_N: Optional[int] = None) -> CriterionResult:
    _ranges(max_n, max_N)
    for entry in _REGISTRY:
        if entry[0] == cid:
            return _run(entry, max_n, max_N)
    raise ValueError("no criterion %d" % cid)


def _run(entry, max_n, max_N) -> CriterionResult:
    cid, name, _suites, fn = entry
    t0 = time.perf_counter()
    try:
        detail = fn(max_n, max_N)
        passed = True
    except CriterionFailure as failure:
        detail = str(failure)
        passed = False
    return CriterionResult(cid, name, passed, time.perf_counter() - t0, detail)


def run_suite(
    suite: str = "all",
    max_n: Optional[int] = None,
    max_N: Optional[int] = None,
) -> Tuple[dict, bool]:
    """Run a suite and return (JSON-ready report, overall pass); the report names the
    Python version and CPU count, so its timings can be read against the host."""
    import platform  # here, not at the top: it costs every kdc command 3 ms and 0.1 MB

    _ranges(max_n, max_N)
    results = [_run(entry, max_n, max_N) for entry in criteria(suite)]
    ok = all(r.passed for r in results)
    report = {
        "suite": suite,
        "max_n": max_n,
        "max_N": max_N,
        "status": "pass" if ok else "fail",
        "criteria": [
            {
                "id": r.cid,
                "name": r.name,
                "status": "pass" if r.passed else "fail",
                "seconds": round(r.seconds, 6),
                "detail": r.detail,
            }
            for r in results
        ],
        "environment": {"python": platform.python_version(), "nproc": os.cpu_count()},
    }
    return report, ok
