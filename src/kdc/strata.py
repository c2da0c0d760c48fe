"""Stratum labels and their admissibility.

A stratum records, for each of n points, a residue tau modulo N (which
cycle block the point sits in) and a signed level x with |x| <= b+1.
The level data alone determines a line chart (see linechart); the
stratum is admissible when some neutral level k of that chart satisfies
sum(tau_i) + k == 0 (mod N).  An independent route to the same decision
goes through the occupancy vector m and the weighted sums W_plus and
W_minus, which must cancel mod 2*N*sum(r) for some expansion tuple r of
positive integers.  Both routes live here; the test suite checks they
agree.  The weight route decides existence from the coefficients of the
weight in r; find_admissible_r with a bound instead runs an exhaustive
bitset scan over every tuple up to that total, which returns a witness
of the smallest total (the order among tuples of equal total is
unspecified).
"""

from __future__ import annotations

import functools
import itertools
import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, Optional

from .linechart import (
    Classification,
    LineChart,
    valid_neutral_levels,
    validate,
)


@dataclass(frozen=True)
class PointLabel:
    """One point: cycle-block residue tau and signed level x."""

    __slots__ = ("tau", "x")
    tau: int
    x: int

    # copy and pickle cannot set the slots of a frozen dataclass, so they
    # rebuild through the constructor
    def __reduce__(self):
        return PointLabel, (self.tau, self.x)

    def __str__(self) -> str:
        return f"({self.tau},{self.x:+d})" if self.x else f"({self.tau},0)"


def _point_key(p: PointLabel) -> tuple[int, int, int]:
    # |x| ascending, positive before negative, then tau
    return (abs(p.x), 0 if p.x >= 0 else 1, p.tau)


@dataclass(frozen=True)
class Stratum:
    """Canonical stratum label.

    Construction normalizes its input: residues are reduced mod N,
    points at the top level b+1 with negative sign flip to the positive
    side while their residue drops by one, and points are sorted.
    Validation enforces |x| <= b+1 and stability, meaning every level
    1..b carries at least one point.

    The chart facts and the valid levels are computed on first use and
    kept in the ``_chart`` and ``_levels`` slots.  They are not fields,
    so equality, hashing and repr ignore them.
    """

    __slots__ = ("n", "N", "b", "points", "_chart", "_levels")
    n: int
    N: int
    b: int
    points: tuple[PointLabel, ...]

    def __init__(self, n: int, N: int, b: int, points) -> None:
        n, N, b = int(n), int(N), int(b)
        if N < 1:
            raise ValueError("N must be >= 1")
        if n < 1:
            raise ValueError("n must be >= 1")
        if not 0 <= b <= n:
            raise ValueError(f"b must lie in 0..n, got b={b} with n={n}")
        pts = []
        for raw in points:
            tau, x = (raw.tau, raw.x) if isinstance(raw, PointLabel) else (int(raw[0]), int(raw[1]))
            if abs(x) > b + 1:
                raise ValueError(f"level |{x}| exceeds b+1={b + 1}")
            if x == -(b + 1):
                # flip to the positive side of the top level; the cycle
                # block shifts down by one
                tau, x = tau - 1, b + 1
            pts.append(PointLabel(tau % N, x))
        if len(pts) != n:
            raise ValueError(f"expected {n} points, got {len(pts)}")
        pts.sort(key=_point_key)
        occupied = {abs(p.x) for p in pts}
        missing = [lv for lv in range(1, b + 1) if lv not in occupied]
        if missing:
            raise ValueError(f"unstable stratum, empty level(s) {missing}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "points", tuple(pts))

    def __reduce__(self):  # as PointLabel.__reduce__; outside input is validated
        return Stratum, (self.n, self.N, self.b, self.points)

    @classmethod
    def _canonical(cls, n: int, N: int, b: int, points: tuple, chart=None) -> "Stratum":
        """Trusted constructor for points the engine holds in canonical form.

        The points must already be reduced mod N, flipped at the top level,
        sorted by _point_key and stable; nothing is checked.  chart, when
        given, is the _chart_facts entry of the stratum's chart.
        """
        s = object.__new__(cls)
        object.__setattr__(s, "n", n)
        object.__setattr__(s, "N", N)
        object.__setattr__(s, "b", b)
        object.__setattr__(s, "points", points)
        if chart is not None:
            object.__setattr__(s, "_chart", chart)
        return s

    @property
    def tau_sum(self) -> int:
        return sum(p.tau for p in self.points) % self.N

    def __str__(self) -> str:
        return format_stratum(self)


def canonical_key(s: Stratum):
    """Total order key; equal exactly for equal canonical labels."""
    return (s.n, s.N, s.b, tuple((p.x, p.tau) for p in s.points))


def chart_of(s: Stratum) -> LineChart:
    """Read the line chart off the level data.

    One vertex per level l = b+1 down to 1, at x = #{points with
    |x_i| >= l} and y = sum of their signs.  Level-0 points are
    invisible to the chart.  The result is canonical because stored
    top-level points are always positive.
    """
    return _facts(s)[0]


@functools.lru_cache(maxsize=None)
def _chart_facts(n: int, vertices: tuple) -> tuple[LineChart, frozenset[int], bool]:
    """(chart, valid neutral levels, wide) of a vertex tuple, validated once."""
    chart = LineChart(n, vertices)
    ys = chart.heights
    return chart, valid_neutral_levels(chart), min(ys) < max(ys)


def _facts(s: Stratum) -> tuple[LineChart, frozenset[int], bool]:
    """The _chart_facts entry of s, read once and kept in its _chart slot."""
    try:
        return s._chart
    except AttributeError:
        pass
    verts = []
    for level in range(s.b + 1, 0, -1):
        tail = [p.x for p in s.points if abs(p.x) >= level]
        verts.append((len(tail), sum(1 if x > 0 else -1 for x in tail)))
    facts = _chart_facts(s.n, tuple(verts))
    object.__setattr__(s, "_chart", facts)
    return facts


def _chart_classes(chart: LineChart) -> list[tuple[int, int, int]]:
    """Level-sign classes (level, sign, count) in residue consumption order.

    Order: levels 1..b gap by gap from the right, positives before
    negatives, then level 0 (sign 0), then level b+1 with sign read from
    the leftmost vertex.  Empty classes are dropped.
    """
    verts = chart.vertices
    b = len(verts) - 1
    out = []
    for i in range(b, 0, -1):
        dx = verts[i].x - verts[i - 1].x
        dy = verts[i].y - verts[i - 1].y
        level = b + 1 - i
        if (dx + dy) // 2:
            out.append((level, 1, (dx + dy) // 2))
        if (dx - dy) // 2:
            out.append((level, -1, (dx - dy) // 2))
    if chart.n - verts[-1].x:
        out.append((0, 0, chart.n - verts[-1].x))
    x0, y0 = verts[0].x, verts[0].y
    if (x0 + y0) // 2:
        out.append((b + 1, 1, (x0 + y0) // 2))
    if (x0 - y0) // 2:
        out.append((b + 1, -1, (x0 - y0) // 2))
    return out


def stratum_from_chart(chart: LineChart, tau_assignment, N: int) -> Stratum:
    """Distribute residues over a chart's level-sign classes.

    Inverse of chart_of up to shift equivalence.  tau_assignment is
    either a flat sequence of residues consumed in the class order of
    _chart_classes, or a mapping {(level, sign): residues} with sign 0
    for level-0 points; empty classes may be omitted from the mapping.
    """
    report = validate(chart)
    if not report:
        raise ValueError(f"invalid chart: {report.reason}")
    classes = _chart_classes(chart)
    b = len(chart.vertices) - 1
    points = []
    if isinstance(tau_assignment, Mapping):
        unknown = set(tau_assignment) - {(lv, sg) for lv, sg, _ in classes}
        if any(len(tuple(tau_assignment[key])) for key in unknown):
            raise ValueError(f"residues supplied for absent classes {sorted(unknown)}")
        for level, sign, count in classes:
            taus = tuple(tau_assignment.get((level, sign), ()))
            if len(taus) != count:
                raise ValueError(
                    f"class (level={level}, sign={sign:+d}) needs {count} residues, got {len(taus)}"
                )
            points += [(t, sign * level) for t in taus]
    else:
        flat = tuple(tau_assignment)
        at = 0
        for level, sign, count in classes:
            taus = flat[at : at + count]
            at += count
            if len(taus) != count:
                raise ValueError(f"need {sum(c for _, _, c in classes)} residues, got {len(flat)}")
            points += [(t, sign * level) for t in taus]
        if at != len(flat):
            raise ValueError(f"need {at} residues, got {len(flat)}")
    return Stratum(chart.n, N, b, points)


def tau_admissible(s: Stratum, k: int) -> bool:
    """Whether sum(tau_i) + k == 0 (mod N)."""
    chart, ks, _ = _facts(s)
    if k not in ks:
        raise ValueError(f"k={k} is not a valid neutral level of {chart}")
    return (s.tau_sum + k) % s.N == 0


def valid_levels(s: Stratum) -> tuple[int, ...]:
    """Neutral levels of the chart that also satisfy the residue condition."""
    try:
        return s._levels
    except AttributeError:
        pass
    t = s.tau_sum
    levels = tuple(sorted(k for k in _facts(s)[1] if (t + k) % s.N == 0))
    object.__setattr__(s, "_levels", levels)
    return levels


def is_admissible(s: Stratum) -> bool:
    return bool(valid_levels(s))


def classify_stratum(s: Stratum, k: Optional[int] = None) -> Classification:
    """Narrow or wide; the class depends on the chart alone, not on k."""
    chart, ks, wide = _facts(s)
    if k is not None:
        if k not in ks:
            raise ValueError(f"k={k} is not a valid neutral level for {chart}")
    elif not valid_levels(s):
        raise ValueError("inadmissible stratum has no classification")
    return Classification.WIDE if wide else Classification.NARROW


def dimension(s: Stratum, delta: int = 2) -> int:
    """delta*(n-1) + (n-b) + eps with eps = 1 iff wide."""
    if delta not in (1, 2):
        raise ValueError("delta must be 1 or 2")
    eps = 1 if classify_stratum(s) is Classification.WIDE else 0
    return delta * (s.n - 1) + (s.n - s.b) + eps


def quotient_dimension(s: Stratum, delta: int = 2) -> int:
    """delta*(n-1) - b + eps with eps = 1 iff wide."""
    if delta not in (1, 2):
        raise ValueError("delta must be 1 or 2")
    eps = 1 if classify_stratum(s) is Classification.WIDE else 0
    return delta * (s.n - 1) - s.b + eps


def cell_dimension(s: Stratum) -> int:
    """Dimension of the cell this stratum spans in the dual complex."""
    v = s.b + 1
    return v - 2 if classify_stratum(s) is Classification.WIDE else v - 1


def _toward_zero(x: int, j: int) -> int:
    if abs(x) < j:
        return x
    return x - 1 if x > 0 else x + 1


def smooth(s: Stratum, j: int, mode: str = "hilbert") -> Optional[Stratum]:
    """Smooth along level j: points at levels >= j move one step toward 0.

    Equivalently the chart loses its level-j vertex, and b drops by one.
    Residues stay attached to their points.  In kummer mode the result
    is returned only when admissible; hilbert mode always returns it.
    """
    mode = mode.lower()
    if mode not in ("hilbert", "kummer"):
        raise ValueError(f"unknown smoothing mode {mode!r}")
    if not 1 <= j <= s.b + 1:
        raise ValueError(f"smoothing level must lie in 1..{s.b + 1}, got {j}")
    if s.b == 0:
        raise ValueError("a b=0 stratum has no level left to smooth")
    out = Stratum(s.n, s.N, s.b - 1, [PointLabel(p.tau, _toward_zero(p.x, j)) for p in s.points])
    if mode == "kummer" and not is_admissible(out):
        return None
    return out


@functools.lru_cache(maxsize=None)
def _face_masks(verts: tuple, k: int) -> tuple[tuple[int, int], ...]:
    """(mask, face dimension) of each nonempty vertex subset valid at k.

    Masks come in increasing order, so a valid chart's full mask is last.
    Strata of one chart share the result.
    """
    v = len(verts)
    out = []
    for mask in range(1, 1 << v):
        ys = [verts[i].y for i in range(v) if mask >> i & 1]
        lo, hi = min(ys), max(ys)
        if lo < 2 * k < hi:
            out.append((mask, len(ys) - 2))
        elif lo == 2 * k == hi:
            out.append((mask, len(ys) - 1))
    return tuple(out)


def _collapse_face(s: Stratum, verts: tuple, mask: int, k: int) -> tuple[Stratum, int]:
    """The face of s on the chart vertices in mask, and k in the face's chart.

    Deleting a vertex collapses its level, so every point at or above
    it moves one step toward zero; residues ride along unchanged up to
    the canonical top-level flip.
    """
    dropped = [s.b + 1 - i for i in range(len(verts)) if not mask >> i & 1]
    b = s.b - len(dropped)
    new_level = [lv - sum(1 for d in dropped if d <= lv) for lv in range(s.b + 2)]
    points = []
    for p in s.points:
        lv = new_level[abs(p.x)]
        if p.x < 0 and lv == b + 1:
            p = PointLabel((p.tau - 1) % s.N, lv)
        elif lv != abs(p.x):
            p = PointLabel(p.tau, lv if p.x > 0 else -lv)
        points.append(p)
    points.sort(key=_point_key)
    first = verts[(mask & -mask).bit_length() - 1]
    return Stratum._canonical(s.n, s.N, b, tuple(points)), k + (first.x - first.y) // 2


def face_items(
    s: Stratum, k: int | None = None, codim: int | None = None
) -> frozenset[tuple[Stratum, int]]:
    """Proper faces of the cells this stratum spans, with inherited k.

    A face arises from a nonempty proper vertex subset of the chart
    that is still valid at one of the stratum's neutral levels k.  The
    returned k is expressed in the face's own canonical chart.  Passing
    k restricts to that single neutral level; passing codim keeps only
    the faces that many dimensions below the cell.
    """
    if k is None:
        ks = valid_levels(s)
    elif k in valid_levels(s):
        ks = (k,)
    else:
        raise ValueError("k=%d is not a neutral level of this stratum" % k)
    verts = _facts(s)[0].vertices
    items = set()
    for k in ks:
        masks = _face_masks(verts, k)
        want = None if codim is None else masks[-1][1] - codim
        for mask, dim in masks[:-1]:
            if want is None or dim == want:
                items.add(_collapse_face(s, verts, mask, k))
    return frozenset(items)


def faces(s: Stratum) -> list[Stratum]:
    """Distinct proper faces, ordered by canonical key."""
    return sorted({f for f, _ in face_items(s)}, key=canonical_key)


def specializations(s: Stratum) -> list[Stratum]:
    """Admissible strata one cell dimension up that have this one as a face.

    Covers in the face order: a wide stratum gains one chart vertex, a
    narrow one gains either one vertex at its neutral height or a pair
    straddling it, in every case with all residue distributions that
    collapse back to the given points.
    """
    if not is_admissible(s):
        raise ValueError("inadmissible stratum")
    want = cell_dimension(s) + 1
    out = []
    for t in _admissible_flat(s.n, s.N):
        if not s.b < t.b <= s.b + 2:
            continue
        if cell_dimension(t) != want:
            continue
        if any(f == s for f, _ in face_items(t, codim=1)):
            out.append(t)
    return sorted(out, key=canonical_key)


# --- occupancy vectors and the weight obstruction -------------------------


@dataclass(frozen=True)
class ExpansionTuple:
    """Tuple of b+1 positive expansion lengths."""

    r: tuple[int, ...]

    def __init__(self, r) -> None:
        rr = tuple(int(v) for v in r)
        if not rr or any(v < 1 for v in rr):
            raise ValueError("expansion entries must be positive integers")
        object.__setattr__(self, "r", rr)

    @property
    def rsum(self) -> int:
        return sum(self.r)

    def __len__(self) -> int:
        return len(self.r)

    def __iter__(self):
        return iter(self.r)

    def __getitem__(self, i):
        return self.r[i]


@dataclass(frozen=True)
class OccupancyVector:
    """Point counts per cycle component, 2N consecutive blocks."""

    b: int
    N: int
    counts: tuple[int, ...]

    def __init__(self, b: int, N: int, counts) -> None:
        b, N = int(b), int(N)
        cc = tuple(int(v) for v in counts)
        if N < 1 or b < 0:
            raise ValueError("need N >= 1 and b >= 0")
        if any(v < 0 for v in cc):
            raise ValueError("counts must be nonnegative")
        if len(cc) % (2 * N) != 0 or len(cc) < 2 * N * (b + 1):
            raise ValueError(f"count vector length {len(cc)} does not fit 2N blocks of >= b+1")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "counts", cc)

    @property
    def total(self) -> int:
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, i):
        return self.counts[i]


def m_vector(s: Stratum, r) -> OccupancyVector:
    """Occupancy over the 2*N*rsum cycle components under expansion r.

    A positive point at level k in block tau lands on component
    2*tau*rsum + (r_1 + ... + r_k), a negative one on
    2*tau*rsum - (r_1 + ... + r_k), indices mod 2*N*rsum.
    """
    r = r if isinstance(r, ExpansionTuple) else ExpansionTuple(r)
    if len(r) != s.b + 1:
        raise ValueError(f"expansion needs {s.b + 1} entries, got {len(r)}")
    rsum = r.rsum
    size = 2 * s.N * rsum
    rho = tuple(itertools.accumulate(r, initial=0))
    counts = [0] * size
    for p in s.points:
        offset = rho[abs(p.x)]
        idx = 2 * p.tau * rsum + (offset if p.x >= 0 else -offset)
        counts[idx % size] += 1
    return OccupancyVector(s.b, s.N, counts)


def occupancy(s: Stratum) -> OccupancyVector:
    """m_vector at the all-ones expansion, one component per level and sign."""
    return m_vector(s, (1,) * (s.b + 1))


def _counts_nb(m, N: Optional[int], b: Optional[int]) -> tuple[tuple[int, ...], int, int]:
    """Checked (counts, N, b) of an occupancy in the all-ones indexing."""
    if isinstance(m, OccupancyVector):
        counts, N, b = m.counts, (m.N if N is None else N), (m.b if b is None else b)
    elif N is None or b is None:
        raise ValueError("N and b are required with a bare count sequence")
    else:
        counts, N, b = tuple(int(v) for v in m), int(N), int(b)
    if len(counts) != 2 * N * (b + 1):
        raise ValueError("counts must use the all-ones indexing of length 2N(b+1)")
    return counts, N, b


def _weight_args(m, r, N: Optional[int], b: Optional[int]):
    """Checked (counts, N, b, r) for W_plus and W_minus."""
    counts, N, b = _counts_nb(m, N, b)
    r = r if isinstance(r, ExpansionTuple) else ExpansionTuple(r)
    if len(r) != b + 1:
        raise ValueError(f"expansion needs {b + 1} entries, got {len(r)}")
    return counts, N, b, r


def W_plus(m, r, N: Optional[int] = None, b: Optional[int] = None) -> int:
    """Sum of m[2*tau*(b+1) + k] * (2*tau*rsum + rho_k) over tau and k = 0..b.

    m must be in the all-ones indexing of length 2N(b+1); r supplies the
    weights rho_k = r_1 + ... + r_k.
    """
    counts, N, b, r = _weight_args(m, r, N, b)
    rsum = r.rsum
    rho = tuple(itertools.accumulate(r, initial=0))
    size = 2 * N * (b + 1)
    total = 0
    for tau in range(N):
        for k in range(b + 1):
            total += counts[(2 * tau * (b + 1) + k) % size] * (2 * tau * rsum + rho[k])
    return total


def W_minus(m, r, N: Optional[int] = None, b: Optional[int] = None) -> int:
    """Sum of m[2*tau*(b+1) - k] * (2*tau*rsum - rho_k) over tau and k = 1..b+1."""
    counts, N, b, r = _weight_args(m, r, N, b)
    rsum = r.rsum
    rho = tuple(itertools.accumulate(r, initial=0))
    size = 2 * N * (b + 1)
    total = 0
    for tau in range(N):
        for k in range(1, b + 2):
            total += counts[(2 * tau * (b + 1) - k) % size] * (2 * tau * rsum - rho[k])
    return total


# The weight is linear in the tuple: W_plus + W_minus == s2 * rsum +
# sum(coeff[i] * r[i]).  For a fixed total the reachable values are
# exactly the sums of (total - parts) draws from the coefficients, so the
# bounded scan keeps a bitset per draw count and reads every total's
# residues off it.  That is a complete scan of the finite search space;
# it just never materializes the tuples.


def _scan_coefficients(counts, N: int, b: int) -> tuple[int, list[int]]:
    size = 2 * N * (b + 1)
    period = b + 1
    s2 = 0
    diff = [0] * (b + 2)  # occupied-above minus occupied-below, per level
    for tau in range(N):
        base = 2 * tau * period
        for k in range(b + 1):
            c = counts[(base + k) % size]
            s2 += 2 * tau * c
            if k >= 1:
                diff[k] += c
        for k in range(1, b + 2):
            c = counts[(base - k) % size]
            s2 += 2 * tau * c
            diff[k] -= c
    coeff = list(itertools.accumulate(diff[:0:-1]))[::-1]
    return s2, coeff


def _scan_bound(counts, N: int, b: int, bound: int) -> Optional[tuple[int, ...]]:
    """Smallest-total expansion tuple whose weight vanishes mod 2 N rsum."""
    s2, coeff = _scan_coefficients(counts, N, b)
    parts = b + 1
    cmin = min(coeff)
    shifts = sorted({c - cmin for c in coeff})
    masks = [1]  # masks[m] has bit x set iff x is a sum of m shifted draws
    for total in range(parts, bound + 1):
        m = total - parts
        while len(masks) <= m:
            prev = masks[-1]
            grown = 0
            for v in shifts:
                grown |= prev << v
            masks.append(grown)
        q = 2 * N * total
        lo = s2 * total + sum(coeff) + cmin * m
        hi = lo + shifts[-1] * m
        value = -(-lo // q) * q
        while value <= hi:
            if masks[m] >> (value - lo) & 1:
                return _scan_witness(coeff, shifts, masks, m, value - lo)
            value += q
    return None


def _scan_witness(coeff, shifts, masks, m: int, x: int) -> tuple[int, ...]:
    draws = {v: 0 for v in shifts}
    for step in range(m, 0, -1):
        for v in shifts:
            if x >= v and masks[step - 1] >> (x - v) & 1:
                draws[v] += 1
                x -= v
                break
        else:
            raise RuntimeError("bitset walk lost its witness")
    cmin = min(coeff)
    r = [1] * len(coeff)
    for v, count in draws.items():
        if count:
            r[coeff.index(v + cmin)] += count
    return tuple(r)


def _cancelling_shift(counts, N: int, b: int) -> Optional[list[int]]:
    """First A - 2Nt, over t, that is all zero or takes both signs.

    A_i = s2 + coeff_i is the coefficient of r_i in W_plus + W_minus, so
    the congruence mod 2N*rsum asks for an integer t with
    sum((A_i - 2Nt) r_i) == 0 over positive r_i.  That has a solution iff
    the shifted coefficients are all zero or take both signs, and only t
    between min(A)/2N and max(A)/2N can work, so the scan is finite.
    """
    s2, coeff = _scan_coefficients(counts, N, b)
    A = [s2 + c for c in coeff]
    step = 2 * N
    for t in range(-((-min(A)) // step), max(A) // step + 1):
        shifted = [a - step * t for a in A]
        if all(v == 0 for v in shifted) or min(shifted) < 0 < max(shifted):
            return shifted
    return None


def r_exists(m, N: Optional[int] = None, b: Optional[int] = None) -> bool:
    """Decide whether some positive expansion cancels the combined weight."""
    return _cancelling_shift(*_counts_nb(m, N, b)) is not None


def find_admissible_r(
    m, bound: Optional[int] = None, N: Optional[int] = None, b: Optional[int] = None
) -> Optional[ExpansionTuple]:
    """Produce a witness expansion, or None when none exists.

    Without a bound the witness is built from the shifted coefficients
    behind r_exists.  With a bound the search is instead the exhaustive
    bitset scan over positive expansions with rsum <= bound, an
    independent cross-check that cannot certify nonexistence beyond the
    bound.  It returns a witness of the smallest total; which of the
    tuples with that total it returns is unspecified.  Either witness is
    verified through W_plus and W_minus before being returned.
    """
    counts, N, b = _counts_nb(m, N, b)
    if bound is not None:
        found = _scan_bound(counts, N, b, bound)
        if found is None:
            return None
        witness = ExpansionTuple(found)
    else:
        shifted = _cancelling_shift(counts, N, b)
        if shifted is None:
            return None
        witness = [1] * (b + 1)
        if any(shifted):
            i_pos = max(range(b + 1), key=lambda i: shifted[i])
            i_neg = min(range(b + 1), key=lambda i: shifted[i])
            scale = [1] * (b + 1)
            rest = sum(shifted[i] for i in range(b + 1) if i not in (i_pos, i_neg))
            # enlarge the negative slot until the sum without i_pos drops below zero
            scale[i_neg] = max(1, -(-(rest + 1) // -shifted[i_neg]))
            partial = rest + scale[i_neg] * shifted[i_neg]
            witness = [shifted[i_pos] * scale[i] for i in range(b + 1)]
            witness[i_pos] = -partial
        witness = ExpansionTuple(witness)
    combined = W_plus(counts, witness, N, b) + W_minus(counts, witness, N, b)
    if combined % (2 * N * witness.rsum):
        raise RuntimeError("witness failed the weight check")
    return witness


# --- enumeration -----------------------------------------------------------


def _level_splits(budget: int, levels: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sign splits (positive, negative) per level, each totalling >= 1."""
    if levels == 0:
        yield ()
        return
    for total in range(1, budget - (levels - 1) + 1):
        for p in range(total + 1):
            head = ((p, total - p),)
            for rest in _level_splits(budget - total, levels - 1):
                yield head + rest


def _shapes(n: int, b: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...], int]]:
    """Point counts (top level, splits for levels b..1, level 0)."""
    for c_top in range(n - b + 1):
        for splits in _level_splits(n - c_top, b):
            used = c_top + sum(p + q for p, q in splits)
            yield c_top, splits, n - used


def _shape_vertices(shape) -> tuple[tuple[int, int], ...]:
    c_top, splits, _ = shape
    x = y = c_top
    verts = [(x, y)]
    for p, q in splits:
        x += p + q
        y += p - q
        verts.append((x, y))
    return tuple(verts)


def _shape_classes(shape) -> list[tuple[int, int, int]]:
    c_top, splits, c0 = shape
    b = len(splits)
    out = []
    if c_top:
        out.append((b + 1, 1, c_top))
    for i, (p, q) in enumerate(splits):
        if p:
            out.append((b - i, 1, p))
        if q:
            out.append((b - i, -1, q))
    if c0:
        out.append((0, 0, c0))
    return out


def iter_strata(
    n: int, N: int, b: Optional[int] = None, admissible_only: bool = False
) -> Iterator[Stratum]:
    """All canonical stratum labels, optionally fixing b or filtering admissible."""
    if n < 1 or N < 1:
        raise ValueError("need n >= 1 and N >= 1")
    for bb in range(n + 1) if b is None else (b,):
        for shape in _shapes(n, bb):
            chart = _chart_facts(n, _shape_vertices(shape))
            ks = chart[1]
            if admissible_only and not ks:
                continue
            targets = {(-k) % N for k in ks}
            classes = _shape_classes(shape)
            # per class: (residue sum, points) for each residue multiset
            pools = [
                [
                    (sum(taus), tuple(PointLabel(t, sign * level) for t in taus))
                    for taus in itertools.combinations_with_replacement(range(N), count)
                ]
                for level, sign, count in classes
            ]
            # classes run from the top level down; canonical points run upward
            order = sorted(range(len(classes)), key=lambda i: (classes[i][0], -classes[i][1]))
            for combo in itertools.product(*pools):
                if admissible_only and sum(t for t, _ in combo) % N not in targets:
                    continue
                points = tuple(p for i in order for p in combo[i][1])
                yield Stratum._canonical(n, N, bb, points, chart)


@functools.lru_cache(maxsize=None)
def _admissible_flat(n: int, N: int) -> tuple[Stratum, ...]:
    return tuple(sorted(iter_strata(n, N, admissible_only=True), key=canonical_key))


def enumerate_admissible(n: int, N: int) -> dict[int, tuple[Stratum, ...]]:
    """Canonical admissible strata grouped by cell dimension, top first."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    groups: dict[int, list[Stratum]] = {}
    for s in _admissible_flat(n, N):
        groups.setdefault(cell_dimension(s), []).append(s)
    return {d: tuple(groups[d]) for d in sorted(groups, reverse=True)}


# --- literals ---------------------------------------------------------------

_STRATUM_RE = re.compile(r"^X\{\s*n=(\d+)\s*;\s*N=(\d+)\s*;\s*b=(\d+)\s*;\s*\[(.*)\]\s*\}$")
_POINT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*([+-]?\d+)\s*\)")


def parse_stratum(text: str) -> Stratum:
    """Parse a literal like X{n=3;N=2;b=1;[(0,+1),(1,+1),(0,-2)]}.

    Pairs are (tau, x).  Parsing canonicalizes, so formatting the result
    round-trips exactly on canonical literals.
    """
    m = _STRATUM_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a stratum literal: {text!r}")
    body = m.group(4)
    leftover = _POINT_RE.sub("", body).replace(",", "").strip()
    if leftover:
        raise ValueError(f"unparsed stratum content: {leftover!r}")
    pts = [(int(t), int(x)) for t, x in _POINT_RE.findall(body)]
    return Stratum(int(m.group(1)), int(m.group(2)), int(m.group(3)), pts)


def format_stratum(s: Stratum) -> str:
    body = ",".join(str(p) for p in s.points)
    return f"X{{n={s.n};N={s.N};b={s.b};[{body}]}}"
