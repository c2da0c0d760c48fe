"""Stratum labels and their admissibility.

A stratum records, for each of n points, a residue tau modulo N (which
cycle block the point sits in) and a signed level x with |x| <= b+1.
The level data alone determines a line chart (see linechart); the
stratum is admissible when some neutral level k of that chart satisfies
sum(tau_i) + k == 0 (mod N).  An independent route to the same decision
goes through the occupancy m and the weighted sums W_plus and W_minus,
which must cancel mod 2*N*sum(r) for some expansion tuple r of positive
integers.  The four weight oracles take m as one OccupancyVector, whose
own N and b fix the sums.  Both routes live here; the test suite checks
they agree.  The weight route decides existence from the coefficients A
of the weight in r: it admits exactly when a multiple of 2N lies strictly
between min(A) and max(A), or equals every A_i.  find_admissible_r with a
bound instead runs an exhaustive bitset scan over every tuple up to that
total, which returns a witness of the smallest total (the order among
tuples of equal total is unspecified).  Both answers are remembered per
coefficient class, so each class is scanned once.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .linechart import (
    Classification,
    LineChart,
    _literal_int,
    valid_neutral_levels,
    validate,
)
from .polytope import _slice_faces


class PointLabel(NamedTuple):
    """One point: cycle-block residue tau and signed level x."""

    tau: int
    x: int

    def __str__(self) -> str:
        return _point_template(self.x) % self.tau


@dataclass(frozen=True)
class Stratum:
    """Canonical stratum label.

    Construction normalizes its input: residues are reduced mod N,
    points at the top level b+1 with negative sign flip to the positive
    side while their residue drops by one, and points are sorted by |x|,
    positive before negative, then by tau.
    Validation enforces |x| <= b+1 and stability, meaning every level
    1..b carries at least one point.

    The chart facts and the valid levels live in the ``_chart`` and
    ``_levels`` slots.  iter_strata sets both as it enumerates, reading
    the levels off a per-chart table by residue sum; any other stratum
    computes them on first use.  They are not fields, so equality,
    hashing and repr ignore them.
    """

    __slots__ = ("n", "N", "b", "points", "_chart", "_levels")
    n: int
    N: int
    b: int
    points: tuple[PointLabel, ...]

    def __init__(self, n: int, N: int, b: int, points) -> None:
        if type(n) is not int or type(N) is not int or type(b) is not int:  # ints skip the check
            n, N, b = _indices((n, N, b), "n, N and b")
        if N < 1:
            raise ValueError(f"N must be >= 1, got N={N}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got n={n}")
        if not 0 <= b <= n:
            raise ValueError(f"b must lie in 0..n, got b={b} with n={n}")
        pts = []
        for raw in points:
            try:
                tau, x = raw
                tau, x = operator.index(tau), operator.index(x)
            except (TypeError, ValueError):
                raise ValueError(f"point {raw!r} needs an integer residue and level") from None
            if abs(x) > b + 1:
                raise ValueError(f"level |{x}| exceeds b+1={b + 1}")
            if x == -(b + 1):
                # flip to the positive side of the top level; the cycle
                # block shifts down by one
                tau, x = tau - 1, b + 1
            pts.append(PointLabel(tau % N, x))
        if len(pts) != n:
            raise ValueError(f"expected {n} points, got {len(pts)}")
        pts.sort(key=lambda p: (abs(p.x), p.x < 0, p.tau))
        occupied = {abs(p.x) for p in pts}
        missing = [lv for lv in range(1, b + 1) if lv not in occupied]
        if missing:
            raise ValueError(f"unstable stratum, empty level(s) {missing}")
        _set_n(self, n)
        _set_N(self, N)
        _set_b(self, b)
        _set_points(self, tuple(pts))

    def __reduce__(self):  # copy and pickle cannot set frozen slots; the constructor can
        return Stratum, (self.n, self.N, self.b, self.points)

    @classmethod
    def _canonical(cls, n: int, N: int, b: int, points: tuple, chart=None, levels=None) -> "Stratum":
        """Trusted constructor for points the engine holds in canonical form.

        The points must already be reduced mod N, flipped at the top level,
        in canonical order and stable; nothing is checked.  chart, when
        given, is the _chart_facts entry of the stratum's chart, and
        levels its valid_levels.  The slots are filled through their
        descriptors, which the frozen __setattr__ does not guard.
        """
        s = object.__new__(cls)
        _set_n(s, n)
        _set_N(s, N)
        _set_b(s, b)
        _set_points(s, points)
        if chart is not None:
            _set_chart(s, chart)
        if levels is not None:
            _set_levels(s, levels)
        return s

    @property
    def tau_sum(self) -> int:
        return sum(p.tau for p in self.points) % self.N

    def __str__(self) -> str:
        return format_stratum(self)


# the slot setters, captured once: cheaper than object.__setattr__ by name
_set_n, _set_N, _set_b, _set_points, _set_chart, _set_levels = (
    Stratum.__dict__[name].__set__ for name in Stratum.__slots__)


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
    _set_chart(s, facts)
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

    def split(level, dx, dy):  # a step of dx points with net sign dy
        if dx + dy:
            out.append((level, 1, (dx + dy) // 2))
        if dx - dy:
            out.append((level, -1, (dx - dy) // 2))

    for i in range(b, 0, -1):
        split(b + 1 - i, verts[i].x - verts[i - 1].x, verts[i].y - verts[i - 1].y)
    if chart.n - verts[-1].x:
        out.append((0, 0, chart.n - verts[-1].x))
    split(b + 1, verts[0].x, verts[0].y)
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
    if not isinstance(tau_assignment, Mapping):
        flat = tuple(tau_assignment)
        if len(flat) != chart.n:  # the classes hold every point
            raise ValueError(f"need {chart.n} residues, got {len(flat)}")
        rest = iter(flat)
        tau_assignment = {(lv, sg): tuple(itertools.islice(rest, c)) for lv, sg, c in classes}
    unknown = set(tau_assignment) - {(lv, sg) for lv, sg, _ in classes}
    if any(len(tuple(tau_assignment[key])) for key in unknown):
        raise ValueError(f"residues supplied for absent classes {sorted(unknown)}")
    points = []
    for level, sign, count in classes:
        taus = tuple(tau_assignment.get((level, sign), ()))
        if len(taus) != count:
            raise ValueError(
                f"class (level={level}, sign={sign:+d}) needs {count} residues, got {len(taus)}"
            )
        points += [(t, sign * level) for t in taus]
    return Stratum(chart.n, N, len(chart.vertices) - 1, points)


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
    _set_levels(s, levels)
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
        raise ValueError(f"inadmissible stratum has no classification: {format_stratum(s)}")
    return Classification.WIDE if wide else Classification.NARROW


def dimension(s: Stratum, delta: int = 2) -> int:
    """delta*(n-1) + (n-b) + eps with eps = 1 iff wide: the quotient dimension plus n."""
    return quotient_dimension(s, delta) + s.n


def quotient_dimension(s: Stratum, delta: int = 2) -> int:
    """delta*(n-1) - b + eps with eps = 1 iff wide."""
    if delta not in (1, 2):
        raise ValueError(f"delta must be 1 or 2, got delta={delta}")
    eps = 1 if classify_stratum(s) is Classification.WIDE else 0
    return delta * (s.n - 1) - s.b + eps


def cell_dimension(s: Stratum) -> int:
    """Dimension of the cell this stratum spans in the dual complex."""
    v = s.b + 1
    return v - 2 if classify_stratum(s) is Classification.WIDE else v - 1


def smooth(s: Stratum, j: int, mode: str = "hilbert") -> Optional[Stratum]:
    """Smooth along level j: points at levels >= j move one step toward 0.

    This is the face on every chart vertex but the level-j one, so b
    drops by one and residues stay attached to their points.  In kummer
    mode the result is returned only when admissible; hilbert mode
    always returns it.
    """
    mode = mode.lower()
    if mode not in ("hilbert", "kummer"):
        raise ValueError(f"unknown smoothing mode {mode!r}")
    if not 1 <= j <= s.b + 1:
        raise ValueError(f"smoothing level must lie in 1..{s.b + 1}, got {j}")
    if s.b == 0:
        raise ValueError(f"a b=0 stratum has no level left to smooth: {format_stratum(s)}")
    chart = _facts(s)[0]
    plan = _face_plan(chart, _point_runs(chart), ((1 << s.b + 1) - 1) & ~(1 << s.b + 1 - j), 0, 0)
    out = plan.stratum(s.n, s.N, plan.residues(_residues(s), s.N))
    if mode == "kummer" and not is_admissible(out):
        return None
    return out


class FacePlan(NamedTuple):
    """The face on the chart vertices in mask, for every stratum of one chart.

    Deleting a vertex collapses its level: each point at or above it moves
    one step toward zero, and one landing on -(b+1) flips to b+1 with its
    residue lowered by one.  Points of equal x form runs fixed by the
    chart, so a face reads its residues off the stratum's: a segment
    (lo, hi, None) copies residues lo..hi-1, a segment (0, 0, merged)
    shifts, merges and sorts those of its (lo, hi, shift) source runs.
    b, xs (x per point) and k are the face's own.
    """

    mask: int
    dim: int
    b: int
    xs: tuple[int, ...]
    k: int
    segments: tuple

    def residues(self, taus: tuple[int, ...], N: int) -> tuple[int, ...]:
        out = []
        for lo, hi, merged in self.segments:
            out += taus[lo:hi] if merged is None else sorted(
                [(t + shift) % N for lo, hi, shift in merged for t in taus[lo:hi]])
        return tuple(out)

    def stratum(self, n: int, N: int, taus) -> Stratum:
        return Stratum._canonical(n, N, self.b, tuple(map(PointLabel, taus, self.xs)))


def _point_runs(chart: LineChart) -> list[tuple[int, int, int, int]]:
    """(level, sign, lo, hi) of each run of points of equal x, in point order."""
    out, lo = [], 0
    for level, sign, count in sorted(_chart_classes(chart), key=lambda c: (c[0], -c[1])):
        out.append((level, sign, lo, lo + count))
        lo += count
    return out


def _face_plan(chart: LineChart, runs, mask: int, k: int, dim: int) -> FacePlan:
    v = len(chart.vertices)
    new_level = [0]  # a point at level l lands on the kept vertices at levels 1..l
    for lv in range(1, v + 1):
        new_level.append(new_level[-1] + (mask >> v - lv & 1))
    top = new_level[v]
    groups: dict[int, list] = {}  # 2|x| + (x < 0) of a face x -> its source runs
    for level, sign, lo, hi in runs:
        lv = new_level[level]
        if sign < 0 and lv == top:
            groups.setdefault(2 * lv, []).append((lo, hi, -1))
        else:
            groups.setdefault(2 * lv + (sign < 0 < lv), []).append((lo, hi, 0))
    xs, segments = [], []
    for key in sorted(groups):
        sources = groups[key]
        lo, hi, shift = sources[0]
        for a, b, _ in sources:
            xs += [-(key >> 1) if key & 1 else key >> 1] * (b - a)
        if len(sources) > 1 or shift:
            segments.append((0, 0, tuple(sources)))
        elif segments and segments[-1][1:] == (lo, None):
            segments[-1] = (segments[-1][0], hi, None)
        else:
            segments.append((lo, hi, None))
    first = chart.vertices[(mask & -mask).bit_length() - 1]
    return FacePlan(mask, dim, top - 1, tuple(xs), k + (first.x - first.y) // 2, tuple(segments))


def _sides(verts: tuple, k: int) -> tuple[int, int, int]:
    """Bitmasks of the vertices above, below and on the neutral line y = 2k."""
    sides = [0, 0, 0]
    for i, v in enumerate(verts):
        sides[2 if v.y == 2 * k else v.y < 2 * k] |= 1 << i
    return tuple(sides)


def _face_masks(verts: tuple, k: int) -> list[tuple[int, int]]:
    """(mask, face dimension) of each face of the chart's cell at k; a valid
    chart's full mask is last."""
    return _slice_faces(*_sides(verts, k))


def _plans(chart: LineChart, k: int, codim: Optional[int] = None) -> tuple[FacePlan, ...]:
    """Plans of the proper faces of a cell of the chart at k, or of those codim below it."""
    masks, runs = _face_masks(chart.vertices, k), _point_runs(chart)
    want = None if codim is None else masks[-1][1] - codim
    return tuple(_face_plan(chart, runs, mask, k, dim) for mask, dim in masks[:-1]
                 if want is None or dim == want)


def _residues(s: Stratum) -> tuple[int, ...]:
    return tuple(map(operator.itemgetter(0), s.points))


def face_items(s: Stratum, k: int | None = None) -> frozenset[tuple[Stratum, int]]:
    """Proper faces of the cells this stratum spans, with inherited k.

    A face arises from a nonempty proper vertex subset of the chart
    that is still valid at one of the stratum's neutral levels k.  The
    returned k is expressed in the face's own canonical chart.  Passing
    k restricts to that single neutral level.
    """
    if k is None:
        ks = valid_levels(s)
    elif k in valid_levels(s):
        ks = (k,)
    else:
        raise ValueError(f"k={k} is not a neutral level of this stratum {format_stratum(s)}")
    chart, taus = _facts(s)[0], _residues(s)
    return frozenset((plan.stratum(s.n, s.N, plan.residues(taus, s.N)), plan.k)
                     for k in ks for plan in _plans(chart, k))


def faces(s: Stratum) -> list[Stratum]:
    """Distinct proper faces, ordered by canonical key."""
    return sorted({f for f, _ in face_items(s)}, key=canonical_key)


def specializations(s: Stratum) -> list[Stratum]:
    """Admissible strata one cell dimension up that have this one as a face.

    Covers in the face order: a wide stratum gains one chart vertex, a
    narrow one gains either one vertex at its neutral height or a pair
    straddling it, in every case with all residue distributions that
    collapse back to the given points.  They are read off the cover
    relation of the dual complex at (n, N); the first call at an (n, N)
    builds that complex, and build keeps it.  For n = 1 every admissible
    stratum is an isolated point, so the list is empty.
    """
    if not is_admissible(s):
        raise ValueError(f"inadmissible stratum: {format_stratum(s)}")
    if s.n < 2:
        return []
    # dualcomplex imports this module, so build is imported on first use
    from .dualcomplex import build

    cx = build(s.n, s.N)
    ups = {t for c in cx.by_stratum[s] for t in cx.up[c.id]}
    return sorted({cx.by_id[t].stratum for t in ups}, key=canonical_key)


# --- occupancy vectors and the weight obstruction -------------------------


def _indices(values, what: str) -> tuple[int, ...]:
    """The values as ints by operator.index; a non-integer is refused as one of what."""
    try:
        values = tuple(values)
        return tuple(map(operator.index, values))
    except TypeError:  # values is still the input itself when it is not iterable
        bad = values if not isinstance(values, tuple) else next(
            v for v in values if not hasattr(v, "__index__"))
        raise ValueError(f"{what} must be integers, got {bad!r}") from None


@dataclass(frozen=True)
class ExpansionTuple:
    """Tuple of b+1 positive expansion lengths."""

    r: tuple[int, ...]

    def __init__(self, r) -> None:
        rr = _indices(r, "expansion entries")
        if not rr or min(rr) < 1:
            raise ValueError(f"expansion entries must be positive integers, got {rr}")
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
    """Point counts in the all-ones indexing: 2N blocks of b+1 components.

    A point (tau, x) sits on component 2(b+1)tau + x mod 2N(b+1), so counts
    has length exactly 2N(b+1).  This is the record the weight oracles
    W_plus, W_minus, r_exists and find_admissible_r take.
    """

    b: int
    N: int
    counts: tuple[int, ...]

    def __init__(self, b: int, N: int, counts) -> None:
        b, N = _indices((b, N), "b and N")
        cc = _indices(counts, "counts")
        if N < 1 or b < 0:
            raise ValueError(f"need N >= 1 and b >= 0, got N={N}, b={b}")
        if any(v < 0 for v in cc):
            raise ValueError(f"counts must be nonnegative, got {cc}")
        if len(cc) != 2 * N * (b + 1):
            raise ValueError("counts must use the all-ones indexing of length 2N(b+1), "
                             f"got length {len(cc)} for 2N(b+1) = {2 * N * (b + 1)}")
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


def m_vector(s: Stratum, r) -> tuple[int, ...]:
    """Point counts over the 2*N*rsum cycle components under expansion r.

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
    return tuple(counts)


def occupancy(s: Stratum) -> OccupancyVector:
    """The OccupancyVector of s: m_vector's counts at the all-ones expansion.

    A point lands on component 2(b+1)tau + x mod 2N(b+1); the vector is valid
    by construction, so it skips the constructor's checks.
    """
    period = s.b + 1
    size = 2 * s.N * period
    counts = [0] * size
    for tau, x in s.points:
        counts[(2 * period * tau + x) % size] += 1
    m = object.__new__(OccupancyVector)
    object.__setattr__(m, "b", s.b)
    object.__setattr__(m, "N", s.N)
    object.__setattr__(m, "counts", tuple(counts))
    return m


def _weight(m: OccupancyVector, r, sign: int) -> int:
    """W_plus (sign 1, k = 0..b) or W_minus (sign -1, k = 1..b+1)."""
    if not isinstance(m, OccupancyVector):
        raise ValueError(f"the oracles take an OccupancyVector, got {m!r}")
    counts, N, b = m.counts, m.N, m.b
    r = r if isinstance(r, ExpansionTuple) else ExpansionTuple(r)
    if len(r) != b + 1:
        raise ValueError(f"expansion needs {b + 1} entries, got {len(r)}")
    rsum = r.rsum
    rho = tuple(itertools.accumulate(r, initial=0))
    size = 2 * N * (b + 1)
    ks = range(b + 1) if sign > 0 else range(1, b + 2)
    return sum(counts[(2 * tau * (b + 1) + sign * k) % size] * (2 * tau * rsum + sign * rho[k])
               for tau in range(N) for k in ks)


def W_plus(m: OccupancyVector, r) -> int:
    """Sum of m[2*tau*(b+1) + k] * (2*tau*rsum + rho_k) over tau and k = 0..b.

    m is an OccupancyVector, whose N and b fix the sum; r supplies the
    weights rho_k = r_1 + ... + r_k and needs b+1 entries.
    """
    return _weight(m, r, 1)


def W_minus(m: OccupancyVector, r) -> int:
    """Sum of m[2*tau*(b+1) - k] * (2*tau*rsum - rho_k) over tau and k = 1..b+1."""
    return _weight(m, r, -1)


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


# (class, bound) -> the bounded scan's witness, or with bound None the cancelling shift
_CLASS_RESULTS: dict[tuple, Optional[tuple[int, ...]]] = {}


def _class_of(m: OccupancyVector) -> tuple[int, int, int, tuple[int, ...]]:
    """(N, b, s2 mod 2N, coeff), which fixes both oracles' answers: moving s2 by
    2N moves each scan target by a multiple of its modulus 2N*total and the
    cancelling shift's t by one.  The vector keeps its class in an attribute
    that is not a field, so equality and repr ignore it."""
    if not isinstance(m, OccupancyVector):
        raise ValueError(f"the oracles take an OccupancyVector, got {m!r}")
    if not hasattr(m, "_class"):
        s2, coeff = _scan_coefficients(m.counts, m.N, m.b)
        object.__setattr__(m, "_class", (m.N, m.b, s2 % (2 * m.N), tuple(coeff)))
    return m._class


def _class_result(key: tuple, bound: Optional[int], counts=None) -> Optional[tuple[int, ...]]:
    """The memoised answer; counts, the occupancy asking, only names it in an error."""
    if (key, bound) not in _CLASS_RESULTS:
        N, b, s2, coeff = key
        try:
            _CLASS_RESULTS[key, bound] = (_cancelling_shift(N, s2, coeff) if bound is None
                                          else _class_scan(N, b, s2, coeff, bound))
        except RuntimeError as exc:  # the bitset walk lost its witness
            raise RuntimeError(f"{exc} for counts {counts} with N={N}, b={b}") from None
    return _CLASS_RESULTS[key, bound]


def _class_scan(N: int, b: int, s2: int, coeff: tuple, bound: int) -> Optional[tuple[int, ...]]:
    """Smallest-total expansion tuple whose weight vanishes mod 2 N rsum."""
    parts = b + 1
    cmin = min(coeff)
    shifts = sorted({c - cmin for c in coeff})
    masks = [1]  # masks[m] has bit x set iff x is a sum of m shifted draws
    csum = sum(coeff)
    for total in range(parts, bound + 1):
        m = total - parts
        if m:  # one draw more than the last total
            grown = 0
            for v in shifts:
                grown |= masks[-1] << v
            masks.append(grown)
        q = 2 * N * total
        lo = s2 * total + csum + cmin * m
        hi = lo + shifts[-1] * m
        mask = masks[m]
        value = -(-lo // q) * q
        while value <= hi:
            if mask >> (value - lo) & 1:
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
            raise RuntimeError(f"bitset walk lost its witness at {step} of {m} draws")
    cmin = min(coeff)
    r = [1] * len(coeff)
    for v, count in draws.items():
        if count:
            r[coeff.index(v + cmin)] += count
    return tuple(r)


def _cancelling_shift(N: int, s2: int, coeff: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """A - 2Nt for the one t that can work, if it is all zero or takes both signs.

    A_i = s2 + coeff_i is the coefficient of r_i in W_plus + W_minus, so
    the congruence mod 2N*rsum asks for an integer t with
    sum((A_i - 2Nt) r_i) == 0 over positive r_i.  That has a solution iff
    the shifted coefficients are all zero or take both signs, that is iff
    2Nt lies strictly between min(A) and max(A) or equals every A_i; the
    only candidate is the least t with 2Nt > min(A), or min(A) // 2N when
    all A_i are equal.
    """
    A = [s2 + c for c in coeff]
    lo, hi = min(A), max(A)
    t = lo // (2 * N) + (lo < hi)
    shifted = tuple(a - 2 * N * t for a in A)
    return shifted if min(shifted) < 0 < max(shifted) or not any(shifted) else None


def r_exists(m: OccupancyVector) -> bool:
    """Decide whether some positive expansion cancels the combined weight of m."""
    return _class_result(_class_of(m), None) is not None


def find_admissible_r(m: OccupancyVector, bound: Optional[int] = None) -> Optional[ExpansionTuple]:
    """Produce a witness expansion for the OccupancyVector m, or None when none exists.

    Without a bound the witness is built from the shifted coefficients
    behind r_exists.  With a bound the search is instead the exhaustive
    bitset scan over positive expansions with rsum <= bound, an
    independent cross-check that cannot certify nonexistence beyond the
    bound.  It returns a witness of the smallest total; which of the
    tuples with that total it returns is unspecified.  Either witness is
    verified through W_plus and W_minus before being returned.
    """
    try:
        bound = None if bound is None else operator.index(bound)
    except TypeError:
        raise ValueError(f"bound must be an integer, got {bound!r}") from None
    found = _class_result(_class_of(m), bound, m.counts)
    if found is None:
        return None
    if bound is not None:
        witness = ExpansionTuple(found)
    else:  # r_i = M on positive, P on negative, 1 on zero slots: M*P - P*M = 0
        P, M = sum(v for v in found if v > 0), -sum(v for v in found if v < 0)
        witness = ExpansionTuple([M if v > 0 else P if v < 0 else 1 for v in found])
    if (_weight(m, witness, 1) + _weight(m, witness, -1)) % (2 * m.N * witness.rsum):
        raise RuntimeError(f"witness {witness.r} failed the weight check "
                           f"for counts {m.counts} with N={m.N}, b={m.b}")
    return witness


# --- enumeration -----------------------------------------------------------


def _canonical_charts(n: int, b: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Canonical vertex tuples of the charts on n points with b+1 vertices.

    The first vertex (c, c) sits on the diagonal, c = 0..n-b; each step
    down one level adds (t, 2p - t) for t >= 1 points, p of them
    positive, t ascending and then p = 0..t.
    """

    def steps(verts, left, levels):
        if not levels:
            yield verts
            return
        x, y = verts[-1]
        for t in range(1, left - levels + 2):
            for p in range(t + 1):
                yield from steps(verts + ((x + t, y + 2 * p - t),), left - t, levels - 1)

    for c in range(n - b + 1):
        yield from steps(((c, c),), n - c, b)


def iter_strata(
    n: int, N: int, b: Optional[int] = None, admissible_only: bool = False
) -> Iterator[Stratum]:
    """All canonical stratum labels, optionally fixing b or filtering admissible.

    Yield order: b ascending, then charts in _canonical_charts order, then
    the itertools.product of the residue multisets of the chart's classes,
    taken top level first and positives first within a level.
    """
    if b is None:
        n, N = _indices((n, N), "n and N")
    else:
        n, N, b = _indices((n, N, b), "n, N and b")
    if n < 1 or N < 1:
        raise ValueError(f"need n >= 1 and N >= 1, got (n, N) = ({n}, {N})")
    if b is not None and not 0 <= b <= n:
        raise ValueError(f"b must lie in 0..n, got b={b} with n={n}")
    for bb in range(n + 1) if b is None else (b,):
        for verts in _canonical_charts(n, bb):
            facts = _chart_facts(n, verts)
            if admissible_only and not facts[1]:
                continue
            # by_sum[r]: valid_levels of every stratum of this chart with residue sum r
            by_sum = [tuple(sorted(k for k in facts[1] if (r + k) % N == 0)) for r in range(N)]
            classes = sorted(_chart_classes(facts[0]), reverse=True)
            # per class: (residue sum, points) for each residue multiset
            pools = [
                [
                    (sum(taus), tuple(PointLabel(t, sign * level) for t in taus))
                    for taus in itertools.combinations_with_replacement(range(N), count)
                ]
                for level, sign, count in classes
            ]
            # classes run from the top level down, canonical points upward:
            # the last class's points come after those of head, before rest
            order = sorted(range(len(classes)), key=lambda i: (classes[i][0], -classes[i][1]))
            at = order.index(len(classes) - 1)
            head, rest = order[:at], order[at + 1:]
            # tails[r]: the last pool's points, in order, that suit a prefix of
            # sum r, with the levels of the whole
            last = pools.pop()
            tails = [[(pts, by_sum[(r + t) % N]) for t, pts in last
                      if not admissible_only or by_sum[(r + t) % N]] for r in range(N)]
            for prefix in itertools.product(*pools):
                before = tuple(p for i in head for p in prefix[i][1])
                after = tuple(p for i in rest for p in prefix[i][1])
                for pts, levels in tails[sum(t for t, _ in prefix) % N]:
                    yield Stratum._canonical(n, N, bb, before + pts + after, facts, levels)


@functools.lru_cache(maxsize=None)
def _admissible_flat(n: int, N: int) -> tuple[Stratum, ...]:
    return tuple(iter_strata(n, N, admissible_only=True))


def enumerate_admissible(n: int, N: int) -> dict[int, tuple[Stratum, ...]]:
    """Canonical admissible strata grouped by cell dimension, top first."""
    n, N = _indices((n, N), "n and N")
    if n < 2:
        raise ValueError(f"n must be >= 2, got n={n}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got N={N}")
    groups: dict[int, list[Stratum]] = {}
    for s in sorted(_admissible_flat(n, N), key=canonical_key):
        groups.setdefault(cell_dimension(s), []).append(s)
    return {d: tuple(groups[d]) for d in sorted(groups, reverse=True)}


# --- literals ---------------------------------------------------------------

_STRATUM_RE = re.compile(r"^X\{\s*n=(\d+)\s*;\s*N=(\d+)\s*;\s*b=(\d+)\s*;\s*\[(.*)\]\s*\}$",
                         re.ASCII)
_POINT_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*([+-]?\d+)\s*\)", re.ASCII)


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
    pts = [(_literal_int(t, "stratum", "tau"), _literal_int(x, "stratum", "x"))
           for t, x in _POINT_RE.findall(body)]
    return Stratum(*(_literal_int(m.group(i), "stratum", f) for i, f in enumerate("nNb", 1)), pts)


def _point_template(x: int) -> str:
    """A point's literal at level x, with ``%d`` left for its residue."""
    return "(%%d,%+d)" % x if x else "(%d,0)"


def _literal_template(n: int, N: int, b: int, xs) -> str:
    """The literal of the strata with these n, N, b and point levels xs, ``%d`` per residue."""
    return "X{n=%d;N=%d;b=%d;[%s]}" % (n, N, b, ",".join(map(_point_template, xs)))


def format_stratum(s: Stratum) -> str:
    return _literal_template(s.n, s.N, s.b, [p.x for p in s.points]) % _residues(s)
