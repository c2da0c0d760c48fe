"""Line charts: lattice paths encoding how n points spread over expansion levels.

A line chart is an ordered list of lattice vertices (x, y) with x strictly
increasing, |y2 - y1| <= x2 - x1 and y2 - y1 = x2 - x1 (mod 2) between
consecutive vertices, and |y| <= x, y = x (mod 2) at every vertex.  The
y-multiset S of the vertices decides admissibility against a neutral line
y = 2k: wide if min S < 2k < max S, narrow if min S = 2k = max S.

Charts related by a vertical shift of 2p represent the same stratum; the
canonical representative is the topmost shift, whose first vertex sits on
the diagonal y = x.
"""

from __future__ import annotations

import bisect
import collections
import enum
import itertools
import re
import sys
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional

from .errors import InvariantError

NeutralLevel = int


class Classification(enum.Enum):
    NARROW = "narrow"
    WIDE = "wide"

    def __str__(self) -> str:
        return self.value


class LatticeVertex(NamedTuple):
    x: int
    y: int

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


@dataclass(frozen=True)
class LineChart:
    """An ordered, immutable vertex list; validity is checked by validate()."""

    n: int
    vertices: tuple[LatticeVertex, ...]

    def __init__(self, n: int, vertices: Iterable) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "vertices", tuple(LatticeVertex(*v) for v in vertices))

    @classmethod
    def _complete(cls, ys: tuple[int, ...]) -> "LineChart":
        """Trusted constructor of the complete chart with heights ys, valid by construction."""
        chart = object.__new__(cls)
        vertices = tuple(map(tuple.__new__, itertools.repeat(LatticeVertex), enumerate(ys)))
        object.__setattr__(chart, "n", len(ys) - 1)
        object.__setattr__(chart, "vertices", vertices)
        return chart

    def __str__(self) -> str:
        return format_chart(self)

    @property
    def heights(self) -> tuple[int, ...]:
        """The multiset S of vertex heights (in chart order)."""
        return tuple(v.y for v in self.vertices)

    def is_complete(self) -> bool:
        return (
            len(self.vertices) == self.n + 1
            and self.vertices[0] == LatticeVertex(0, 0)
            and all(v.x == i for i, v in enumerate(self.vertices))
        )


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    reason: Optional[str] = None
    offending: Optional[tuple[LatticeVertex, ...]] = None

    def __bool__(self) -> bool:
        return self.ok


def validate(chart: LineChart) -> ValidityReport:
    """Check all structural invariants, reporting the first violation."""
    if chart.n < 1:
        return ValidityReport(False, "n must be at least 1", None)
    if not chart.vertices:
        return ValidityReport(False, "empty vertex list", None)
    for v in chart.vertices:
        if not (0 <= v.x <= chart.n):
            return ValidityReport(False, "x out of range [0, n]", (v,))
        if abs(v.y) > v.x or (v.y - v.x) % 2 != 0:
            return ValidityReport(False, "vertex outside diagonal quadrant", (v,))
    for a, b in zip(chart.vertices, chart.vertices[1:]):
        if b.x <= a.x:
            return ValidityReport(False, "x not strictly increasing", (a, b))
        if abs(b.y - a.y) > b.x - a.x or (b.y - a.y - (b.x - a.x)) % 2 != 0:
            return ValidityReport(False, "segment breaks step constraint", (a, b))
    return ValidityReport(True)


def _require_valid(chart: LineChart) -> None:
    report = validate(chart)
    if not report.ok:
        raise ValueError(f"invalid line chart: {report.reason} at {report.offending}")


def valid_neutral_levels(chart: LineChart) -> frozenset[int]:
    """All k whose neutral line y = 2k makes the chart admissible."""
    _require_valid(chart)
    ys = chart.heights
    lo, hi = min(ys), max(ys)
    if lo == hi:
        # narrow case needs the common height to be even
        return frozenset({lo // 2}) if lo % 2 == 0 else frozenset()
    return frozenset(range(lo // 2 + 1, -((-hi) // 2)))


def is_admissible(chart: LineChart) -> bool:
    return bool(valid_neutral_levels(chart))


def classify(chart: LineChart, k: NeutralLevel) -> Classification:
    if k not in valid_neutral_levels(chart):
        raise ValueError(f"k={k} is not a valid neutral level for {chart}")
    ys = chart.heights
    return Classification.NARROW if min(ys) == max(ys) else Classification.WIDE


def shift(chart: LineChart, p: int) -> LineChart:
    """Move every vertex up by 2p units; valid neutral levels move by p."""
    _require_valid(chart)
    for v in chart.vertices:
        if abs(v.y + 2 * p) > v.x:
            raise ValueError(f"shift by {p} pushes {v} outside |y| <= x")
    return LineChart(chart.n, ((v.x, v.y + 2 * p) for v in chart.vertices))


def canonicalize(chart: LineChart) -> LineChart:
    """Topmost equivalent chart; its first vertex lands on y = x.

    x - y is non-decreasing along a valid chart, so the first vertex is the
    binding constraint and the maximal shift is (x0 - y0) / 2.
    """
    _require_valid(chart)
    first = chart.vertices[0]
    return shift(chart, (first.x - first.y) // 2)


def subcharts(chart: LineChart, admissible_only: bool = False) -> list[LineChart]:
    """All 2^v - 1 nonempty vertex-subset charts, in bitmask order.

    With admissible_only, keep only subcharts sharing a valid neutral level
    with the parent (the face condition of the per-chart dual complex); a
    subchart admissible only at some foreign k does not count.
    """
    _require_valid(chart)
    parent_ks = valid_neutral_levels(chart) if admissible_only else None
    vs = chart.vertices
    out = []
    for mask in range(1, 1 << len(vs)):
        sub = LineChart(chart.n, tuple(v for i, v in enumerate(vs) if mask >> i & 1))
        if admissible_only and not (valid_neutral_levels(sub) & parent_ks):
            continue
        out.append(sub)
    return out


def count_admissible_subcharts(chart: LineChart) -> int:
    """len(subcharts(chart, admissible_only=True)) without the 2^v walk.

    A subchart's neutral levels depend only on its lowest and highest
    heights lo <= hi.  Per lo, its 2^c_lo - 1 vertex choices combine with
    the subsets of the higher vertices that reach above 2k, for k the
    least shared level with 2k > lo; a narrow subchart sits at an even lo.
    """
    ks = valid_neutral_levels(chart)
    if not ks:
        return 0
    kmin, kmax = min(ks), max(ks)
    ys = sorted(chart.heights)
    total = 0
    for lo, count in collections.Counter(ys).items():
        at_lo = (1 << count) - 1
        if lo % 2 == 0 and lo // 2 in ks:
            total += at_lo
        k = max(kmin, lo // 2 + 1)
        if k <= kmax:
            base = bisect.bisect_right(ys, lo)
            higher = len(ys) - base  # vertices above lo
            short = bisect.bisect_right(ys, 2 * k) - base  # of those, at most 2k
            total += at_lo * ((1 << higher) - (1 << short))
    return total


def _complete_charts(n: int) -> list[LineChart]:
    return [LineChart._complete(tuple(itertools.accumulate(steps, initial=0)))
            for steps in itertools.product((1, -1), repeat=n)]


def enumerate_complete_admissible(n: int) -> list[tuple[LineChart, int]]:
    """All (complete chart, valid k) pairs; the pair count is a_n."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got n={n}")
    pairs = []
    for steps in itertools.product((1, -1), repeat=n):
        ys = tuple(itertools.accumulate(steps, initial=0))
        # a complete chart is wide (its first step leaves height 0), so its
        # levels are the k with min(ys) < 2k < max(ys), in ascending order
        ks = range(min(ys) // 2 + 1, -(-max(ys) // 2))
        if ks:
            chart = LineChart._complete(ys)
            pairs += [(chart, k) for k in ks]
    return pairs


def complete_extensions(chart: LineChart, require_admissible: bool = False) -> list[LineChart]:
    """Complete supercharts of the chart (vertex-set containment, no shift).

    With require_admissible (needs an admissible chart and n >= 3), keep only
    completions sharing a valid neutral level with the chart; the list is then
    guaranteed nonempty, and an empty one raises InvariantError.
    """
    _require_valid(chart)
    if require_admissible:
        if chart.n < 3:
            raise ValueError("admissible completions need n >= 3")
        ks = valid_neutral_levels(chart)
        if not ks:
            raise ValueError("chart is not admissible")
    have = set(chart.vertices)
    out = []
    for comp in _complete_charts(chart.n):
        if not have <= set(comp.vertices):
            continue
        if require_admissible and not (valid_neutral_levels(comp) & ks):
            continue
        out.append(comp)
    if require_admissible and not out:
        raise InvariantError(f"admissible chart {format_chart(chart)} has no admissible completion")
    return out


_CHART_RE = re.compile(r"^LC\{\s*n=(\d+)\s*;((?:\s*\(\s*-?\d+\s*,\s*[+-]?\d+\s*\))+)\s*\}$",
                       re.ASCII)
_PAIR_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*([+-]?\d+)\s*\)", re.ASCII)


def _literal_int(digits: str, kind: str, field: str) -> int:
    """int(digits), refused past Python's digit limit by literal kind and field, not value."""
    try:
        return int(digits)
    except ValueError:  # the literal regexes admit only digits, so only the limit fails
        raise ValueError(f"{kind} literal field {field!r} has more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def parse_chart(text: str) -> LineChart:
    m = _CHART_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed chart literal: {text!r}")
    n = _literal_int(m.group(1), "chart", "n")
    return LineChart(n, ((_literal_int(x, "chart", "x"), _literal_int(y, "chart", "y"))
                         for x, y in _PAIR_RE.findall(m.group(2))))


def format_chart(chart: LineChart) -> str:
    body = "".join(f"({v.x},{v.y})" for v in chart.vertices)
    return f"LC{{n={chart.n};{body}}}"
