"""Global dual complexes glued from admissible strata.

A cell is an admissible stratum together with one of its neutral levels.
For n up to 4 the level is determined by the chart, from n = 5 on a few
charts admit two levels and the same stratum spans two cells, so cell
identifiers carry an ``@k=`` suffix exactly when that happens.

Incidence is the covering relation of the face order restricted to a
fixed neutral level; gluing between top cells falls out of canonical
stratum keys identifying shared faces.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _json_str
from itertools import compress
from operator import attrgetter, eq, itemgetter, le
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from . import polytope
from . import strata as st
from .errors import InvariantError
from .linechart import Classification

SCHEMA_VERSION = "kdc-1"


@dataclass(frozen=True)
class Cell:
    """One cell of the dual complex."""

    id: str
    stratum: st.Stratum
    k: int
    dim: int
    cls: Classification
    lattice_shape: Tuple[int, int, int]  # chart vertices (on, above, below) 2k

    @property
    def b(self) -> int:
        return self.stratum.b


def _cell_kind(s: st.Stratum, k: int) -> Tuple[Classification, Tuple[int, int, int], int, str]:
    """(class, lattice shape, dimension, id template) of every cell of s's chart at k.

    The template is s's literal with each residue left as ``%d``.  A
    dimension that does not match the shape is reported on s's cell.
    """
    cls = st.classify_stratum(s, k)
    plus, minus, zero = st._sides(st.chart_of(s).vertices, k)
    shape = (zero.bit_count(), plus.bit_count(), minus.bit_count())
    dim = st.cell_dimension(s)
    template = st._literal_template(s.n, s.N, s.b, [p.x for p in s.points])
    expected = shape[0] - 1 if cls is Classification.NARROW else sum(shape) - 2
    if dim != expected:
        raise InvariantError("cell dimension %d does not match lattice shape %r of %s" % (
            dim, shape, _cell_id(template, st._residues(s), k, st.valid_levels(s))))
    return cls, shape, dim, template


def _cell_id(template: str, taus: Tuple[int, ...], k: int, levels: Tuple[int, ...]) -> str:
    """The id of a stratum's cell at k: the stratum literal, with ``@k=``
    exactly when its valid levels make it span two cells."""
    return template % taus + ("@k=%d" % k if len(levels) > 1 else "")


def _make_cell(s: st.Stratum, k: Optional[int] = None) -> Cell:
    """The cell of s at valid level k, by default at its only one.

    Its kind and id come from _cell_kind and _cell_id, as build's cells do.
    """
    levels = st.valid_levels(s)
    k = _cell_level(s, levels, k)
    cls, shape, dim, template = _cell_kind(s, k)
    return Cell(_cell_id(template, st._residues(s), k, levels), s, k, dim, cls, shape)


def _cell_level(s: st.Stratum, levels: Tuple[int, ...], k: Optional[int]) -> int:
    """k, by default s's only valid level; refused unless it is one of s's levels."""
    if k is None and len(levels) == 1:
        return levels[0]
    if k not in levels:
        name = st.format_stratum(s)
        if not levels:
            raise ValueError("%s is inadmissible" % name)
        if k is None:
            raise ValueError("neutral level of %s is ambiguous, name one of %r" % (name, levels))
        raise ValueError("k=%r is not a valid neutral level of %s" % (k, name))
    return k


@dataclass(frozen=True)
class DualComplex:
    n: int
    N: int
    cells: Tuple[Cell, ...]
    incidence: FrozenSet[Tuple[str, str]]  # (face id, cell id), dims differ by 1

    def __post_init__(self) -> None:
        """Put the cells in id order, then refuse a cell listed twice and an incidence that
        is no cover: an unknown cell, a self-incidence or dims other than d and d + 1.  The
        sorted-first bad pair is named."""
        object.__setattr__(self, "cells", tuple(sorted(self.cells, key=attrgetter("id"))))
        dims = {c.id: c.dim for c in self.cells}
        if len(dims) != len(self.cells):
            raise ValueError("cell %r is listed twice" % next(
                a.id for a, b in zip(self.cells, self.cells[1:]) if a.id == b.id))
        bad = [(lo, hi) for lo, hi in self.incidence
               if lo not in dims or hi not in dims or dims[hi] - dims[lo] != 1]
        if bad:
            lo, hi = min(bad)
            if lo not in dims or hi not in dims:
                raise ValueError("incidence (%r, %r) references an unknown cell" % (lo, hi))
            if lo == hi:
                raise ValueError("self-incidence (%r, %r)" % (lo, hi))
            raise ValueError("incidence (%r, %r) joins dims %d and %d, not d and d + 1"
                             % (lo, hi, dims[lo], dims[hi]))

    @cached_property
    def by_id(self) -> Dict[str, Cell]:
        return {c.id: c for c in self.cells}

    @cached_property
    def by_stratum(self) -> Dict[st.Stratum, Tuple[Cell, ...]]:
        """The cells each stratum spans, one per neutral level, in id order."""
        out: Dict[st.Stratum, List[Cell]] = {}
        for c in self.cells:
            out.setdefault(c.stratum, []).append(c)
        return {s: tuple(cs) for s, cs in out.items()}

    @cached_property
    def by_dim(self) -> Dict[int, Tuple[Cell, ...]]:
        out: Dict[int, List[Cell]] = {}
        for c in self.cells:
            out.setdefault(c.dim, []).append(c)
        return {d: tuple(cs) for d, cs in out.items()}

    @cached_property
    def up(self) -> Dict[str, Tuple[str, ...]]:
        return self._named(self._graph[1])

    @cached_property
    def down(self) -> Dict[str, Tuple[str, ...]]:
        return self._named(self._graph[2])

    def _named(self, sides: List[Tuple[int, ...]]) -> Dict[str, Tuple[str, ...]]:
        """One side of _graph keyed and listed by cell id."""
        return {c.id: self._ids(js) for c, js in zip(self.cells, sides)}

    def _ids(self, positions) -> Tuple[str, ...]:
        """The ids of the cells at these positions."""
        return tuple(self.cells[i].id for i in positions)

    def _position(self, cid: str) -> int:
        """The position of the cell with id cid, which must be one of the complex's."""
        return bisect_left(self.cells, cid, key=attrgetter("id"))

    @cached_property
    def _graph(self) -> Tuple[List[int], List[Tuple[int, ...]], List[Tuple[int, ...]]]:
        """(dims, up, down), the cover graph over cell positions, which are id order:
        cell i has dimension dims[i], covers up[i] and is a cover of down[i], each
        tuple ascending."""
        index = {c.id: i for i, c in enumerate(self.cells)}
        up: List[List[int]] = [[] for _ in self.cells]
        down: List[List[int]] = [[] for _ in self.cells]
        for lo, hi in self.incidence:
            lo, hi = index[lo], index[hi]
            up[lo].append(hi)
            down[hi].append(lo)
        return ([c.dim for c in self.cells], [tuple(sorted(js)) for js in up],
                [tuple(sorted(js)) for js in down])

    @cached_property
    def _derived(self) -> dict:
        """Results kept on the complex: disk report, layouts, connectedness, automorphisms."""
        return {}

    def f_vector(self) -> Tuple[int, ...]:
        top = max((c.dim for c in self.cells), default=-1)
        counts = [0] * (top + 1)
        for c in self.cells:
            counts[c.dim] += 1
        return tuple(counts)

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * f for d, f in enumerate(self.f_vector()))

    def is_connected(self) -> bool:
        """Whether the incidence graph joins all cells; an empty complex is.  Kept on the
        complex."""
        if "connected" not in self._derived:
            _, up, down = self._graph
            seen = [False] * len(self.cells)
            queue = [0] if seen else []
            while queue:
                here = queue.pop()
                if not seen[here]:
                    seen[here] = True
                    queue += up[here] + down[here]
            self._derived["connected"] = all(seen)
        return self._derived["connected"]


def build(n: int, N: int) -> DualComplex:
    """Assemble the dual complex of all admissible cells at (n, N), kept per (n, N)."""
    n, N = st._indices((n, N), "n and N")
    if n < 2:
        raise ValueError("need n >= 2, got n=%d" % n)
    if N < 1:
        raise ValueError("need N >= 1, got N=%d" % N)
    return _build(n, N)


@functools.lru_cache(maxsize=None)
def _build(n: int, N: int) -> DualComplex:
    """build(n, N) for checked ints, reading the strata in enumeration order.

    The cells of one chart and level form a group: its first stratum gives
    the kind of all of them (_cell_kind), each id fills the group's
    template with the cell's residues, and the group's face plans find each
    codim-1 face by its residues in the index of the face's group.
    """
    groups: Dict[tuple, List[st.Stratum]] = {}
    for s in st._admissible_flat(n, N):
        for k in st.valid_levels(s):
            groups.setdefault((st.chart_of(s).vertices, k), []).append(s)
    cells, work = [], []
    ids: Dict[tuple, Dict[Tuple[int, ...], str]] = {}  # (b, xs, k) -> residues -> cell id
    for (_, k), members in groups.items():
        first = members[0]
        cls, shape, dim, template = _cell_kind(first, k)
        named = ids[(first.b, tuple(p.x for p in first.points), k)] = {}
        for s in members:
            taus = st._residues(s)
            cid = named[taus] = _cell_id(template, taus, k, st.valid_levels(s))
            cells.append(Cell(cid, s, k, dim, cls, shape))
        work.append((first, k, named))

    incidence = set()
    for first, k, named in work:
        for plan in st._plans(st.chart_of(first), k, 1):
            target = ids.get((plan.b, plan.xs, plan.k), {})
            for taus, cid in named.items():
                face = plan.residues(taus, N)
                fid = target.get(face)
                if fid is None:
                    raise InvariantError("face %s missing from enumeration, a face of %s"
                                         % (st.format_stratum(plan.stratum(n, N, face)), cid))
                incidence.add((fid, cid))

    return DualComplex(n, N, tuple(cells), frozenset(incidence))


# ---------------------------------------------------------------------------
# local complexes of a single deepest stratum


class LocalComplex:
    """Closed cell of one deepest stratum with its face lattice.

    ``poset`` is the abstract face lattice on chart vertex supports and
    ``cells`` maps each support to the stratum cell it represents.
    """

    def __init__(self, top: Cell, poset: polytope.FacePoset, cells):
        self.top = top
        self.poset = poset
        self.cells = dict(cells)

    def f_vector(self) -> Tuple[int, ...]:
        return self.poset.f_vector()

    def cells_of_dim(self, d: int) -> Tuple[Cell, ...]:
        out = [self.cells[f] for f in self.poset.faces if self.poset.dim_of(f) == d]
        return tuple(sorted(out, key=lambda c: c.id))


def delta_K(top: st.Stratum, k: Optional[int] = None) -> LocalComplex:
    """Face lattice of the closed cell of a deepest stratum.

    Faces correspond bijectively to chart vertex subsets valid at the
    chosen neutral level; the lattice is isomorphic to the slice of a
    simplex cut by the neutral line.
    """
    if top.b != top.n:
        raise ValueError("need a deepest stratum (b = n), got %s" % st.format_stratum(top))
    center = _make_cell(top, k)
    k = center.k

    chart, taus = st.chart_of(top), st._residues(top)
    dims = {}
    cells = {}
    for plan in st._plans(chart, k):
        support = frozenset((v.x, v.y) for i, v in enumerate(chart.vertices) if plan.mask >> i & 1)
        dims[support] = plan.dim
        cells[support] = _make_cell(plan.stratum(top.n, top.N, plan.residues(taus, top.N)), plan.k)
    support = frozenset((v.x, v.y) for v in chart.vertices)
    dims[support], cells[support] = center.dim, center
    local = LocalComplex(center, polytope.FacePoset(dims), cells)
    if len({c.stratum for c in local.cells.values()}) != len(local.cells):
        raise InvariantError("face strata of a single cell must be distinct")
    return local


# ---------------------------------------------------------------------------
# n = 3 specifics: stars, disk verification, row growth


def _is_type4(s: st.Stratum) -> bool:
    return len({p.x for p in s.points}) == 1


@dataclass(frozen=True)
class StarReport:
    """Closed star of a vertex cell in an n = 3 complex."""

    center: Cell
    triangles: Tuple[str, ...]
    edges: Tuple[str, ...]
    vertices: Tuple[str, ...]
    boundary_edges: Tuple[str, ...]  # star edges on the global boundary
    distinct_taus: int


def local_chart(v: st.Stratum) -> StarReport:
    """Closed star of a type-4 vertex (all x equal) in its n = 3 complex."""
    if v.n != 3:
        raise ValueError("local charts are defined for n = 3, got %s" % st.format_stratum(v))
    if not _is_type4(v):
        raise ValueError("not a type-4 vertex: x-values differ in %s" % st.format_stratum(v))
    if not st.is_admissible(v) or st.cell_dimension(v) != 0:
        raise ValueError("not an admissible vertex stratum: %s" % st.format_stratum(v))
    cx = build(3, v.N)
    cells = cx.by_stratum.get(v)
    if not cells:
        raise InvariantError("vertex missing from its own complex")
    center = cells[0]  # n = 3 strata span one cell each
    _, up, down = cx._graph
    tris = sorted({t for e in up[cx._position(center.id)] for t in up[e]})
    edges = sorted({e for t in tris for e in down[t]})
    vertices = sorted({u for e in edges for u in down[e]})
    return StarReport(
        center=center,
        triangles=cx._ids(tris),
        edges=cx._ids(edges),
        vertices=cx._ids(vertices),
        boundary_edges=cx._ids(e for e in edges if len(up[e]) == 1),
        distinct_taus=len({p.tau for p in v.points}),
    )


@dataclass(frozen=True)
class DiskReport:
    """Result of checking an n = 3 complex against the disk axioms."""

    connected: bool
    pure: bool
    edge_degrees_ok: bool
    vertex_links_ok: bool
    boundary_ok: bool
    euler: int
    boundary_cycle: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures()

    @property
    def verdict(self) -> str:
        return "combinatorial disk" if self.ok else "not a combinatorial disk"

    def summary(self) -> str:
        lines = [
            "connected:        %s" % ("yes" if self.connected else "no"),
            "pure 2-dim:       %s" % ("yes" if self.pure else "no"),
            "edge degrees 1|2: %s" % ("yes" if self.edge_degrees_ok else "no"),
            "vertex links ok:  %s" % ("yes" if self.vertex_links_ok else "no"),
            "boundary cycle:   %s" % ("yes" if self.boundary_ok else "no"),
            "euler:            %d" % self.euler,
            "verdict:          %s" % self.verdict,
        ]
        return "\n".join(lines)

    def failures(self) -> List[str]:
        """The disk axioms this complex fails, in summary order."""
        checks = (
            ("connected", self.connected),
            ("pure 2-dim", self.pure),
            ("edge degrees 1|2", self.edge_degrees_ok),
            ("vertex links", self.vertex_links_ok),
            ("boundary cycle", self.boundary_ok),
            ("euler %d != 1" % self.euler, self.euler == 1),
        )
        return [name for name, ok in checks if not ok]


def verify_disk(cx: DualComplex) -> DiskReport:
    """Check connectivity, purity, link and boundary conditions, and Euler.

    The report is found once per complex and kept on it.
    """
    if cx.n != 3:
        raise ValueError(
            "disk verification applies to n = 3 complexes, got (n, N) = (%d, %d)"
            % (cx.n, cx.N)
        )
    if "disk" not in cx._derived:
        cx._derived["disk"] = _check_disk(cx)
    return cx._derived["disk"]


def _walk(adj: dict) -> Optional[tuple]:
    """The nodes of a nonempty graph in order along its one path or cycle, else None.

    A path starts at its least end.  A cycle starts at its least node,
    steps to that node's first-listed neighbour and then on to the
    neighbour it did not come from; a repeated neighbour is a two-node
    cycle.
    """
    if any(len(nbs) > 2 for nbs in adj.values()):
        return None
    start = min([u for u, nbs in adj.items() if len(nbs) < 2] or adj)
    walk, prev = [start], None
    while True:
        step = [w for w in adj[walk[-1]] if w != prev]
        if not step or step[0] == start:
            break
        prev = walk[-1]
        walk.append(step[0])
    return tuple(walk) if len(walk) == len(adj) else None


def _link_ok(up: List[Tuple[int, ...]], down: List[Tuple[int, ...]], v: int) -> bool:
    """Whether the link of vertex v, its edges joined by its triangles, is one path or cycle."""
    link: Dict[int, List[int]] = {e: [] for e in up[v]}
    for t in {t for e in link for t in up[e]}:
        through = [e for e in down[t] if e in link]
        if len(through) != 2:
            return False
        a, b = through
        link[a].append(b)
        link[b].append(a)
    return not link or _walk(link) is not None


def _check_disk(cx: DualComplex) -> DiskReport:
    dims, up, down = cx._graph
    vertices = [i for i, d in enumerate(dims) if d == 0]
    edges = [i for i, d in enumerate(dims) if d == 1]

    # a disk has a nonempty boundary: the edges in one triangle, each
    # with two ends, forming one cycle through vertices of degree 2
    ends = [down[e] for e in edges if len(up[e]) == 1]
    cycle = None
    if ends and all(len(pair) == 2 for pair in ends):
        boundary: Dict[int, List[int]] = {}
        for a, b in ends:
            boundary.setdefault(a, []).append(b)
            boundary.setdefault(b, []).append(a)
        if all(len(nbs) == 2 for nbs in boundary.values()):
            cycle = _walk(boundary)

    return DiskReport(
        connected=cx.is_connected(),
        pure=all(up[c] for c in edges + vertices),
        edge_degrees_ok=all(len(up[e]) in (1, 2) for e in edges),
        vertex_links_ok=all(_link_ok(up, down, v) for v in vertices),
        boundary_ok=cycle is not None,
        euler=cx.euler_characteristic(),
        boundary_cycle=cx._ids(cycle or ()),
    )


# ---------------------------------------------------------------------------
# row growth of type-4 centers

_X_OF_KIND = {"A1": 0, "B1+": 1, "B1-": -1}


@dataclass(frozen=True)
class RowCenter:
    """One type-4 center in the triangular row layout."""

    row: int
    pos: int
    kind: str  # "A1", "B1+", "B1-"
    taus: Tuple[int, int, int]  # integer coordinates before reduction mod N
    stratum: st.Stratum


def _row_start(k: int) -> Tuple[str, Tuple[int, int, int]]:
    q, r = divmod(k, 3)
    if r == 0:
        return "A1", (-q, -q, 2 * q)
    if r == 1:
        return "B1-", (-q, -q, 2 * q + 1)
    q = (k + 1) // 3
    return "B1+", (-q, -q, 2 * q - 1)


def _right_neighbor(kind: str, taus: Tuple[int, int, int]):
    a, b, c = taus
    if kind == "B1+":
        return "A1", (a, b + 1, c)
    if kind == "A1":
        return "B1-", (a, b + 1, c)
    return "B1+", (a - 1, b, c - 1)


def grow_rows(N: int) -> List[List[RowCenter]]:
    """Type-4 centers laid out row by row, rows 0..N with k+1 entries.

    Row starts and right-neighbor steps follow the three-periodic
    pattern; every produced center is checked to be admissible and to
    satisfy tau3 - tau1 = row.
    """
    if N < 1:
        raise ValueError("N must be positive, got N=%d" % N)
    rows: List[List[RowCenter]] = []
    for k in range(N + 1):
        kind, taus = _row_start(k)
        row = []
        for pos in range(k + 1):
            x = _X_OF_KIND[kind]
            s = st.Stratum(
                3, N, 0 if kind == "A1" else 1,
                [st.PointLabel(t, x) for t in taus],
            )
            if not st.is_admissible(s):
                raise InvariantError(
                    "row growth produced an inadmissible center %s at row %d"
                    % (st.format_stratum(s), k)
                )
            if taus[2] - taus[0] != k:
                raise InvariantError("row coordinate drifted at row %d" % k)
            row.append(RowCenter(k, pos, kind, taus, s))
            kind, taus = _right_neighbor(kind, taus)
        rows.append(row)
    return rows


def type4_vertices(cx: DualComplex) -> Tuple[Cell, ...]:
    """Vertex cells whose stratum has a single repeated x-value."""
    if cx.n != 3:
        raise ValueError(
            "type-4 vertices live in n = 3 complexes, got (n, N) = (%d, %d)" % (cx.n, cx.N)
        )
    return tuple(c for c in cx.by_dim.get(0, ()) if _is_type4(c.stratum))


# ---------------------------------------------------------------------------
# automorphisms


def automorphisms(cx: DualComplex) -> Tuple[Dict[str, str], ...]:
    """The incidence automorphisms of cx, each a cell permutation (id -> id), the
    identity first; searched once per complex and kept on it, with their orders.

    They are the isomorphisms of the cover graph of cx onto itself, which
    polytope._isomorphisms lists, so any complex gets its whole group.
    """
    group = cx._derived.get("automorphisms")
    if group is not None:
        return group
    name = [c.id for c in cx.cells]
    identity = list(range(len(name)))
    maps = sorted(polytope._isomorphisms(cx._graph, cx._graph), key=identity.__ne__)
    found = [dict(zip(name, map(name.__getitem__, m))) for m in maps]
    cx._derived["automorphism orders"] = frozenset(map(_permutation_order, found))
    group = cx._derived["automorphisms"] = tuple(found)
    return group


def has_automorphism(cx: DualComplex, order: int) -> bool:
    """Whether some incidence automorphism of cx has exactly the given order.

    It reads the element orders that automorphisms(cx) keeps on cx, so asking for
    several orders searches once.  It refuses an order that is not an integer >= 2.
    """
    try:
        value = operator.index(order)
    except TypeError:
        raise ValueError("order must be an integer, got %r" % (order,)) from None
    if value < 2:
        raise ValueError("order must be at least 2, got %s" % (order,))
    automorphisms(cx)
    return value in cx._derived["automorphism orders"]


def _permutation_order(perm: Dict[str, str]) -> int:
    order = 1
    seen = set()
    for start in perm:
        if start in seen:
            continue
        length = 0
        here = start
        while here not in seen:
            seen.add(here)
            here = perm[here]
            length += 1
        order = order * length // math.gcd(order, length)
    return order


# ---------------------------------------------------------------------------
# export and parsing


def _layout(cx: DualComplex, seed: int) -> Dict[str, Tuple[float, float]]:
    """Vertex positions of an n = 3 disk, computed once per complex and seed."""
    pos = cx._derived.get(("layout", seed))
    if pos is None:
        pos = cx._derived[("layout", seed)] = _tutte_layout(cx, seed)
    return pos


def _tutte_layout(cx: DualComplex, seed: int) -> Dict[str, Tuple[float, float]]:
    """Boundary on the unit circle, interior by averaging to a fixed point.

    Gauss-Seidel sweeps over the interior vertices in id order, each set to
    the mean of its neighbours (summed in id order), until no coordinate
    moves by 1e-9.  A position is one complex number x + iy: summing complex
    numbers adds the parts separately, and dividing by an int divides each
    part, so the floats are those of two real sweeps.
    """
    report = verify_disk(cx)
    if not report.ok:
        raise ValueError(
            "layout needs a verified combinatorial disk; the complex at "
            "(n, N) = (%d, %d) failed: %s" % (cx.n, cx.N, ", ".join(report.failures()))
        )
    dims, up, down = cx._graph
    verts = [i for i, d in enumerate(dims) if d == 0]  # positions, so in id order
    pz = [0j] * len(dims)
    cycle = list(map(cx._position, report.boundary_cycle))
    for i, j in enumerate(cycle):
        angle = 2.0 * math.pi * (i + seed) / len(cycle)
        pz[j] = complex(math.cos(angle), math.sin(angle))
    on_cycle = set(cycle)
    sweep = []
    for i in verts:
        if i not in on_cycle:
            nbrs = sorted({j for e in up[i] for j in down[e] if j != i})  # other edge ends
            # itemgetter of one index returns the item, not a 1-tuple
            get = itemgetter(*nbrs) if len(nbrs) > 1 else (lambda a, j=nbrs[0]: (a[j],))
            sweep.append((i, get, len(nbrs)))
    for _ in range(100000):
        moved = False
        for i, get, degree in sweep:
            nz = sum(get(pz)) / degree
            if not moved:
                d = nz - pz[i]
                moved = abs(d.real) >= 1e-9 or abs(d.imag) >= 1e-9
            pz[i] = nz
        if not moved:
            break
    return dict(zip(cx._ids(verts), [(pz[i].real, pz[i].imag) for i in verts]))


def to_json_dict(cx: DualComplex) -> dict:
    cells = []
    for c in cx.cells:
        cells.append(
            {
                "id": c.id,
                "dim": c.dim,
                "class": str(c.cls),
                "b": c.b,
                "points": [{"tau": p.tau, "x": p.x} for p in c.stratum.points],
            }
        )
    return {
        "version": SCHEMA_VERSION,
        "n": cx.n,
        "N": cx.N,
        "cells": cells,
        "incidence": [list(pair) for pair in sorted(cx.incidence)],
    }


def _json_list(items: List[str], indent: str) -> str:
    """A JSON array of pre-indented items, laid out as ``json.dumps(indent=2)``."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


def _cell_block(dim: int, cls: Classification, b: int, xs: Tuple[int, ...]) -> str:
    """The JSON block of every cell with these fields and levels xs, with ``%s`` left
    for its id and ``%d`` for each residue."""
    points = _json_list(['        {\n          "tau": %%d,\n          "x": %d\n        }' % x
                         for x in xs], "      ")
    return ('    {\n      "id": %%s,\n      "dim": %d,\n      "class": %s,\n'
            '      "b": %d,\n      "points": %s\n    }' % (dim, _json_str(str(cls)), b, points))


def _export_json(cx: DualComplex) -> bytes:
    """``json.dumps(to_json_dict(cx), indent=2) + "\n"``, written directly.

    The indenting encoder of the json module runs in pure Python; this
    writes the fixed kdc-1 layout with the C string escaper instead.
    """
    blocks: Dict[tuple, str] = {}  # (dim, class, b, xs) -> _cell_block
    cells = []
    for c in cx.cells:
        key = (c.dim, c.cls, c.b, tuple(map(itemgetter(1), c.stratum.points)))
        block = blocks.get(key)
        if block is None:
            block = blocks[key] = _cell_block(*key)
        cells.append(block % ((_json_str(c.id),) + st._residues(c.stratum)))
    incidence = [
        "    [\n      %s,\n      %s\n    ]" % (_json_str(lo), _json_str(hi))
        for lo, hi in sorted(cx.incidence)
    ]
    text = (
        '{\n  "version": %s,\n  "n": %d,\n  "N": %d,\n  "cells": %s,\n'
        '  "incidence": %s\n}\n'
        % (_json_str(SCHEMA_VERSION), cx.n, cx.N,
           _json_list(cells, "  "), _json_list(incidence, "  "))
    )
    return text.encode("ascii")


def _export_dot(cx: DualComplex) -> bytes:
    dims, _, down = cx._graph
    lines = ["graph dual_complex {", "  node [shape=point];"]
    lines += ['  "%s";' % c.id for c, d in zip(cx.cells, dims) if d == 0]
    for e, d in enumerate(dims):
        if d == 1 and len(down[e]) == 2:
            lines.append('  "%s" -- "%s";' % cx._ids(down[e]))
    lines.append("}")
    return ("\n".join(lines) + "\n").encode("ascii")


def _corners(cx: DualComplex, t: int) -> Tuple[int, int, int]:
    """The sorted vertex positions of the triangle at position t, which must be three."""
    down = cx._graph[2]
    vs = sorted({v for e in down[t] for v in down[e]})
    if len(vs) != 3:
        raise ValueError("triangle %s is not on three vertices" % cx.cells[t].id)
    return tuple(vs)


def _export_off(cx: DualComplex, seed: int) -> bytes:
    pos = _layout(cx, seed)
    dims = cx._graph[0]
    verts = [i for i, d in enumerate(dims) if d == 0]  # positions, in pos's order
    lines = ["OFF", "%d %d %d" % (len(verts), dims.count(2), dims.count(1))]
    lines += ["%.9f %.9f 0" % p for p in pos.values()]
    lines += ["3 %d %d %d" % tuple(bisect_left(verts, v) for v in _corners(cx, t))
              for t, d in enumerate(dims) if d == 2]
    return ("\n".join(lines) + "\n").encode("ascii")


def _export_tikz(cx: DualComplex, seed: int, labels: bool) -> bytes:
    pos = _layout(cx, seed)
    dims, _, down = cx._graph
    lines = ["\\begin{tikzpicture}[scale=4]"]
    for e, d in enumerate(dims):
        if d == 1:
            a, b = cx._ids(down[e])
            lines.append("  \\draw (%.6f,%.6f) -- (%.6f,%.6f);" % (pos[a] + pos[b]))
    if labels:
        for v, (x, y) in pos.items():
            lines.append("  \\node[font=\\tiny] at (%.6f,%.6f) {%s};" % (x, y, v))
    lines.append("\\end{tikzpicture}")
    return ("\n".join(lines) + "\n").encode("ascii")


def export(cx: DualComplex, fmt: str, layout_seed: int = 0, labels: bool = False) -> bytes:
    """Serialize a complex; off and tikz need an n = 3 verified disk."""
    if fmt == "json":
        return _export_json(cx)
    if fmt == "dot":
        return _export_dot(cx)
    if fmt == "off":
        return _export_off(cx, layout_seed)
    if fmt == "tikz":
        return _export_tikz(cx, layout_seed, labels)
    raise ValueError("unknown export format %r" % fmt)


_LEVEL_RE = re.compile(r"@k=(-?\d+)$", re.ASCII)


def _field(obj, name: str, kind: type, where: str, *args):
    """obj[name], or a ValueError, naming obj as where % args, unless obj is a JSON
    object with a kind there; the name is formatted only for the refusal."""
    value = obj.get(name) if isinstance(obj, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):  # bool subclasses int
        raise ValueError("%s must be a JSON object with field %r of type %s"
                         % (where % args, name, kind.__name__))
    return value


class _Group(NamedTuple):
    """What the cells of one level data (b, xs) share, for entries read off it."""

    facts: tuple  # the _chart_facts entry of their chart
    levels: Dict[int, Tuple[int, ...]]  # residue sum mod N -> valid levels, filled on first use
    kinds: Dict[int, tuple]  # k -> _cell_kind, filled on first use
    runs: Tuple[bool, ...]  # runs[i]: points i and i + 1 share an x, so their residues may not fall


def _group(n: int, N: int, b: int, xs: Tuple[int, ...]) -> _Group:
    """The record of level data (b, xs), refused unless the constructor keeps it as given."""
    s = st.Stratum(n, N, b, [(0, x) for x in xs])
    if tuple(p.x for p in s.points) != xs:
        raise ValueError("levels %s are not in canonical order and sign" % (xs,))
    return _Group(st._facts(s), {}, {}, tuple(map(eq, xs, xs[1:])))


def _read_cell(entry, i: int, n: int, N: int, groups: Dict[tuple, _Group]):
    """(id, cell) of cell entry i; groups keeps the _group of each level data (b, xs) seen.

    The points are taken as written, so they must be canonical: levels as the
    constructor orders and signs them, residues in 0..N-1 and ascending within
    each run of equal x.  Anything else is refused.
    """
    cid = _field(entry, "id", str, "cell entry %d", i)
    points = [(_field(p, "tau", int, "each point of cell %r", cid),
               _field(p, "x", int, "each point of cell %r", cid))
              for p in _field(entry, "points", list, "cell %r", cid)]
    b = _field(entry, "b", int, "cell %r", cid)
    taus, xs = tuple(map(itemgetter(0), points)), tuple(map(itemgetter(1), points))
    try:
        group = groups.get((b, xs))
        if group is None:
            group = groups[b, xs] = _group(n, N, b, xs)
        if not (0 <= min(taus) <= max(taus) < N
                and all(compress(map(le, taus, taus[1:]), group.runs))):
            raise ValueError("residues %s are not canonical: each in 0..%d, ascending within "
                             "each run of equal x" % (taus, N - 1))
        match = _LEVEL_RE.search(cid)
        k = int(match.group(1)) if match else None
        r = sum(taus) % N
        s = st.Stratum._canonical(n, N, b, tuple(map(st.PointLabel, taus, xs)), group.facts,
                                  group.levels.get(r))
        levels = group.levels[r] = st.valid_levels(s)
        k = _cell_level(s, levels, k)
    except ValueError as err:
        raise ValueError("cell %r: %s" % (cid, err)) from None
    if k not in group.kinds:
        group.kinds[k] = _cell_kind(s, k)
    cls, shape, dim, template = group.kinds[k]
    return cid, Cell(_cell_id(template, st._residues(s), k, levels), s, k, dim, cls, shape)


def parse_complex(data) -> DualComplex:
    """Rebuild a DualComplex from its JSON export.

    Each cell is remade from its points and level, and its id must be the
    one ``build`` gives that cell.  Points must be canonical, as the exporter
    writes them (see _read_cell), and the cells of one level data (b, xs)
    share one record of their chart, valid levels and cell kinds.  Of each
    incidence pair only the JSON shape is checked here; DualComplex does the rest.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("ascii")
        if isinstance(data, str):
            data = json.loads(data)
    except ValueError as err:  # also UnicodeDecodeError, JSONDecodeError and the digit limit
        raise ValueError("the complex is not ASCII JSON: %s" % err) from None
    if _field(data, "version", str, "the complex") != SCHEMA_VERSION:
        raise ValueError("unsupported schema version %r" % data["version"])
    n, N = _field(data, "n", int, "the complex"), _field(data, "N", int, "the complex")
    if n < 2 or N < 1:
        raise ValueError("the complex has (n, N) = (%d, %d), not n >= 2 and N >= 1" % (n, N))
    cells = []
    groups: Dict[tuple, _Group] = {}
    for i, entry in enumerate(_field(data, "cells", list, "the complex")):
        cid, cell = _read_cell(entry, i, n, N, groups)
        if cell.id != cid:
            raise ValueError("cell %r is not %r, the id of its points and level" % (cid, cell.id))
        if (cell.dim != _field(entry, "dim", int, "cell %r", cid)
                or str(cell.cls) != _field(entry, "class", str, "cell %r", cid)):
            raise ValueError("cell metadata mismatch for %r" % cid)
        cells.append(cell)
    pairs = _field(data, "incidence", list, "the complex")
    for pair in pairs:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise ValueError("incidence entry %r is not a pair of cell ids" % (pair,))
    return DualComplex(n, N, tuple(cells), frozenset(map(tuple, pairs)))
