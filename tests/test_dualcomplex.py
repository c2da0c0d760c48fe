import hashlib
import io
import itertools
import json
import math
import re
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as hs

from kdc import cli
from kdc import counting
from kdc import dualcomplex as dc
from kdc import linechart as lc
from kdc import polytope as pt
from kdc import strata as st
from kdc.errors import InvariantError
from kdc.linechart import Classification


def mk(n, N, b, xs, taus=None):
    taus = taus if taus is not None else [0] * len(xs)
    return st.Stratum(n, N, b, list(zip(taus, xs)))


D123 = mk(3, 1, 3, (1, 2, 3))
D12m3 = mk(3, 1, 3, (1, 2, -3))
E1234 = mk(4, 1, 4, (1, 2, 3, 4))


def xs_of(cell):
    return tuple(sorted(p.x for p in cell.stratum.points))


# ---------------------------------------------------------------------------
# global assembly


def test_build_n3_N1():
    cx = dc.build(3, 1)
    assert cx.f_vector() == (6, 9, 4)
    assert len(cx.cells) == 19
    assert cx.euler_characteristic() == 1
    by_gap = Counter()
    for lo, hi in cx.incidence:
        by_gap[(cx.by_id[lo].dim, cx.by_id[hi].dim)] += 1
    assert by_gap == {(0, 1): 18, (1, 2): 12}


def test_build_matches_closed_forms():
    from kdc.counting import n3_counts

    for N in (1, 2, 3, 4):
        faces, edges, vertices = n3_counts(N)
        assert dc.build(3, N).f_vector() == (vertices, edges, faces)


def test_build_n2_is_a_path():
    for N in (1, 2, 3, 5):
        cx = dc.build(2, N)
        assert cx.f_vector() == (N + 1, N)
        assert cx.euler_characteristic() == 1
        degrees = Counter()
        for lo, _ in cx.incidence:
            degrees[lo] += 1
        assert sorted(degrees.values()) == [1, 1] + [2] * (N - 1)


def test_is_connected():
    cx = dc.build(2, 3)
    assert cx.is_connected()
    cut = cx.by_dim[1][1].id  # without any one edge a path falls apart
    cells = tuple(c for c in cx.cells if c.id != cut)
    incidence = frozenset(p for p in cx.incidence if cut not in p)
    assert not dc.DualComplex(2, 3, cells, incidence).is_connected()
    assert dc.DualComplex(2, 3, (), frozenset()).is_connected()


def test_cells_record_shapes():
    cx = dc.build(3, 2)
    for cell in cx.cells:
        on, above, below = cell.lattice_shape
        if cell.cls is Classification.NARROW:
            assert cell.dim == on - 1 and above == below == 0
        else:
            assert cell.dim == on + above + below - 2
            assert above >= 1 and below >= 1


def test_incidence_is_covering():
    cx = dc.build(3, 2)
    for lo, hi in cx.incidence:
        assert cx.by_id[hi].dim == cx.by_id[lo].dim + 1
    for cell in cx.by_dim[2]:
        assert len(cx.down[cell.id]) == 3


# sha256 and byte count of export(build(n, 1), "json"): at N = 1 almost every
# cell is a group of its own, so each face list comes from its own split
@pytest.mark.parametrize("n, digest, size", [
    (6, "8588c9f03aa71065c78dbf571b39fea05262c9d96b3abcc078a14c937a0031c6", 1663787),
    (7, "5422fb24ee4e974c1068bdd87ba24aa259d66d02781c9bb3d901e7b673a41b4a", 9569166),
])
def test_single_residue_builds_keep_their_export(n, digest, size):
    blob = dc.export(dc._build.__wrapped__(n, 1), "json")
    assert (hashlib.sha256(blob).hexdigest(), len(blob)) == (digest, size)


@pytest.mark.parametrize("rung", ["build.3_2", "build.3_16", "build.4_4", "build.5_2"])
def test_build_matches_golden_export(rung):
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden.json"
    want = json.loads(golden.read_text())["ladder"][rung]
    n, N = map(int, rung.split(".")[1].split("_"))
    cx = dc.build(n, N)
    assert list(cx.f_vector()) == want["f_vector"]
    assert hashlib.sha256(dc.export(cx, "json")).hexdigest() == want["json_sha256"]


def test_ambiguous_levels_get_suffixed_ids():
    cx = dc.build(5, 1)
    tops = cx.by_dim[4]
    assert len(tops) == 28
    assert len({c.stratum for c in tops}) == 24
    suffixed = [c for c in cx.cells if "@k=" in c.id]
    assert suffixed
    for c in suffixed:
        assert c.id == "%s@k=%d" % (st.format_stratum(c.stratum), c.k)
    levels = {}
    for c in cx.cells:
        levels.setdefault(c.stratum, []).append(c.k)
    for s, ks in levels.items():
        assert sorted(ks) == list(st.valid_levels(s))


# ---------------------------------------------------------------------------
# closed cells of deepest strata


def test_triangle_cell_of_diagonal_top():
    cell = dc.delta_K(D123)
    assert cell.f_vector() == (3, 3, 1)
    assert {xs_of(c) for c in cell.by_dim[0]} == {(0, 1, 1), (1, 1, 1), (1, 1, 2)}
    assert {xs_of(c) for c in cell.by_dim[1]} == {(1, 1, 2), (1, 2, 2), (1, 2, 3)}
    assert [c.stratum for c in cell.by_dim[2]] == [D123]


def test_triangle_cell_of_mirror_top():
    cell = dc.delta_K(D12m3)
    assert cell.f_vector() == (3, 3, 1)
    assert {xs_of(c) for c in cell.by_dim[0]} == {(0, 0, 0), (0, 1, 1), (1, 1, 2)}
    assert {xs_of(c) for c in cell.by_dim[1]} == {(-1, 0, 1), (-2, 1, 1), (1, 2, 3)}


def test_mirror_triangles_share_three_cells():
    plus = {c.id for c in dc.delta_K(D123).cells}
    minus = {c.id for c in dc.delta_K(D12m3).cells}
    shared = plus & minus
    assert shared == {
        st.format_stratum(mk(3, 1, 0, (0, 1, 1))),
        st.format_stratum(mk(3, 1, 1, (1, 1, 2))),
        st.format_stratum(mk(3, 1, 2, (1, 2, 3))),
    }


def test_pyramid_cell():
    cell = dc.delta_K(E1234)
    assert cell.f_vector() == (5, 8, 5, 1)
    assert {xs_of(c) for c in cell.by_dim[0]} == {
        (0, 0, 1, 1),
        (1, 1, 1, 1),
        (1, 1, 1, 2),
        (0, 1, 1, 2),
        (0, 1, 1, 1),
    }
    assert {xs_of(c) for c in cell.by_dim[1]} == {
        (1, 1, 2, 2),
        (1, 2, 2, 2),
        (0, 1, 1, 2),
        (0, 1, 2, 3),
        (0, 1, 2, 2),
        (1, 1, 1, 2),
        (1, 1, 2, 3),
        (1, 2, 2, 3),
    }
    assert {xs_of(c) for c in cell.by_dim[2]} == {
        (1, 2, 2, 3),
        (1, 1, 2, 3),
        (1, 2, 3, 4),
        (0, 1, 2, 3),
        (1, 2, 3, 3),
    }


def test_local_lattice_is_a_slice():
    for top in (D123, D12m3, E1234):
        cell = dc.delta_K(top)
        on, above, below = cell.by_id[st.format_stratum(top)].lattice_shape
        assert dc.has_face_poset(cell, pt.slice_lattice(above, below, on))


def _closure(cx, top):
    """The sub-complex of cx on the cell top and every cell below it."""
    down = cx._graph[2]
    keep, todo = set(), [cx._position(top.id)]
    while todo:
        i = todo.pop()
        if i not in keep:
            keep.add(i)
            todo += down[i]
    return dc.DualComplex(cx.n, cx.N, tuple(cx.cells[i] for i in keep),
                          frozenset((cx.cells[j].id, cx.cells[i].id) for i in keep for j in down[i]))


def test_local_cells_agree_with_global_complex():
    # every deepest cell, the two-level strata of (5,1) and (6,1) at each of their levels
    for n, N in ((3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3), (5, 1), (6, 1)):
        cx = dc.build(n, N)
        deepest = [c for c in cx.cells if c.b == n]
        assert deepest and all(c.dim == n - 1 for c in deepest)
        if (n, N) == (3, 1):
            assert {D123, D12m3} <= {c.stratum for c in deepest}
        if (n, N) == (5, 1):
            assert deepest == list(cx.by_dim[4]) and any("@k=" in c.id for c in deepest)
        for top in deepest:
            cell = dc.delta_K(top.stratum, top.k)
            assert cell == _closure(cx, top), top.id
            if (n, N) == (3, 2):
                assert dc.verify_disk(cell).ok, top.id
    for top in (D123, D12m3, E1234):
        cell = dc.delta_K(top)
        assert dc.parse_complex(dc.export(cell, "json")) == cell


def test_delta_K_guards():
    with pytest.raises(ValueError):
        dc.delta_K(mk(3, 1, 2, (1, 2, 3)))
    with pytest.raises(ValueError):
        dc.delta_K(mk(3, 2, 3, (1, 2, 3), taus=(0, 0, 0)))
    ambiguous = mk(5, 1, 5, (1, 2, 3, 4, 5))
    assert st.valid_levels(ambiguous) == (1, 2)
    with pytest.raises(ValueError, match="ambiguous"):
        dc.delta_K(ambiguous)
    for k in (1, 2):
        cid = "%s@k=%d" % (st.format_stratum(ambiguous), k)
        assert [c.id for c in dc.delta_K(ambiguous, k=k).cells if c.stratum == ambiguous] == [cid]
    with pytest.raises(ValueError):
        dc.delta_K(ambiguous, k=3)
    # k = 2 is a neutral level of the chart but fails the residue condition
    one_level = mk(5, 2, 5, (1, 2, 3, 4, 5), taus=(1, 0, 0, 0, 0))
    assert st.valid_levels(one_level) == (1,)
    with pytest.raises(ValueError, match="k=2 is not a valid neutral level"):
        dc.delta_K(one_level, k=2)


def test_delta_K_refuses_repeated_face_strata(monkeypatch):
    plans = st._plans
    monkeypatch.setattr(st, "_plans", lambda chart, k: plans(chart, k) * 2)
    with pytest.raises(InvariantError, match="^face strata of a single cell must be distinct$"):
        dc.delta_K(D123)


def test_a_cell_missing_a_cover_has_neither_shape():
    tetra = pt.simplex(3)
    pyramid = pt.cone(pt.product(pt.simplex(1), pt.simplex(1)), 1)
    shapes = Counter()
    for top in dc.build(4, 1).by_dim[3]:
        cell = dc.delta_K(top.stratum)
        shape = "tetrahedron" if dc.has_face_poset(cell, tetra) else "pyramid"
        assert dc.has_face_poset(cell, tetra if shape == "tetrahedron" else pyramid)
        shapes[shape] += 1
        for pair in sorted(cell.incidence):
            cut = dc.DualComplex(4, 1, cell.cells, cell.incidence - {pair})
            assert not dc.has_face_poset(cut, tetra) and not dc.has_face_poset(cut, pyramid)
    assert min(shapes.values()) > 0 and len(shapes) == 2


# ---------------------------------------------------------------------------
# disk verification


def test_small_complexes_are_disks():
    for N in (1, 2, 3, 4):
        report = dc.verify_disk(dc.build(3, N))
        assert report.ok
        assert report.euler == 1
        assert report.verdict == "combinatorial disk"
        assert "combinatorial disk" in report.summary()


def test_boundary_cycle_length():
    report = dc.verify_disk(dc.build(3, 2))
    # boundary edges = edges with a single coface
    cx = dc.build(3, 2)
    boundary = [e for e in cx.by_dim[1] if len(cx.up[e.id]) == 1]
    assert len(report.boundary_cycle) == len(boundary)


def test_removing_a_triangle_breaks_the_disk():
    cx = dc.build(3, 1)
    victim = cx.by_dim[2][0].id
    cells = tuple(c for c in cx.cells if c.id != victim)
    incidence = frozenset(p for p in cx.incidence if victim not in p)
    broken = dc.DualComplex(3, 1, cells, incidence)
    report = dc.verify_disk(broken)
    assert not report.ok
    assert report.euler == 0


def _third_triangle(cx):
    e = next(e.id for e in cx.by_dim[1] if len(cx.up[e.id]) == 2)
    t = next(t.id for t in cx.by_dim[2] if t.id not in cx.up[e])
    return cx.cells, cx.incidence | {(e, t)}


def _boundary_edge_in_a_second_triangle(cx):
    e = next(e.id for e in cx.by_dim[1] if len(cx.up[e.id]) == 1)
    t = next(t.id for t in cx.by_dim[2] if t.id not in cx.up[e])
    return cx.cells, cx.incidence | {(e, t)}


def _boundary_edge_loses_an_end(cx):
    e = next(e.id for e in cx.by_dim[1] if len(cx.up[e.id]) == 1)
    return cx.cells, cx.incidence - {(cx.down[e][0], e)}


def _three_edges_at_a_vertex(cx):
    t = cx.by_dim[2][0].id
    corners = sorted({v for e in cx.down[t] for v in cx.down[e]})
    e = next(e for v in corners for e in cx.up[v] if e not in cx.down[t])
    return cx.cells, cx.incidence | {(e, t)}


def _vertex_without_cofaces(cx, count=1):
    return cx.cells + dc.build(3, cx.N + 1).by_dim[0][:count], cx.incidence


def _two_triangles(cx, share_a_vertex=False):
    """Two triangles of cx wired apart, or on one common vertex if share_a_vertex."""
    vs, es, ts = cx.by_dim[0][:6], cx.by_dim[1][:6], cx.by_dim[2][:2]
    incidence = set()
    second = vs[2:5] if share_a_vertex else vs[3:]
    for t, corners, edges in zip(ts, (vs[:3], second), (es[:3], es[3:])):
        for e, pair in zip(edges, itertools.combinations(corners, 2)):
            incidence |= {(v.id, e.id) for v in pair} | {(e.id, t.id)}
    cells = vs[:5] if share_a_vertex else vs
    return cells + es + ts, incidence


@pytest.mark.parametrize("perturb, failures, boundary_kept", [
    (_third_triangle, ["edge degrees 1|2", "vertex links"], True),
    (_boundary_edge_in_a_second_triangle, ["vertex links", "boundary cycle"], False),
    (_boundary_edge_loses_an_end, ["vertex links", "boundary cycle"], False),
    (_three_edges_at_a_vertex, ["edge degrees 1|2", "vertex links"], True),
    (_vertex_without_cofaces, ["connected", "pure 2-dim", "euler 2 != 1"], True),
    (_two_triangles, ["connected", "boundary cycle", "euler 2 != 1"], False),
])
def test_disk_check_failing_branches(perturb, failures, boundary_kept):
    cx = dc.build(3, 2)
    cells, incidence = perturb(cx)
    report = dc.verify_disk(dc.DualComplex(3, 2, cells, frozenset(incidence)))
    assert report.failures() == failures
    assert not report.ok and report.verdict == "not a combinatorial disk"
    kept = dc.verify_disk(cx).boundary_cycle
    assert report.boundary_cycle == (kept if boundary_kept else ())
    assert len(kept) == 12


@pytest.mark.parametrize("adj, walk", [
    ({"a": []}, ("a",)),
    ({"b": ["a", "c"], "c": ["b"], "a": ["b"]}, ("a", "b", "c")),
    ({"b": ["c", "a"], "a": ["c", "b"], "c": ["a", "b"]}, ("a", "c", "b")),
    ({"a": ["b", "b"], "b": ["a", "a"]}, ("a", "b")),
    ({"a": ["b"], "b": ["a", "c", "d"], "c": ["b"], "d": ["b"]}, None),
    ({"a": ["b"], "b": ["a", "c", "d"], "c": ["b", "d"], "d": ["c", "b"], "e": []}, None),
    ({"a": ["b"], "b": ["a"], "c": []}, None),
    ({"a": ["b", "b"], "b": ["a", "a"], "c": ["d", "d"], "d": ["c", "c"]}, None),
])
def test_walk_follows_one_path_or_cycle(adj, walk):
    assert dc._walk(adj) == walk


def test_verify_disk_needs_n3():
    with pytest.raises(ValueError, match=r"\(n, N\) = \(2, 2\)"):
        dc.verify_disk(dc.build(2, 2))


# ---------------------------------------------------------------------------
# type-4 vertices, stars, rows


def test_star_census():
    cx = dc.build(3, 4)
    shapes = Counter()
    for cell in dc.type4_vertices(cx):
        star = dc.local_chart(cell.stratum)
        kind = "A" if cell.b == 0 else "B"
        shapes[(kind, len(star.triangles), len(star.boundary_edges))] += 1
    assert shapes == {
        ("A", 12, 0): 1,
        ("A", 6, 2): 3,
        ("A", 2, 2): 1,
        ("B", 6, 0): 2,
        ("B", 3, 2): 6,
        ("B", 1, 2): 2,
    }


def test_stars_tile_the_complex():
    for N in (1, 2, 3):
        cx = dc.build(3, N)
        covered = Counter()
        for cell in dc.type4_vertices(cx):
            covered.update(dc.local_chart(cell.stratum).triangles)
        assert covered == Counter(c.id for c in cx.by_dim[2])


def test_local_chart_guards():
    with pytest.raises(ValueError):
        dc.local_chart(mk(3, 1, 0, (0, 1, 1)))
    with pytest.raises(ValueError):
        dc.local_chart(mk(2, 1, 0, (0, 0)))
    with pytest.raises(ValueError):
        dc.local_chart(mk(3, 1, 0, (1, 1, 1)))


def test_grow_rows_small():
    rows = dc.grow_rows(2)
    flat = [(c.kind, c.taus) for row in rows for c in row]
    assert flat == [
        ("A1", (0, 0, 0)),
        ("B1-", (0, 0, 1)),
        ("B1+", (-1, 0, 0)),
        ("B1+", (-1, -1, 1)),
        ("A1", (-1, 0, 1)),
        ("B1-", (-1, 1, 1)),
    ]
    for row_index, row in enumerate(rows):
        assert len(row) == row_index + 1
        assert all(c.row == row_index for c in row)


def test_grow_rows_matches_type4_vertices():
    for N in (1, 2, 3, 4):
        cx = dc.build(3, N)
        grown = {st.format_stratum(c.stratum) for row in dc.grow_rows(N) for c in row}
        assert grown == {c.id for c in dc.type4_vertices(cx)}
        assert len(grown) == (N + 1) * (N + 2) // 2


def test_type4_needs_n3():
    with pytest.raises(ValueError):
        dc.type4_vertices(dc.build(2, 1))


# ---------------------------------------------------------------------------
# automorphisms


def test_automorphism_orders():
    for N in (1, 2, 3, 4, 6):
        cx = dc.build(3, N)
        assert dc.has_automorphism(cx, 2)
        assert dc.has_automorphism(cx, 3) == (N % 3 == 0)
    with pytest.raises(ValueError):
        dc.has_automorphism(dc.build(3, 1), 1)


def _vertex_sets(cx):
    """Each cell's vertices: itself for a vertex, else the union over the cells it covers."""
    vs = {}
    for c in sorted(cx.cells, key=lambda c: c.dim):
        vs[c.id] = frozenset([c.id]) if c.dim == 0 else frozenset().union(
            *(vs[d] for d in cx.down[c.id]))
    return vs


def reference_automorphisms(cx):
    """Reference: the incidence automorphisms of cx, each a sorted tuple of (id, image) pairs.

    Where (dim, vertex set) tells the cells apart, an automorphism is its
    vertex permutation extended through those keys: vertex maps grow one
    vertex at a time, in breadth-first order along two-vertex cells (so a
    vertex goes next to its parent's image), and one is cut once a cell on
    its vertices has no image.  Otherwise every permutation that keeps
    dimensions is tried, which suits tiny complexes.
    """
    vs = _vertex_sets(cx)
    key = {c.id: (c.dim, vs[c.id]) for c in cx.cells}
    cell_of = {k: c for c, k in key.items()}

    def keeps_incidence(perm):
        return {(perm[a], perm[b]) for a, b in cx.incidence} == cx.incidence

    if len(cell_of) < len(key):
        layers = [cx.by_dim[d] for d in sorted(cx.by_dim)]
        ids = [c.id for layer in layers for c in layer]
        perms = (dict(zip(ids, (c.id for part in parts for c in part)))
                 for parts in itertools.product(*map(itertools.permutations, layers)))
        return {tuple(sorted(perm.items())) for perm in perms if keeps_incidence(perm)}

    def image(c, sigma):
        return cell_of.get((key[c][0], frozenset(sigma[v] for v in key[c][1])))

    verts = [v.id for v in cx.by_dim.get(0, ())]
    nbrs = {v: set() for v in verts}
    for ends in vs.values():
        if len(ends) == 2:
            a, b = ends
            nbrs[a].add(b)
            nbrs[b].add(a)
    order, parent = [], {}  # a vertex after its component's root is next to its parent
    for root in verts:
        if root not in order:
            i = len(order)
            order.append(root)
            while i < len(order):
                for v in sorted(nbrs[order[i]].difference(order)):
                    order.append(v)
                    parent[v] = order[i]
                i += 1
    pos = {v: i for i, v in enumerate(order)}
    done_at = [[] for _ in order]  # the cells whose last vertex in order is order[i]
    for c, ends in vs.items():
        if ends:
            done_at[max(map(pos.get, ends))].append(c)
    found = set()

    def grow(sigma):
        i = len(sigma)
        if i == len(order):
            perm = {c: image(c, sigma) for c in key}
            if keeps_incidence(perm):
                found.add(tuple(sorted(perm.items())))
            return
        v = order[i]
        for w in nbrs[sigma[parent[v]]] if v in parent else verts:
            if w not in sigma.values():
                sigma[v] = w
                if all(image(c, sigma) is not None for c in done_at[i]):
                    grow(sigma)
                del sigma[v]

    grow({})
    return found


def _assert_group(cx, group):
    """group is a group of incidence automorphisms of cx, without repeats, the identity first."""
    ids = [c.id for c in cx.cells]
    assert group[0] == dict(zip(ids, ids))
    elements = {tuple(sorted(perm.items())) for perm in group}
    assert len(elements) == len(group)
    for perm in group:
        assert sorted(perm) == sorted(perm.values()) == sorted(ids)
        assert {(perm[a], perm[b]) for a, b in cx.incidence} == cx.incidence
        for other in group:  # closed under composition
            assert tuple(sorted((c, other[perm[c]]) for c in ids)) in elements


def _digon(cx, with_triangle=True):
    """Two edges between the same two vertices, both in one 2-cell if with_triangle."""
    t, (e1, e2), (a, b) = cx.by_dim[2][0], cx.by_dim[1][:2], cx.by_dim[0][:2]
    incidence = {(a.id, e1.id), (b.id, e1.id), (a.id, e2.id), (b.id, e2.id)}
    if with_triangle:
        return (a, b, e1, e2, t), incidence | {(e1.id, t.id), (e2.id, t.id)}
    return (a, b, e1, e2), incidence


def _book(cx, pages=3):
    """pages triangles (a, b, c_i) on one edge ab, each c_i joined to a and b."""
    (a, b, *cs), (ab, *es), ts = (cx.by_dim[0][:2 + pages], cx.by_dim[1][:1 + 2 * pages],
                                  cx.by_dim[2][:pages])
    incidence = {(a.id, ab.id), (b.id, ab.id)}
    for c, ac, bc, t in zip(cs, es[0::2], es[1::2], ts):
        incidence |= {(a.id, ac.id), (c.id, ac.id), (b.id, bc.id), (c.id, bc.id),
                      (ab.id, t.id), (ac.id, t.id), (bc.id, t.id)}
    return (a, b, *cs, ab, *es, *ts), incidence


def _without_a_triangle(cx):
    victim = cx.by_dim[2][0].id
    return (tuple(c for c in cx.cells if c.id != victim),
            frozenset(p for p in cx.incidence if victim not in p))


def _moebius(cx):
    """Five vertices, ten edges and the five triangles {i, i+1, i+2} mod 5: a Moebius strip."""
    vs, ts = cx.by_dim[0][:5], cx.by_dim[2][:5]
    edge = dict(zip(itertools.combinations(range(5), 2), cx.by_dim[1][:10]))
    incidence = {(vs[v].id, e.id) for pair, e in edge.items() for v in pair}
    for i, t in enumerate(ts):
        corners = sorted((i + d) % 5 for d in range(3))
        incidence |= {(edge[pair].id, t.id) for pair in itertools.combinations(corners, 2)}
    return vs + tuple(edge.values()) + ts, incidence


def _edge_between_far_vertices(cx):
    """One more edge cell, taken from the complex at N + 1, on two vertices with no common edge."""
    u, w = next((u, w) for u, w in itertools.combinations(cx.by_dim[0], 2)
                if not set(cx.up[u.id]) & set(cx.up[w.id]))
    e = dc.build(3, cx.N + 1).by_dim[1][0]
    return cx.cells + (e,), cx.incidence | {(u.id, e.id), (w.id, e.id)}


# cells of build(3, 1): two vertices, an edge and two triangles, in id order
A, V = "X{n=3;N=1;b=0;[(0,0),(0,+1),(0,+1)]}", "X{n=3;N=1;b=0;[(0,0),(0,0),(0,0)]}"
E = "X{n=3;N=1;b=1;[(0,0),(0,+1),(0,-1)]}"
T, T2 = "X{n=3;N=1;b=3;[(0,+1),(0,+2),(0,+3)]}", "X{n=3;N=1;b=3;[(0,+1),(0,+2),(0,-3)]}"


def _vertex_on_a_far_triangle(cx):
    """One incidence straight from a vertex to a triangle it is no corner of."""
    assert V in cx.by_id and cx._position(V) not in dc._corners(cx, cx._position(T))
    return cx.cells, cx.incidence | {(V, T)}


def _fan(cx):
    """One vertex straight under two edges and two triangles, and nothing else."""
    v, es, ts = cx.by_dim[0][0], cx.by_dim[1][:2], cx.by_dim[2][:2]
    return (v, *es, *ts), {(v.id, c.id) for c in es + ts}


def _perturbed(N, perturb):
    cells, incidence = perturb(dc.build(3, N))
    return dc.DualComplex(3, N, tuple(cells), frozenset(incidence))


def test_moebius_strip_fails_only_euler():
    m = _perturbed(2, _moebius)
    report = dc.verify_disk(m)
    assert not report.ok and report.failures() == ["euler 0 != 1"]
    assert len(report.boundary_cycle) == 5
    # its automorphisms form the dihedral group of order 10
    assert [dc.has_automorphism(m, order) for order in range(2, 7)] == [
        True, False, False, True, False]


def _without_an_edge_of_a_triangle(cx, vertex_instead=False):
    assert (E, T2) in cx.incidence
    extra = {(cx.by_dim[0][0].id, T2)} if vertex_instead else set()
    return cx.cells, cx.incidence - {(E, T2)} | extra


def _edge_without_ends(cx):
    """The first edge of cx cut from both its vertices."""
    e = cx.by_dim[1][0].id
    return cx.cells, cx.incidence - {(v, e) for v in cx.down[e]}


# the order of each complex's automorphism group
AUTOMORPHISM_CASES = (
    [pytest.param(dc.build, (3, N), size, id="build(3,%d)" % N)
     for N, size in zip(range(1, 7), (2, 2, 6, 2, 2, 6))]
    + [pytest.param(_perturbed, (2, f), size, id=f.__name__) for f, size in (
        (_third_triangle, 1), (_boundary_edge_in_a_second_triangle, 1),
        (_boundary_edge_loses_an_end, 1), (_three_edges_at_a_vertex, 1),
        (_vertex_without_cofaces, 2))]  # build(3, 2)'s group, the extra vertex fixed
    # build(3, 2)'s group, with and without the swap of the two extra vertices
    + [pytest.param(_perturbed, (2, lambda cx: _vertex_without_cofaces(cx, 2)), 4,
                    id="two-vertices-in-no-triangle")]
    + [pytest.param(_perturbed, (3, _without_a_triangle), 1, id="build(3,3)-triangle"),
       # swap a and b, permute the pages
       pytest.param(_perturbed, (1, _book), 12, id="three-triangles-on-one-edge"),
       # swap a and b, permute the four pages: build(3, 1) has cells for exactly four
       pytest.param(_perturbed, (1, lambda cx: _book(cx, 4)), 48, id="four-triangles-on-one-edge"),
       pytest.param(_perturbed, (1, _digon), 4, id="digon"),
       pytest.param(_perturbed, (1, lambda cx: _digon(cx, False)), 4, id="two-edges-one-pair"),
       pytest.param(_perturbed, (2, _moebius), 10, id="moebius-strip"),
       # the path on four vertices: only its reflection
       pytest.param(dc.build, (2, 3), 2, id="build(2,3)"),
       pytest.param(_perturbed, (1, _without_an_edge_of_a_triangle), 1, id="triangle-without-an-edge"),
       pytest.param(_perturbed, (1, _edge_without_ends), 2, id="edge-without-ends"),
       pytest.param(_perturbed, (3, _edge_between_far_vertices), 2, id="edge-in-no-triangle"),
       # each triangle's six symmetries, and the swap
       pytest.param(_perturbed, (2, _two_triangles), 72, id="two-triangles-apart"),
       pytest.param(_perturbed, (2, lambda cx: _two_triangles(cx, share_a_vertex=True)), 8,
                    id="two-triangles-on-one-vertex")]
)


@pytest.mark.parametrize("make, args, size", AUTOMORPHISM_CASES)
def test_automorphism_search_matches_reference(make, args, size):
    cx = make(*args)
    group = dc.automorphisms(cx)
    assert len(group) == size
    _assert_group(cx, group)
    want = reference_automorphisms(cx)
    assert {tuple(sorted(perm.items())) for perm in group} == want
    orders = {dc._permutation_order(dict(perm)) for perm in want}
    assert [dc.has_automorphism(cx, order) for order in range(2, 7)] == [
        order in orders for order in range(2, 7)]


def _plus(*pairs):
    """A tamper of build(3, 1) that adds incidence pairs."""
    return lambda cx: (cx.cells, cx.incidence | set(pairs))


def _skew(lo, hi, d_lo, d_hi):
    return "incidence (%r, %r) joins dims %d and %d, not d and d + 1" % (lo, hi, d_lo, d_hi)


def _unknown(lo, hi):
    return "incidence (%r, %r) references an unknown cell" % (lo, hi)


# tampers of build(3, 1) that leave no complex, and the refusal naming the first bad pair
NOT_A_COMPLEX = {
    "a cell listed twice": (lambda cx: (cx.cells + cx.cells[:1], cx.incidence),
                            "cell %r is listed twice" % A),
    "an unknown face": (_plus(("nope", A)), _unknown("nope", A)),
    "an unknown coface": (_plus((A, "nope")), _unknown(A, "nope")),
    "a self-incidence": (_plus((V, V)), "self-incidence (%r, %r)" % (V, V)),
    "vertex-on-a-far-triangle": (_vertex_on_a_far_triangle, _skew(V, T, 0, 2)),
    # the first of its two vertex-to-triangle pairs
    "vertex-under-edges-and-triangles": (_fan, _skew(A, T, 0, 2)),
    "vertex-for-an-edge": (lambda cx: _without_an_edge_of_a_triangle(cx, True),
                           _skew(A, T2, 0, 2)),
    "two vertices": (_plus((A, V)), _skew(A, V, 0, 0)),
    "a triangle under an edge": (_plus((T, E)), _skew(T, E, 2, 1)),
    "two bad pairs": (_plus((V, T), (A, V)), _skew(A, V, 0, 0)),
    "a skew pair before an unknown cell": (_plus(("nope", A), (T, E)), _skew(T, E, 2, 1)),
    "an unknown cell before a skew pair": (_plus((A, "nope"), (T, E)), _unknown(A, "nope")),
}


@pytest.mark.parametrize("case", sorted(NOT_A_COMPLEX))
def test_a_complex_refuses_what_is_not_a_complex(case):
    """The constructor refuses, the pairs in a set or from a generator, and parse_complex
    of the same tampered export says the same."""
    tamper, message = NOT_A_COMPLEX[case]
    cx = dc.build(3, 1)
    cells, incidence = tamper(cx)
    for pairs in frozenset(incidence), (pair for pair in incidence):
        with pytest.raises(ValueError) as err:
            dc.DualComplex(3, 1, tuple(cells), pairs)
        assert str(err.value) == message
    data = json.loads(dc.export(cx, "json"))
    entry = {e["id"]: e for e in data["cells"]}
    data["cells"] = [entry[c.id] for c in cells]
    data["incidence"] = [list(pair) for pair in sorted(incidence)]
    with pytest.raises(ValueError) as err:
        dc.parse_complex(data)
    assert str(err.value) == message


@settings(max_examples=60, deadline=None)
@given(hs.data())
def test_one_added_pair_is_refused_unless_it_is_a_cover(data):
    cx = dc.build(3, 2)
    dims = {c.id: c.dim for c in cx.cells}
    ids = hs.sampled_from(sorted(dims) + ["nope"])
    lo, hi = data.draw(ids), data.draw(ids)
    if lo in dims and hi in dims and dims[hi] == dims[lo] + 1:
        assert (lo, hi) in dc.DualComplex(3, 2, cx.cells, cx.incidence | {(lo, hi)}).incidence
        return
    with pytest.raises(ValueError) as err:
        dc.DualComplex(3, 2, cx.cells, cx.incidence | {(lo, hi)})
    if lo not in dims or hi not in dims:
        assert str(err.value) == _unknown(lo, hi)
    elif lo == hi:
        assert str(err.value) == "self-incidence (%r, %r)" % (lo, hi)
    else:
        assert str(err.value) == _skew(lo, hi, dims[lo], dims[hi])


def test_the_pairs_may_come_in_any_iterable_and_repeat():
    cx = dc.build(3, 2)
    pairs = sorted(cx.incidence)
    made = [dc.DualComplex(3, 2, cx.cells, (pair for pair in pairs)),
            dc.DualComplex(3, 2, cx.cells, pairs + pairs[3:4]),
            dc.DualComplex(3, 2, cx.cells, frozenset(pairs))]
    for other in made:
        assert other == cx and hash(other) == hash(cx) and other._graph == cx._graph
        _, up, down = other._graph
        assert all(len(set(js)) == len(js) for js in up + down)
        assert sum(map(len, up)) == sum(map(len, down)) == len(pairs)


def test_the_json_export_writes_the_incidence_and_reads_back():
    cx = dc.build(4, 2)
    data = json.loads(dc.export(cx, "json"))
    assert data["incidence"] == [list(pair) for pair in sorted(cx.incidence)]
    assert dc.DualComplex(cx.n, cx.N, cx.cells, cx.incidence) == cx
    data["incidence"].insert(5, data["incidence"][2])
    assert dc.parse_complex(data) == cx


def test_automorphism_search_works_for_every_n():
    cx = dc.build(4, 4)
    shift = {c.id: dc._make_cell(st.Stratum(4, 4, c.b, [(p.tau + 1, p.x) for p in c.stratum.points]),
                                 c.k).id
             for c in cx.cells}
    assert sorted(shift.values()) == sorted(shift)
    assert {(shift[a], shift[b]) for a, b in cx.incidence} == cx.incidence
    assert dc._permutation_order(shift) == 4
    assert dc.has_automorphism(cx, 4)
    assert dc.has_automorphism(dc.build(5, 1), 2)


@pytest.mark.parametrize("n, N, orders", [
    (3, 3, [1, 2, 2, 2, 3, 3]),  # the symmetries of a triangle
    (4, 2, [1, 2, 2, 2, 2, 2, 4, 4]),  # the symmetries of a square
])
def test_only_automorphisms_propagate(n, N, orders):
    cx = dc.build(n, N)
    group = dc.automorphisms(cx)
    assert sorted(dc._permutation_order(perm) for perm in group) == orders
    _assert_group(cx, group)


@pytest.mark.parametrize("n, N, size", [(3, 16, 2), (4, 4, 8), (3, 1, 2), (2, 3, 2),
                                        (4, 2, 8), (5, 2, 2), (6, 1, 4)])
def test_automorphism_group_orders(n, N, size):
    assert len(dc.automorphisms(dc.build(n, N))) == size


def test_automorphisms_are_kept_on_the_complex():
    cx = dc.build(3, 3)
    group = dc.automorphisms(cx)
    assert dc.automorphisms(cx) is group and cx._derived["automorphisms"] is group
    assert cx._derived["automorphism orders"] == {1, 2, 3}
    assert [dc.has_automorphism(cx, order) for order in range(2, 7)] == [True, True, False, False, False]
    assert dc.automorphisms(cx) is group
    assert dc.automorphisms(dc.DualComplex(3, 1, (), frozenset())) == ({},)


@pytest.mark.parametrize("call, message", [
    (lambda: dc.build(1, 1), "need n >= 2, got n=1"),
    (lambda: dc.build(3, 0), "need N >= 1, got N=0"),
    (lambda: st.enumerate_admissible(1, 1), "n must be >= 2, got n=1"),
    (lambda: st.enumerate_admissible(3, 0), "N must be >= 1, got N=0"),
    (lambda: next(st.iter_strata(0, 2)), "need n >= 1 and N >= 1, got (n, N) = (0, 2)"),
    (lambda: next(st.iter_strata(2, 0)), "need n >= 1 and N >= 1, got (n, N) = (2, 0)"),
    (lambda: (dc.build(3, 2), dc.build(3.0, 2)), "n and N must be integers, got 3.0"),
    (lambda: (dc.build(3, True), st.enumerate_admissible(3.0, 1)),
     "n and N must be integers, got 3.0"),
    (lambda: next(st.iter_strata(2, 1.5)), "n and N must be integers, got 1.5"),
    (lambda: next(st.iter_strata(3, 2, b=1.0)), "n, N and b must be integers, got 1.0"),
    (lambda: next(st.iter_strata(3, 2, b="1")), "n, N and b must be integers, got '1'"),
    (lambda: dc.build([3], 2), "n and N must be integers, got [3]"),
    (lambda: st.Stratum(3, 0, 0, [(0, 0)] * 3), "N must be >= 1, got N=0"),
    (lambda: st.Stratum(0, 1, 0, []), "n must be >= 1, got n=0"),
    (lambda: st.Stratum(3.9, 1.5, 0.7, [(0, 0)] * 3), "n, N and b must be integers, got 3.9"),
    (lambda: st.Stratum('3', 1, 0, [(0, 0)] * 3), "n, N and b must be integers, got '3'"),
    (lambda: dc.has_automorphism(dc.build(3, 1), 1), "order must be at least 2, got 1"),
    (lambda: dc.has_automorphism(dc.build(3, 1), True), "order must be at least 2, got True"),
    (lambda: dc.has_automorphism(dc.build(3, 1), 2.5), "order must be an integer, got 2.5"),
    (lambda: dc.has_automorphism(dc.build(3, 1), 2.0), "order must be an integer, got 2.0"),
    (lambda: dc.has_automorphism(dc.build(3, 1), "2"), "order must be an integer, got '2'"),
    (lambda: dc.local_chart(mk(2, 1, 0, (0, 0))),
     "local charts are defined for n = 3, got X{n=2;N=1;b=0;[(0,0),(0,0)]}"),
    (lambda: dc.type4_vertices(dc.build(2, 1)),
     "type-4 vertices live in n = 3 complexes, got (n, N) = (2, 1)"),
    (lambda: dc.grow_rows(0), "N must be positive, got N=0"),
    (lambda: counting.a(0), "n must be positive, got n=0"),
    (lambda: counting.ballot(-1), "n must be nonnegative, got n=-1"),
    (lambda: counting.m_k(0, 1), "N must be positive, got N=0"),
    (lambda: counting.m_profile(-2), "N must be positive, got N=-2"),
    (lambda: counting.n3_counts(0), "N must be positive, got N=0"),
    (lambda: st.quotient_dimension(D123, 3), "delta must be 1 or 2, got delta=3"),
    (lambda: st.ExpansionTuple((2, 0, 1)), "expansion entries must be positive integers, got (2, 0, 1)"),
    (lambda: st.ExpansionTuple(()), "expansion entries must be positive integers, got ()"),
    (lambda: st.OccupancyVector(-1, 1, ()), "need N >= 1 and b >= 0, got N=1, b=-1"),
    (lambda: st.OccupancyVector(0, 1, (1, -1)), "counts must be nonnegative, got (1, -1)"),
    (lambda: st.OccupancyVector(2, 1, (1, 1, 0, 0, 0)),
     "counts must use the all-ones indexing of length 2N(b+1), got length 5 for 2N(b+1) = 6"),
    (lambda: st.ExpansionTuple(5), "expansion entries must be integers, got 5"),
    (lambda: st.W_plus(st.OccupancyVector(0, 1, (0, 0)), 5), "expansion entries must be integers, got 5"),
    (lambda: st.OccupancyVector(0, 1, 5), "counts must be integers, got 5"),
    (lambda: st.find_admissible_r(st.OccupancyVector(0, 1, (0, 0)), 2.5),
     "bound must be an integer, got 2.5"),
    (lambda: st.find_admissible_r(st.OccupancyVector(0, 1, (0, 0)), "9"),
     "bound must be an integer, got '9'"),
    (lambda: dc.delta_K(D123, 1.5),
     "k=1.5 is not a valid neutral level of X{n=3;N=1;b=3;[(0,+1),(0,+2),(0,+3)]}"),
    (lambda: dc.delta_K(D123, "1"),
     "k='1' is not a valid neutral level of X{n=3;N=1;b=3;[(0,+1),(0,+2),(0,+3)]}"),
    (lambda: pt.simplex(-1), "simplex dimension must be nonnegative, got n=-1"),
    (lambda: pt.cone(pt.simplex(1), -2), "cannot cone a negative number of times, got times=-2"),
    (lambda: pt.slice_lattice(0, 1, 2),
     "need at least one generator on each open side, got n_plus=0, n_minus=1"),
    (lambda: pt.slice_lattice(1, 1, -1), "n_zero must be nonnegative, got n_zero=-1"),
    (lambda: lc.enumerate_complete_admissible(0), "n must be at least 1, got n=0"),
], ids=["build-n", "build-N", "enumerate_admissible-n", "enumerate_admissible-N",
        "iter_strata-n", "iter_strata-N", "build-float-after-int", "enumerate_admissible-float",
        "iter_strata-float", "iter_strata-float-b", "iter_strata-string-b", "build-list",
        "Stratum-N", "Stratum-n", "Stratum-float",
        "Stratum-string", "has_automorphism", "has_automorphism-bool", "has_automorphism-float",
        "has_automorphism-integral-float", "has_automorphism-string",
        "local_chart", "type4_vertices", "grow_rows", "a", "ballot", "m_k", "m_profile",
        "n3_counts", "quotient_dimension", "ExpansionTuple", "ExpansionTuple-empty",
        "OccupancyVector-range", "OccupancyVector-counts", "OccupancyVector-length",
        "ExpansionTuple-scalar", "W_plus-scalar", "OccupancyVector-scalar",
        "find_admissible_r-float-bound", "find_admissible_r-string-bound",
        "delta_K-float-k", "delta_K-string-k", "simplex", "cone",
        "slice_lattice-sides", "slice_lattice-zero", "enumerate_complete_admissible"])
def test_range_refusals_name_the_value(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("fn, arg, prefix", [
    (dc.delta_K, mk(3, 1, 2, (1, 2, 3)), "need a deepest stratum (b = n), got "),
    (dc.local_chart, mk(3, 1, 0, (0, 1, 1)), "not a type-4 vertex: x-values differ in "),
    (dc.local_chart, mk(3, 2, 0, (0, 0, 0), (1, 0, 0)), "not an admissible vertex stratum: "),
], ids=["delta_K", "local_chart-type4", "local_chart-vertex"])
def test_errors_name_their_stratum(fn, arg, prefix):
    with pytest.raises(ValueError) as err:
        fn(arg)
    assert str(err.value) == prefix + st.format_stratum(arg)


def test_build_names_a_face_missing_from_enumeration(monkeypatch):
    cx = dc.build(3, 1)
    victim = cx.by_dim[0][0]
    kept = tuple(s for s in st._admissible_flat(3, 1) if s != victim.stratum)
    monkeypatch.setattr(st, "_admissible_flat", lambda n, N: kept)
    with pytest.raises(InvariantError) as err:
        dc._build.__wrapped__(3, 1)
    prefix = "face %s missing from enumeration, a face of " % victim.id
    assert str(err.value).startswith(prefix)
    assert str(err.value)[len(prefix):] in cx.up[victim.id]


def test_cell_invariant_names_its_cell(monkeypatch):
    monkeypatch.setattr(st, "cell_dimension", lambda s: 7)
    with pytest.raises(InvariantError) as err:
        dc._make_cell(D123)
    assert str(err.value) == (
        "cell dimension 7 does not match lattice shape (1, 1, 2) of " + st.format_stratum(D123)
    )


def test_build_invariant_names_the_first_cell_of_its_group(monkeypatch):
    first = st._admissible_flat(3, 1)[0]
    cell = dc.build(3, 1).by_id[st.format_stratum(first)]
    monkeypatch.setattr(st, "cell_dimension", lambda s: 7)
    with pytest.raises(InvariantError) as err:
        dc._build.__wrapped__(3, 1)
    assert str(err.value) == "cell dimension 7 does not match lattice shape %r of %s" % (
        cell.lattice_shape, st.format_stratum(first))


@pytest.mark.parametrize("n, N", [(3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (4, 2), (4, 3),
                                  (5, 1), (5, 2), (6, 1)])
def test_build_ids_are_stratum_literals(n, N):
    cx = dc.build(n, N)
    spans = Counter(c.stratum for c in cx.cells)
    for c in cx.cells:
        assert c.id == st.format_stratum(c.stratum) + ("@k=%d" % c.k if spans[c.stratum] > 1 else "")
        assert dc._make_cell(c.stratum, c.k) == c
    assert max(spans.values()) == (2 if (n, N) in ((5, 1), (6, 1)) else 1)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    for n, N in ((2, 3), (3, 1), (3, 2), (4, 2), (5, 1)):
        cx = dc.build(n, N)
        again = dc.parse_complex(dc.export(cx, "json"))
        assert again == cx


@pytest.mark.parametrize("n, N", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1)])
def test_json_writer_matches_indented_dumps(n, N):
    cx = dc.build(n, N)
    blob = dc.export(cx, "json")
    assert blob == (json.dumps(dc.to_json_dict(cx), indent=2) + "\n").encode("ascii")
    assert dc.parse_complex(blob) == cx


def test_json_writer_empty_lists():
    cx = dc.DualComplex(3, 1, (), frozenset())
    blob = dc.export(cx, "json")
    assert blob == (json.dumps(dc.to_json_dict(cx), indent=2) + "\n").encode("ascii")
    assert b'"cells": []' in blob and b'"incidence": []' in blob


def test_disk_report_is_computed_once_per_complex():
    cx = dc.build(3, 2)
    report = dc.verify_disk(cx)
    assert dc.verify_disk(cx) is report
    again = dc.parse_complex(dc.export(cx, "json"))
    assert again == cx
    assert dc.verify_disk(again) is not report
    assert dc.verify_disk(again) == report


def test_json_shape():
    data = json.loads(dc.export(dc.build(3, 1), "json"))
    assert data["version"] == "kdc-1"
    assert data["n"] == 3 and data["N"] == 1
    ids = [c["id"] for c in data["cells"]]
    assert ids == sorted(ids)
    assert len(data["incidence"]) == 30


def test_dot_export():
    text = dc.export(dc.build(3, 1), "dot").decode("ascii")
    assert text.startswith("graph dual_complex {")
    assert text.rstrip().endswith("}")
    # one line per 1-skeleton edge
    assert text.count(" -- ") == 9


def test_off_export_header():
    cx = dc.build(3, 1)
    lines = dc.export(cx, "off").decode("ascii").splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "6 4 9"
    assert sum(1 for ln in lines[2:] if ln.startswith("3 ")) == 4


def test_tikz_export():
    cx = dc.build(3, 1)
    bare = dc.export(cx, "tikz").decode("ascii")
    assert bare.count("\\draw") == 9
    assert "\\node" not in bare
    labeled = dc.export(cx, "tikz", labels=True).decode("ascii")
    assert labeled.count("\\node") == 6


def test_off_export_rejects_a_digon():
    cells, incidence = _digon(dc.build(3, 1))
    digon = dc.parse_complex(dc.export(dc.DualComplex(3, 1, cells, frozenset(incidence)), "json"))
    assert dc.verify_disk(digon).ok
    with pytest.raises(ValueError, match=r"^triangle .* is not on three vertices$"):
        dc.export(digon, "off")


def test_tikz_export_rejects_a_digon():
    cells, incidence = _digon(dc.build(3, 1))
    digon = dc.parse_complex(dc.export(dc.DualComplex(3, 1, cells, frozenset(incidence)), "json"))
    assert dc.verify_disk(digon).ok
    with pytest.raises(ValueError, match=r"^triangle .* is not on three vertices$"):
        dc.export(digon, "tikz")


class _RecordingSink(io.StringIO):
    """A text sink that keeps every write it gets."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, chunk):
        self.writes.append(chunk)
        return super().write(chunk)


@pytest.mark.parametrize("fmt, with_triangle, message", [
    ("off", True, r"triangle .* is not on three vertices$"),
    ("off", False, r"layout needs a verified combinatorial disk; "),
    ("tikz", False, r"layout needs a verified combinatorial disk; "),
    ("tikz", True, r"triangle .* is not on three vertices$"),
], ids=["off-digon", "off-no-disk", "tikz-no-disk", "tikz-digon"])
def test_geometry_refusals_write_nothing(capsys, monkeypatch, fmt, with_triangle, message):
    cells, incidence = _digon(dc.build(3, 1), with_triangle)
    digon = dc.DualComplex(3, 1, cells, frozenset(incidence))
    with pytest.raises(ValueError, match="^" + message):
        dc._export_chunks(digon, fmt)  # refused before a chunk is made
    sink = _RecordingSink()
    monkeypatch.setattr(dc, "build", lambda n, N: digon)
    monkeypatch.setattr(sys, "stdout", sink)
    assert cli.main(["dual", "--n", "3", "--N", "1", "--format", fmt]) == 2
    assert sink.writes == []
    assert re.match("error: " + message, capsys.readouterr().err)


def _piece(cells, pairs):
    """A complex of `cells` cells and the first `pairs` covers of build(4, 4): the ends
    of those covers, then further cells in id order."""
    cx = dc.build(4, 4)
    covers = sorted(cx.incidence)[:pairs]
    ends = {cid for pair in covers for cid in pair}
    kept = [c for c in cx.cells if c.id in ends]
    kept += [c for c in cx.cells if c.id not in ends][:cells - len(kept)]
    piece = dc.DualComplex(4, 4, tuple(kept), frozenset(covers))
    assert (len(piece.cells), len(piece.incidence)) == (cells, pairs)
    return piece


CHUNK = dc._CHUNK


# cells and pairs at the edges of a chunk; the ends of the first 256, 257 and
# 513 covers of build(4, 4) are 248, 249 and 484 cells
@pytest.mark.parametrize("cells, pairs", [
    (0, 0), (1, 0), (CHUNK, 0), (CHUNK + 1, 0), (2 * CHUNK + 1, 1), (CHUNK, CHUNK),
    (CHUNK + 1, CHUNK + 1), (484, 2 * CHUNK + 1),
])
def test_chunked_json_matches_the_reference_encoder(cells, pairs):
    piece = _piece(cells, pairs)
    want = json.dumps(dc.to_json_dict(piece), indent=2) + "\n"
    assert dc.export(piece, "json") == want.encode("ascii")


def test_json_export_holds_about_one_copy_of_its_output():
    cx = dc.build(4, 4)
    tracemalloc.start()
    try:
        blob = dc.export(cx, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / len(blob)
    assert ratio <= 2, "export peaked at %.2f times its %d bytes" % (ratio, len(blob))


def test_layout_exports_are_deterministic():
    cx = dc.build(3, 2)
    assert dc.export(cx, "off", layout_seed=1) == dc.export(cx, "off", layout_seed=1)
    assert dc.export(cx, "off", layout_seed=1) != dc.export(cx, "off", layout_seed=2)


# sha256 of export(build(3, N), fmt, layout_seed=seed, labels=labels),
# recorded before the layout moved to index arrays
GEOMETRY_SHA256 = {
    ("off", 1, 0, False): "22831b52bc9376b9fa2ef912f6869c7c88e82a11793e5e0a23472ab9e0e0cb4d",
    ("off", 1, 1, False): "ebe6ce5a4319cf54d131ea67b1f2189abc6a9ccf0eec14937127c884e776adf5",
    ("off", 1, 3, False): "9b4a166165fd121cf889a8263a840da4901680f7d20a6a2cf38cd8df4fdff0cb",
    ("off", 1, 7, False): "ebe6ce5a4319cf54d131ea67b1f2189abc6a9ccf0eec14937127c884e776adf5",
    ("off", 2, 0, False): "afec9032187465f63bdebd394c194ce231615cac9a7f9d6168da861b55840006",
    ("off", 2, 1, False): "8c5f2e36df3c8c22dcd3793f46f6fa67877f4d053c2df9dae27596595e8d8a6a",
    ("off", 2, 3, False): "2c9c367b4680bafe787d63e172cfd072b0f87bd820d1fac019d442f13ee76f29",
    ("off", 2, 7, False): "bae9f4fbb2da3274237e999b9da3f1245a5131a868b8bb8a569de8a3cb579519",
    ("off", 3, 0, False): "ce651564bb0f920e087aa5dbceebf816bec344ac6bff4e9a3eabbe59f35b338c",
    ("off", 3, 1, False): "c314bf1c3c97e2cef5beebb1b159cd84394b0205e57918f602941c709a75a850",
    ("off", 3, 3, False): "9cdd081c803159f25919b5f255c785af1d8b6676346c2bd0afc683c35343784d",
    ("off", 3, 7, False): "acb9499bee63834359ce255275799593d18ef6646f045bac53d078b9b5fc44c4",
    ("off", 5, 0, False): "20a96f06dc3be07ac9d6f8014e041c994a89187e5e118f7080e3b2b521b7f0e3",
    ("off", 5, 3, False): "9a0822a27ed6af5d35dd423ea6b745e1221e97b71c2c48f1ca52f1dffc57848e",
    ("off", 8, 0, False): "e5a03b781fbe8d26afb6c84b32d88908cdb8f5bbc20b9f6380bbe73515794ab3",
    ("off", 8, 3, False): "035a85227a11581363394388408c47b2e49cb20f91e5365787d3affdec801ebb",
    ("off", 16, 0, False): "35b1906b3f2f324814b1c6275cee7f68d204c08bfc598e74b502a1d8786b918c",
    ("off", 16, 3, False): "713a4da7e07f521a0ada89badad6fa3deccab2a6ff52c442baae84b48ef335df",
    ("tikz", 1, 0, False): "f9327c6e4487cf9cf9ad2ac35088c44b838a64ea0d917f93e12c6deb7d6ae11c",
    ("tikz", 1, 1, False): "e1bf7d19492bc7c3bca9309eef3cfa636e15bd3fd513d2310ef7551cfd701f88",
    ("tikz", 1, 3, False): "541e3e4fbb9da215fd3c1c484b24b87526598c22a567a337aa404af6f66b2109",
    ("tikz", 1, 7, False): "e1bf7d19492bc7c3bca9309eef3cfa636e15bd3fd513d2310ef7551cfd701f88",
    ("tikz", 2, 0, False): "206d96010853990b21a5576a5e9d28ba6dde2519a0cdd66dd88206bf103c78a4",
    ("tikz", 2, 1, False): "eacffee6409f3ba1146fbf4751a98b99c2c105f292ae69d28ab3a09841e2d30c",
    ("tikz", 2, 1, True): "b73060d488750c0c928ca04ac9aa8743ec04c486f61daa285ac55617970e8f24",
    ("tikz", 2, 3, False): "b0b98331840c946756b223d3f01c8b2f796db46f303c04eadf5d51408e91ff0e",
    ("tikz", 2, 7, False): "ff91361f53775f701bd1665ba76551c49797a12c3689707d85d2c875e30924ed",
    ("tikz", 3, 0, False): "d8c525f90ae2fc8525198566adf53125967658be9a89ed6de5bab3bf2a37d71a",
    ("tikz", 3, 1, False): "8f7feb672d5083ae05e0cd651695ed676b5f731fdad64ecced77e0dc6a9c427d",
    ("tikz", 3, 3, False): "83d8b292f01191d0e85b3e2d8df36d7064f000c9a3d5296e5bccef14325998f2",
    ("tikz", 3, 7, False): "cf3ff5a7cd8778f03cbca9ee04a22ca2b7dd32fcb748eba1ebc7ae6b7f9cf638",
    ("tikz", 4, 1, True): "c7f6716f2731292b96b2688af66170e95cb796c9ddaa3d3bf8ec0cf993f46497",
    ("tikz", 5, 0, False): "520f6e13b2e7ed922d2652d8d2c54577b242c236ce530ad9ddbf4f5cc42ceca3",
    ("tikz", 5, 3, False): "f7a8060aabc98d2a0043a94399743dc5282ed42f3d01bf11d0692d28905025dc",
    ("tikz", 8, 0, False): "76fb4bcbe600f1517fc879b68c5bc4c42b7353f21245eceadaf297a831ffbe9f",
    ("tikz", 8, 3, False): "96b473e8a4fddf9b598eff6a9adbd609b65ec440662860ce92a7ac75a513c47a",
    ("tikz", 16, 0, False): "0c2f1b1dc467d0d2d84f16abfae304f9f1f69b9b21d6d147648d9cbc7e9be2e5",
    ("tikz", 16, 3, False): "4b2ab815119a42d0545f634aee948998d3d0aa9c15b6c43fc82e48cdf32d11af",
}


@pytest.mark.parametrize("fmt, N, seed, labels", sorted(GEOMETRY_SHA256))
def test_geometry_exports_match_recorded_bytes(fmt, N, seed, labels):
    blob = dc.export(dc.build(3, N), fmt, layout_seed=seed, labels=labels)
    assert hashlib.sha256(blob).hexdigest() == GEOMETRY_SHA256[(fmt, N, seed, labels)]


def _reference_layout(cx, seed):
    """The dict-of-tuples sweep, neighbours summed in id order."""
    report = dc.verify_disk(cx)
    cycle = report.boundary_cycle
    pos = {}
    for i, vid in enumerate(cycle):
        angle = 2.0 * math.pi * (i + seed) / len(cycle)
        pos[vid] = (math.cos(angle), math.sin(angle))
    neighbors = {c.id: set() for c in cx.by_dim[0]}
    for e in cx.by_dim[1]:
        a, b = cx.down[e.id]
        neighbors[a].add(b)
        neighbors[b].add(a)
    interior = sorted(v for v in neighbors if v not in pos)
    for v in interior:
        pos[v] = (0.0, 0.0)
    for _ in range(100000):
        worst = 0.0
        for v in interior:
            xs = [pos[u][0] for u in sorted(neighbors[v])]
            ys = [pos[u][1] for u in sorted(neighbors[v])]
            nx, ny = sum(xs) / len(xs), sum(ys) / len(ys)
            worst = max(worst, abs(nx - pos[v][0]), abs(ny - pos[v][1]))
            pos[v] = (nx, ny)
        if worst < 1e-9:
            break
    return pos


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6, 8, 12, 16])
def test_layout_matches_reference_sweep(N):
    # repr, since float == would not tell 0.0 from -0.0
    cx = dc.build(3, N)
    for seed in (0, 2):
        got, want = dc._layout(cx, seed), _reference_layout(cx, seed)
        assert {v: repr(p) for v, p in got.items()} == {v: repr(p) for v, p in want.items()}


def test_layout_is_computed_once_per_seed():
    cx = dc.build(3, 2)
    assert dc._layout(cx, 5) is dc._layout(cx, 5)
    assert dc._layout(cx, 5) != dc._layout(cx, 6)


def test_geometry_needs_a_disk():
    with pytest.raises(ValueError, match=r"n = 3 complexes, got \(n, N\) = \(2, 2\)"):
        dc.export(dc.build(2, 2), "off")
    with pytest.raises(ValueError, match=r"\(n, N\) = \(4, 1\)"):
        dc.export(dc.build(4, 1), "tikz")
    with pytest.raises(ValueError):
        dc.export(dc.build(3, 1), "svg")
    cx = dc.build(3, 1)
    victim = cx.by_dim[2][0].id
    broken = dc.DualComplex(
        3, 1,
        tuple(c for c in cx.cells if c.id != victim),
        frozenset(p for p in cx.incidence if victim not in p),
    )
    with pytest.raises(ValueError, match=r"verified combinatorial disk.*\(n, N\) = "
                       r"\(3, 1\) failed: .*euler 0 != 1"):
        dc.export(broken, "off")


def test_parse_rejects_bad_version():
    data = json.loads(dc.export(dc.build(3, 1), "json"))
    data["version"] = "kdc-0"
    with pytest.raises(ValueError, match="version"):
        dc.parse_complex(json.dumps(data))


def test_parse_rejects_tampered_points():
    data = json.loads(dc.export(dc.build(3, 2), "json"))
    data["cells"][0]["points"][0]["tau"] += 1
    with pytest.raises(ValueError):
        dc.parse_complex(data)


def test_parse_rejects_unknown_incidence():
    data = json.loads(dc.export(dc.build(3, 1), "json"))
    data["incidence"].append(["X{n=3;N=1;b=9;[]}", data["cells"][0]["id"]])
    with pytest.raises(ValueError, match="incidence"):
        dc.parse_complex(data)


def test_parse_rejects_self_incidence():
    data = json.loads(dc.export(dc.build(3, 1), "json"))
    cid = data["cells"][0]["id"]
    data["incidence"].append([cid, cid])
    with pytest.raises(ValueError, match="self-incidence") as err:
        dc.parse_complex(data)
    assert cid in str(err.value)


def test_parse_rejects_incidence_across_two_dims():
    cx = dc.build(3, 1)
    data = json.loads(dc.export(cx, "json"))
    vertex, triangle = cx.by_dim[0][0].id, cx.by_dim[2][0].id
    data["incidence"].append([vertex, triangle])
    with pytest.raises(ValueError, match="joins dims 0 and 2") as err:
        dc.parse_complex(data)
    assert vertex in str(err.value) and triangle in str(err.value)
    data["incidence"][-1] = [triangle, cx.by_dim[1][0].id]
    with pytest.raises(ValueError, match="joins dims 2 and 1"):
        dc.parse_complex(data)


def test_parse_rejects_spurious_level_suffix():
    data = json.loads(dc.export(dc.build(3, 1), "json"))
    entry = data["cells"][0]
    (k,) = st.valid_levels(st.parse_stratum(entry["id"]))
    entry["id"] += "@k=%d" % k
    with pytest.raises(ValueError, match="the id of its points and level") as err:
        dc.parse_complex(data)
    assert entry["id"] in str(err.value)


def _first_cell(data):
    return data["cells"][0]


def _edit(change):
    """A tamper that edits the export in place and returns it."""
    def tamper(data):
        change(data)
        return data
    return tamper


MALFORMED = {
    "array": (lambda d: [d], "the complex must be a JSON object with field 'version'"),
    "no points": (_edit(lambda d: _first_cell(d).pop("points")), "field 'points' of type list"),
    "integer id": (_edit(lambda d: _first_cell(d).update(id=7)), "cell entry 0 must .* field 'id'"),
    "point not an object": (_edit(lambda d: _first_cell(d).update(points=[[0, 1]] * 3)),
                            "each point of cell .* field 'tau'"),
    "boolean for an integer": (_edit(lambda d: _first_cell(d).update(b=False)),
                               "field 'b' of type int"),
    "too few points": (_edit(lambda d: _first_cell(d)["points"].pop()),
                       "cell .*: expected 3 points"),
    "one-element pair": (_edit(lambda d: d["incidence"].append(d["incidence"][0][:1])),
                         "incidence entry .* is not a pair"),
    "level not valid": (_edit(lambda d: _first_cell(d).update(id=_first_cell(d)["id"] + "@k=7")),
                        r"cell 'X.*@k=7': k=7 is not a valid neutral level"),
    "inadmissible": (_edit(lambda d: _first_cell(d)["points"][0].update(tau=1)),
                     "cell 'X.*': X.* is inadmissible"),
    "n and N out of range": (_edit(lambda d: d.update(n=-5, N=0, cells=[], incidence=[])),
                             r"the complex has \(n, N\) = \(-5, 0\)"),
    "level past the digit limit": (_edit(lambda d: _first_cell(d).update(
        id=_first_cell(d)["id"] + "@k=" + "9" * 5000)), r"cell 'X.*@k=9+': Exceeds the limit"),
    "residues out of order in a run": (_edit(lambda d: _first_cell(d).update(points=[
        {"tau": 0, "x": 0}, {"tau": 1, "x": 1}, {"tau": 0, "x": 1}])),
        r"cell 'X\{n=3;N=2;b=0;\[\(0,0\),\(0,\+1\),\(1,\+1\)\]\}': residues \(0, 1, 0\) "
        "are not canonical"),
    "tau past the digit limit": (lambda d: json.dumps(d).replace('"tau": 1', '"tau": 1' + "0" * 5000, 1),
                                 r"^the complex is not ASCII JSON: Exceeds the limit \(4300 digits\)"),
    "not ASCII": (lambda d: json.dumps(d).encode("ascii").replace(b"narrow", b"narr\xc3\xa9", 1),
                  r"^the complex is not ASCII JSON: 'ascii' codec can't decode byte 0xc3"),
    "truncated": (lambda d: json.dumps(d)[:-1],
                  r"^the complex is not ASCII JSON: Expecting ',' delimiter: line 1 column \d+"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_parse_rejects_malformed_input(case):
    tamper, message = MALFORMED[case]
    data = json.loads(dc.export(dc.build(3, 2), "json"))
    with pytest.raises(ValueError, match=message):
        dc.parse_complex(tamper(data))


def test_parse_requires_level_when_ambiguous():
    data = json.loads(dc.export(dc.build(5, 1), "json"))
    entry = next(c for c in data["cells"] if "@k=" in c["id"])
    entry["id"] = entry["id"].split("@")[0]
    with pytest.raises(ValueError, match="neutral level"):
        dc.parse_complex(data)


def _closed_triangle(cx):
    """The first triangle of cx with its edges and vertices, listed top-down: not id order."""
    t = cx.by_dim[2][0]
    edges = [cx.by_id[e] for e in cx.down[t.id]]
    cells = (t, *edges, *{cx.by_id[v]: None for e in edges for v in cx.down[e.id]})
    assert [c.id for c in cells] != sorted(c.id for c in cells)
    ids = {c.id for c in cells}
    return dc.DualComplex(cx.n, cx.N, cells,
                          frozenset(pair for pair in cx.incidence if ids.issuperset(pair)))


def test_up_and_down_follow_the_sorted_incidence():
    for cx in dc.build(4, 2), _closed_triangle(dc.build(3, 2)):
        assert [c.id for c in cx.cells] == sorted(c.id for c in cx.cells)
        pairs = sorted(cx.incidence)
        assert cx.up == {c.id: tuple(hi for lo, hi in pairs if lo == c.id) for c in cx.cells}
        assert cx.down == {c.id: tuple(lo for lo, hi in pairs if hi == c.id) for c in cx.cells}


@settings(max_examples=10, deadline=None)
@given(hs.sampled_from([(3, 2), (4, 1)]), hs.data())
def test_a_complex_keeps_its_cells_in_id_order(size, data):
    cx = dc.build(*size)
    shuffled = dc.DualComplex(*size, tuple(data.draw(hs.permutations(cx.cells))), cx.incidence)
    assert shuffled == cx and shuffled.cells == cx.cells
    assert [c.id for c in shuffled.cells] == sorted(c.id for c in cx.cells)
    assert (shuffled.up, shuffled.down) == (cx.up, cx.down)
    assert dc.automorphisms(shuffled) == dc.automorphisms(cx)
    assert dc.export(shuffled, "json") == dc.export(cx, "json")
    if cx.n == 3:
        assert dc.verify_disk(shuffled) == dc.verify_disk(cx)
        for fmt in ("dot", "off", "tikz"):
            assert dc.export(shuffled, fmt, layout_seed=3) == dc.export(cx, fmt, layout_seed=3)


@settings(max_examples=10, deadline=None)
@given(hs.sampled_from([(3, 3), (4, 2), (5, 1)]), hs.data())
@example((3, 3), None)
@example((4, 2), None)
@example((5, 1), None)
def test_build_does_not_depend_on_the_order_of_its_strata(size, data):
    flat = st._admissible_flat(*size)
    order = flat[::-1] if data is None else tuple(data.draw(hs.permutations(flat)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(st, "_admissible_flat", lambda n, N: order)
        cx = dc._build.__wrapped__(*size)
    assert cx == dc.build(*size)
    assert dc.export(cx, "json") == dc.export(dc.build(*size), "json")


def test_sizes_read_as_ints_whatever_is_cached():
    assert dc.build(3, True) == dc.build(3, 1)
    assert st.enumerate_admissible(3, True) == st.enumerate_admissible(3, 1)
    assert list(st.iter_strata(True, 2)) == list(st.iter_strata(1, 2))


def test_the_n3_read_path_leaves_the_string_views_unbuilt():
    cx = dc.build(3, 4)
    fresh = dc.DualComplex(3, 4, cx.cells, cx.incidence)
    assert dc.verify_disk(fresh).ok
    for fmt in ("json", "dot", "off", "tikz"):
        dc.export(fresh, fmt, labels=True)
    dc.automorphisms(fresh)
    assert not {"incidence", "up", "down", "by_id"} & set(vars(fresh))


def test_the_ladder_path_leaves_the_string_views_unbuilt():
    cx = dc._build.__wrapped__(5, 2)
    dc.export(cx, "json")
    assert not {"incidence", "up", "down", "by_id"} & set(vars(cx))


def _cell_fields(cx):
    return [(c.id, c.stratum, c.k, c.dim, c.cls, c.lattice_shape, c.stratum.points,
             st.valid_levels(c.stratum), st.chart_of(c.stratum)) for c in cx.cells]


@settings(max_examples=15, deadline=None)
@given(hs.integers(2, 5), hs.integers(1, 3))
@example(3, 16)
def test_parse_returns_the_exported_complex(n, N):
    cx = dc.build(n, N)
    again = dc.parse_complex(dc.export(cx, "json"))
    assert again == cx
    assert _cell_fields(again) == _cell_fields(cx)
    assert {type(p) for c in again.cells for p in c.stratum.points} == {st.PointLabel}


# two cells of one level data (b, xs), in file order, in the export of build(3, 3)
GROUP_33 = ("X{n=3;N=3;b=2;[(0,+1),(0,+2),(2,+3)]}", "X{n=3;N=3;b=2;[(0,+1),(1,+2),(1,+3)]}")


def _export_33_with(cid, change):
    """The JSON export of build(3, 3) with change applied to the points of cell cid."""
    data = json.loads(dc.export(dc.build(3, 3), "json"))
    change(next(c for c in data["cells"] if c["id"] == cid)["points"])
    return data


def _residues_refused(taus):
    """The reader's refusal of residues taus at N = 3, after the cell's name."""
    return ("residues %s are not canonical: each in 0..2, ascending within each run of equal x"
            % (taus,))


# point lists the stratum constructor normalizes back into the cell they were made from, and
# the reader's refusal of each, in the order of GROUP_33; the reader takes points as written
NON_CANONICAL = {
    "reversed": (lambda pts: pts.reverse(),
                 ["levels (3, 2, 1) are not in canonical order and sign"] * 2),
    "tau of N": (lambda pts: pts[0].update(tau=pts[0]["tau"] + 3),
                 [_residues_refused((3, 0, 2)), _residues_refused((3, 1, 1))]),
    "negative tau": (lambda pts: pts[1].update(tau=pts[1]["tau"] - 3),
                     [_residues_refused((0, -3, 2)), _residues_refused((0, -2, 1))]),
    "x of -(b+1)": (lambda pts: pts[2].update(tau=pts[2]["tau"] + 1, x=-3),
                    ["levels (1, 2, -3) are not in canonical order and sign"] * 2),
}


@pytest.mark.parametrize("cid", GROUP_33)
@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_parse_normalizes_non_canonical_points(case, cid):
    """The constructor still normalizes these points into their cell; the reader refuses them."""
    change, messages = NON_CANONICAL[case]
    data = _export_33_with(cid, change)
    points = next(c for c in data["cells"] if c["id"] == cid)["points"]
    assert st.Stratum(3, 3, 2, [(p["tau"], p["x"]) for p in points]) == st.parse_stratum(cid)
    with pytest.raises(ValueError) as err:
        dc.parse_complex(data)
    assert str(err.value) == "cell %r: %s" % (cid, messages[GROUP_33.index(cid)])


# tampers of the second cell of GROUP_33, read after its group is recorded, and their refusals
TAMPERED_SECOND = {
    "tau raised": (lambda pts: pts[0].update(tau=1), "cell %r: X{n=3;N=3;b=2;"
                   "[(1,+1),(1,+2),(1,+3)]} is inadmissible" % GROUP_33[1]),
    "tau past N": (lambda pts: pts[2].update(tau=5),
                   "cell %r: %s" % (GROUP_33[1], _residues_refused((0, 1, 5)))),
    "tau string": (lambda pts: pts[1].update(tau="1"), "each point of cell %r must be "
                   "a JSON object with field 'tau' of type int" % GROUP_33[1]),
    "tau float": (lambda pts: pts[0].update(tau=0.0), "each point of cell %r must be "
                  "a JSON object with field 'tau' of type int" % GROUP_33[1]),
    "x float": (lambda pts: pts[0].update(x=1.0), "each point of cell %r must be "
                "a JSON object with field 'x' of type int" % GROUP_33[1]),
    "x bool": (lambda pts: pts[0].update(x=True), "each point of cell %r must be "
               "a JSON object with field 'x' of type int" % GROUP_33[1]),
    "x missing": (lambda pts: pts[1].pop("x"), "each point of cell %r must be "
                  "a JSON object with field 'x' of type int" % GROUP_33[1]),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_SECOND))
def test_parse_refuses_a_tampered_second_cell_of_a_group(case):
    change, message = TAMPERED_SECOND[case]
    with pytest.raises(ValueError) as err:
        dc.parse_complex(_export_33_with(GROUP_33[1], change))
    assert str(err.value) == message


def test_parse_refuses_a_residue_past_N_that_its_id_agrees_on():
    # 5 = 2 mod 3, so the cell is admissible and, unrefused, would join the complex
    cid = GROUP_33[0].replace("(2,+3)", "(5,+3)")
    data = _export_33_with(GROUP_33[0], lambda pts: pts[2].update(tau=5))
    next(c for c in data["cells"] if c["id"] == GROUP_33[0])["id"] = cid
    data["incidence"] = [[cid if x == GROUP_33[0] else x for x in pair] for pair in data["incidence"]]
    with pytest.raises(ValueError) as err:
        dc.parse_complex(data)
    assert str(err.value) == "cell %r: %s" % (cid, _residues_refused((0, 0, 5)))
