import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from kdc import dualcomplex as dc
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


@pytest.mark.parametrize("rung", ["build.3_2", "build.3_16", "build.4_4"])
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


# ---------------------------------------------------------------------------
# local face lattices


def test_triangle_cell_of_diagonal_top():
    local = dc.delta_K(D123)
    assert local.f_vector() == (3, 3, 1)
    assert {xs_of(c) for c in local.cells_of_dim(0)} == {(0, 1, 1), (1, 1, 1), (1, 1, 2)}
    assert {xs_of(c) for c in local.cells_of_dim(1)} == {(1, 1, 2), (1, 2, 2), (1, 2, 3)}
    assert local.top.stratum == D123


def test_triangle_cell_of_mirror_top():
    local = dc.delta_K(D12m3)
    assert local.f_vector() == (3, 3, 1)
    assert {xs_of(c) for c in local.cells_of_dim(0)} == {(0, 0, 0), (0, 1, 1), (1, 1, 2)}
    assert {xs_of(c) for c in local.cells_of_dim(1)} == {(-1, 0, 1), (-2, 1, 1), (1, 2, 3)}


def test_mirror_triangles_share_three_cells():
    plus = {c.id for c in dc.delta_K(D123).cells.values()}
    minus = {c.id for c in dc.delta_K(D12m3).cells.values()}
    shared = plus & minus
    assert shared == {
        st.format_stratum(mk(3, 1, 0, (0, 1, 1))),
        st.format_stratum(mk(3, 1, 1, (1, 1, 2))),
        st.format_stratum(mk(3, 1, 2, (1, 2, 3))),
    }


def test_pyramid_cell():
    local = dc.delta_K(E1234)
    assert local.f_vector() == (5, 8, 5, 1)
    assert {xs_of(c) for c in local.cells_of_dim(0)} == {
        (0, 0, 1, 1),
        (1, 1, 1, 1),
        (1, 1, 1, 2),
        (0, 1, 1, 2),
        (0, 1, 1, 1),
    }
    assert {xs_of(c) for c in local.cells_of_dim(1)} == {
        (1, 1, 2, 2),
        (1, 2, 2, 2),
        (0, 1, 1, 2),
        (0, 1, 2, 3),
        (0, 1, 2, 2),
        (1, 1, 1, 2),
        (1, 1, 2, 3),
        (1, 2, 2, 3),
    }
    assert {xs_of(c) for c in local.cells_of_dim(2)} == {
        (1, 2, 2, 3),
        (1, 1, 2, 3),
        (1, 2, 3, 4),
        (0, 1, 2, 3),
        (1, 2, 3, 3),
    }


def test_local_lattice_is_a_slice():
    for top in (D123, D12m3, E1234):
        local = dc.delta_K(top)
        on, above, below = local.top.lattice_shape
        assert pt.iso(local.poset, pt.slice_lattice(above, below, on))


def test_local_cells_agree_with_global_complex():
    cx = dc.build(3, 1)
    for top in (D123, D12m3):
        local = dc.delta_K(top)
        for support, cell in local.cells.items():
            peer = cx.by_id[cell.id]
            assert peer.lattice_shape == cell.lattice_shape
            assert peer.dim == local.poset.dim_of(support)
            assert peer.k == cell.k


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
        assert dc.delta_K(ambiguous, k=k).top.k == k
    with pytest.raises(ValueError):
        dc.delta_K(ambiguous, k=3)


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


def test_verify_disk_needs_n3():
    with pytest.raises(ValueError):
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


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    for n, N in ((2, 3), (3, 1), (3, 2)):
        cx = dc.build(n, N)
        again = dc.parse_complex(dc.export(cx, "json"))
        assert again == cx


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


def test_layout_exports_are_deterministic():
    cx = dc.build(3, 2)
    assert dc.export(cx, "off", layout_seed=1) == dc.export(cx, "off", layout_seed=1)
    assert dc.export(cx, "off", layout_seed=1) != dc.export(cx, "off", layout_seed=2)


def test_geometry_needs_a_disk():
    with pytest.raises(ValueError):
        dc.export(dc.build(2, 2), "off")
    with pytest.raises(ValueError):
        dc.export(dc.build(4, 1), "tikz")
    with pytest.raises(ValueError):
        dc.export(dc.build(3, 1), "svg")


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


def test_parse_requires_level_when_ambiguous():
    data = json.loads(dc.export(dc.build(5, 1), "json"))
    entry = next(c for c in data["cells"] if "@k=" in c["id"])
    entry["id"] = entry["id"].split("@")[0]
    with pytest.raises(ValueError, match="neutral level"):
        dc.parse_complex(data)
