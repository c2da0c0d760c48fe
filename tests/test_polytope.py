import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as hs

from kdc import dualcomplex as dc
from kdc import polytope as pt
from kdc import strata as st


SQUARE = pt.product(pt.simplex(1), pt.simplex(1))


def test_simplex_f_vectors():
    assert pt.simplex(0).f_vector() == (1,)
    assert pt.simplex(2).f_vector() == (3, 3, 1)
    assert pt.simplex(3).f_vector() == (4, 6, 4, 1)
    with pytest.raises(ValueError):
        pt.simplex(-1)


def test_empty_lattice():
    assert len(pt.EMPTY) == 0
    assert pt.EMPTY.f_vector() == ()
    assert pt.EMPTY.is_graded()


def test_explicit_empty_face_rejected():
    with pytest.raises(ValueError):
        pt.FacePoset({frozenset(): -1})


def test_product_square():
    assert SQUARE.f_vector() == (4, 4, 1)
    assert _euler_sum(SQUARE) == 1
    assert SQUARE.has_unique_max()


def test_product_needs_unique_max():
    two_points = pt.FacePoset({frozenset({1}): 0, frozenset({2}): 0})
    with pytest.raises(ValueError):
        pt.product(two_points, pt.simplex(0))


def test_cone_counts():
    assert pt.cone(SQUARE).f_vector() == (5, 8, 5, 1)
    assert pt.cone(pt.simplex(1)).f_vector() == (3, 3, 1)
    assert pt.cone(pt.EMPTY, times=0) is not None
    with pytest.raises(ValueError):
        pt.cone(pt.EMPTY, times=-1)


def test_cone_of_empty_is_simplex():
    for m in range(1, 5):
        assert pt.iso(pt.cone(pt.EMPTY, times=m), pt.simplex(m - 1))


def test_iterated_cone_uses_fresh_apexes():
    once = pt.cone(pt.simplex(0))
    twice = pt.cone(once)
    assert twice.f_vector() == (3, 3, 1)
    assert pt.iso(twice, pt.cone(pt.simplex(0), times=2))


def test_faces_keep_their_order_and_cones_a_fresh_apex():
    dims = {frozenset({"b", ("apex", 0)}): 1, frozenset({("apex", 0)}): 0, frozenset({"b"}): 0}
    assert pt.FacePoset(dims).faces == tuple(dims)
    assert pt.cone(pt.FacePoset(dims)).f_vector() == (3, 3, 1)


def test_slice_small_cases():
    assert pt.slice_lattice(1, 1, 0).f_vector() == (1,)
    assert pt.slice_lattice(1, 1, 1).f_vector() == (2, 1)
    assert pt.slice_lattice(2, 2, 1).f_vector() == (5, 8, 5, 1)


def test_slice_validation():
    with pytest.raises(ValueError):
        pt.slice_lattice(0, 1, 2)
    with pytest.raises(ValueError):
        pt.slice_lattice(1, 0, 0)
    with pytest.raises(ValueError):
        pt.slice_lattice(1, 1, -1)


def test_graded():
    assert pt.simplex(3).is_graded()
    assert pt.slice_lattice(3, 2, 1).is_graded()
    gap = pt.FacePoset({frozenset({1}): 0, frozenset({1, 2}): 2})
    assert not gap.is_graded()


def test_covers_are_dimension_steps():
    for low, high in pt.slice_lattice(2, 1, 1).covers():
        assert low < high


def reference_covers(p):
    """Reference: covers by a direct double loop over the faces."""
    return tuple(
        (f, g) for f in p.faces for g in p.faces if p.dim_of(g) == p.dim_of(f) + 1 and f < g
    )


def reference_is_graded(p):
    """Reference: the grading check with its own scans per face."""
    dims = {f: p.dim_of(f) for f in p.faces}
    if not dims:
        return True
    top, lo = max(dims.values()), min(dims.values())
    for f, d in dims.items():
        if any(f < g and d >= e for g, e in dims.items()):
            return False
        if d > lo and not any(g < f for g, e in dims.items() if e == d - 1):
            return False
        if d < top and not any(f < g for g, e in dims.items() if e == d + 1):
            return False
    return True


@given(hs.dictionaries(hs.frozensets(hs.integers(0, 3), min_size=1), hs.integers(0, 4)))
@example({frozenset({1}): 0, frozenset({1, 2}): 1, frozenset({3}): 1})  # no lower cover
@example({frozenset({1}): 0, frozenset({1, 2}): 1, frozenset({3}): 0})  # no upper cover
@example({frozenset({1}): 1, frozenset({1, 2}): 1})  # inclusion keeps the dimension
def test_scan_matches_reference_covers_and_grading(dims):
    p = pt.FacePoset(dims)
    assert p.covers() == reference_covers(p)
    assert p.is_graded() == reference_is_graded(p)


def test_iso_positive_across_labels():
    hand = pt.FacePoset(
        {
            frozenset({1}): 0,
            frozenset({2}): 0,
            frozenset({3}): 0,
            frozenset({1, 2}): 1,
            frozenset({1, 3}): 1,
            frozenset({2, 3}): 1,
            frozenset({1, 2, 3}): 2,
        }
    )
    assert pt.iso(hand, pt.simplex(2))


def test_iso_negative():
    assert not pt.iso(pt.simplex(2), SQUARE)
    assert not pt.iso(pt.cone(SQUARE), pt.simplex(3))
    assert not pt.iso(pt.simplex(2), pt.simplex(3))


def test_iso_of_a_large_simplex():
    # 1,023 faces, more than the default recursion limit
    assert pt.iso(pt.slice_lattice(1, 1, 9), pt.simplex(9))


def test_iso_of_swapped_factors():
    # the slice lists the 2-simplex factor first, the model the 3-simplex
    assert pt.iso(pt.slice_lattice(3, 4, 0), pt.cone(pt.product(pt.simplex(3), pt.simplex(2)), 0))


def brute_force_iso(p, q):
    """Reference: try every dimension-keeping bijection of the faces on the covers."""
    if p.f_vector() != q.f_vector():
        return False
    covers_p, covers_q = set(reference_covers(p)), set(reference_covers(q))
    dims = range(len(p.f_vector()))
    faces_p = [f for d in dims for f in p.faces if p.dim_of(f) == d]
    for parts in itertools.product(*(itertools.permutations([g for g in q.faces if q.dim_of(g) == d])
                                     for d in dims)):
        phi = dict(zip(faces_p, (g for part in parts for g in part)))
        if {(phi[f], phi[g]) for f, g in covers_p} == covers_q:
            return True
    return False


def _closure(tops):
    """The simplicial complex of the faces tops, each face's dimension its size less one."""
    return pt.FacePoset({frozenset(sub): size - 1 for top in tops for size in range(1, len(top) + 1)
                         for sub in itertools.combinations(sorted(top), size)})


# graded posets of at most 7 faces: pure simplicial complexes, and any graded family
GRADED = hs.one_of(
    hs.lists(hs.frozensets(hs.integers(0, 4), min_size=1, max_size=3), min_size=1, max_size=4)
    .map(_closure),
    hs.dictionaries(hs.frozensets(hs.integers(0, 4), min_size=1), hs.integers(0, 2), max_size=7)
    .map(pt.FacePoset),
).filter(lambda p: len(p) <= 7 and p.is_graded())


@hs.composite
def graded_pairs(draw):
    """Two graded posets: any two, a relabelled copy, or two graphs with as many edges."""
    kind = draw(hs.sampled_from(["any", "copy", "graphs"]))
    if kind == "graphs":
        pairs = list(itertools.combinations(range(draw(hs.integers(2, 4))), 2))
        count = draw(hs.integers(1, min(3, len(pairs))))
        return tuple(_closure(draw(hs.lists(hs.sampled_from(pairs), min_size=count, max_size=count,
                                            unique=True))) for _ in range(2))
    p = draw(GRADED)
    if kind == "any":
        return p, draw(GRADED)
    relabel = draw(hs.permutations(range(5)))
    return p, pt.FacePoset({frozenset(relabel[x] for x in f): p.dim_of(f) for f in p.faces})


PATH = {frozenset({i}): 0 for i in range(4)} | {frozenset({i, i + 1}): 1 for i in range(3)}
STAR = {frozenset({i}): 0 for i in range(4)} | {frozenset({0, i}): 1 for i in range(1, 4)}


@given(graded_pairs())
@example((pt.FacePoset(PATH), pt.FacePoset(STAR)))  # one f-vector, not isomorphic
def test_iso_matches_brute_force(pair):
    assert pt.iso(*pair) == brute_force_iso(*pair)


def pairwise_scan(p):
    """Reference: (up, down, monotone) by an F^2 loop over pairs f < g."""
    up = {f: [] for f in p.faces}
    down = {f: [] for f in p.faces}
    monotone = True
    for f in p.faces:
        for g in p.faces:
            if f < g:
                if p.dim_of(g) <= p.dim_of(f):
                    monotone = False
                elif p.dim_of(g) == p.dim_of(f) + 1:
                    up[f].append(g)
                    down[g].append(f)
    return up, down, monotone


def _verify_suite_posets():
    """The c07 slice/cone pairs and the delta_K posets of c08 and c10."""
    for total in range(2, 9):
        for n_plus in range(1, total):
            for n_minus in range(1, total - n_plus + 1):
                n_zero = total - n_plus - n_minus
                yield pt.slice_lattice(n_plus, n_minus, n_zero)
                yield pt.cone(pt.product(pt.simplex(n_plus - 1), pt.simplex(n_minus - 1)), n_zero)
    for n, xs in ((4, (1, 2, 3, 4)), (3, (1, 2, 3)), (3, (1, 2, -3))):
        s = st.Stratum(n, 1, n, [(0, x) for x in xs])
        yield _closed_cell(s, *st.valid_levels(s))
    for N in (1, 2):
        for s in st.iter_strata(4, N, b=4, admissible_only=True):
            for k in st.valid_levels(s):
                yield _closed_cell(s, k)


def _closed_cell(s, k):
    """The face poset whose covers delta_K(s, k) reads: the face masks of s's chart at k,
    each as the set of its chart-vertex indices."""
    verts = st.chart_of(s).vertices
    return pt._labelled(range(len(verts)), st._face_masks(verts, k))


def test_bitset_scan_matches_the_pairwise_scan():
    # a non-monotone poset: {1} < {1, 2} at equal dimension, with a cover {1} < {1, 3}
    hand = pt.FacePoset({frozenset({1}): 1, frozenset({1, 2}): 1, frozenset({1, 3}): 2,
                         frozenset({3}): 0, frozenset({1, 2, 3}): 3})
    posets = [hand, *_verify_suite_posets()]
    assert len(posets) == 1 + 168 + 3 + sum(
        len(st.valid_levels(s)) for N in (1, 2) for s in st.iter_strata(4, N, b=4, admissible_only=True))
    for p in posets:
        up, down, monotone = pairwise_scan(p)
        at = {f: i for i, f in enumerate(p.faces)}  # the reference over face positions
        graph = ([p.dim_of(f) for f in p.faces], [[at[g] for g in up[f]] for f in p.faces],
                 [[at[g] for g in down[f]] for f in p.faces])
        assert p._scan == (graph, monotone)
        assert p.is_graded() == reference_is_graded(p)
    at = hand.faces.index
    assert not hand._scan[1] and hand._scan[0][1][at(frozenset({1}))] == [at(frozenset({1, 3}))]


def test_iso_needs_graded():
    gap = pt.FacePoset({frozenset({1}): 0, frozenset({1, 2}): 2})
    with pytest.raises(ValueError, match=r"p is not, f-vector \(1, 0, 1\)"):
        pt.iso(gap, gap)
    loose = pt.FacePoset({frozenset({1}): 0, frozenset({2}): 0, frozenset({3}): 1})
    with pytest.raises(ValueError, match=r"q is not, f-vector \(2, 1\)"):
        pt.iso(pt.simplex(1), loose)


@given(
    hs.integers(min_value=1, max_value=3),
    hs.integers(min_value=1, max_value=3),
    hs.integers(min_value=0, max_value=2),
)
def test_slice_matches_cone_of_product(n_plus, n_minus, n_zero):
    got = pt.slice_lattice(n_plus, n_minus, n_zero)
    want = pt.cone(pt.product(pt.simplex(n_plus - 1), pt.simplex(n_minus - 1)), times=n_zero)
    assert got.f_vector()[0] == n_zero + n_plus * n_minus
    assert pt.iso(got, want)


def _euler_sum(p):
    return sum((-1) ** d * f for d, f in enumerate(p.f_vector()))


def test_euler_sum_is_one():
    for p in (pt.simplex(4), SQUARE, pt.cone(SQUARE), pt.slice_lattice(3, 2, 2)):
        assert _euler_sum(p) == 1


def _filtered_slice(n_plus, n_minus, n_zero):
    """Reference: every label combination, kept by the signs it holds."""
    labels = ([("+", i) for i in range(n_plus)] + [("-", i) for i in range(n_minus)]
              + [("0", i) for i in range(n_zero)])
    dims = {}
    for size in range(1, len(labels) + 1):
        for sub in itertools.combinations(labels, size):
            signs = {lab[0] for lab in sub}
            if "+" in signs and "-" in signs:
                dims[frozenset(sub)] = size - 2
            elif signs == {"0"}:
                dims[frozenset(sub)] = size - 1
    return dims


def test_slice_lattice_equals_the_combination_filter():
    triples = [(n_plus, n_minus, total - n_plus - n_minus) for total in range(2, 9)
               for n_plus in range(1, total) for n_minus in range(1, total - n_plus + 1)]
    assert len(triples) == 84  # the c07 pairs
    for triple in triples:
        got = pt.slice_lattice(*triple)
        assert {f: got.dim_of(f) for f in got.faces} == _filtered_slice(*triple)


def test_slice_faces_put_the_whole_last():
    # a cell at its neutral level: both open sides, or every vertex on the line
    for plus, minus, zero in ((0b1, 0b110, 0), (0b1001, 0b10, 0b100), (0, 0, 0b111)):
        faces = pt._slice_faces(plus, minus, zero)
        assert faces == sorted(faces, key=lambda face: (face[1], face[0]))
        assert faces[-1][0] == plus | minus | zero
    # one open side empty: only the faces on the line
    assert pt._slice_faces(0b1, 0, 0b110) == [(0b10, 0), (0b100, 0), (0b110, 1)]


def test_polytope_imports_no_kdc_module():
    """The combinatorial layer stays a leaf, so strata can import it without a cycle."""
    tree = ast.parse(Path(pt.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not {name for name in imported
                             if name.startswith(".") or name.split(".")[0] == "kdc"}


def test_dualcomplex_reads_the_cover_graph_not_its_id_views():
    """Inside the package the cover relation is read off _graph; incidence, up, down and
    by_id are id-keyed views for callers outside it, and by_stratum is gone, so no line
    reads them but those of to_json_dict, the JSON reference, and of the incidence
    property itself."""
    views = {"incidence", "up", "down", "by_id", "by_stratum"}
    reads = []
    for path in sorted(Path(dc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name in {"to_json_dict", "incidence"}
                   for node in ast.walk(fn)}
        reads += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in views
                  and id(node) not in allowed]
    assert not reads
