import copy
import hashlib
import itertools
import pickle

import pytest
from hypothesis import given, strategies as hs

from kdc import strata as st
from kdc.linechart import (
    Classification,
    LineChart,
    classify,
    parse_chart,
    valid_neutral_levels,
    validate,
)


def mk(n, N, b, xs, taus=None):
    taus = taus if taus is not None else [0] * len(xs)
    return st.Stratum(n, N, b, list(zip(taus, xs)))


# n=3, N=1 named cells used throughout
A011 = mk(3, 1, 0, (0, 1, 1))
A000 = mk(3, 1, 0, (0, 0, 0))
B01m1 = mk(3, 1, 1, (0, 1, -1))
B111 = mk(3, 1, 1, (1, 1, 1))
B112 = mk(3, 1, 1, (1, 1, 2))
C122 = mk(3, 1, 2, (1, 2, 2))
C123 = mk(3, 1, 2, (1, 2, 3))
D123 = mk(3, 1, 3, (1, 2, 3))
D12m3 = mk(3, 1, 3, (1, 2, -3))

POOL_32 = sorted(st.iter_strata(3, 2), key=st.canonical_key)
POOL_41 = sorted(st.iter_strata(4, 1), key=st.canonical_key)


# ---------------------------------------------------------------------------
# canonical labels


def test_top_level_flip():
    s = st.parse_stratum("X{n=3;N=2;b=1;[(0,+1),(1,+1),(0,-2)]}")
    assert st.format_stratum(s) == "X{n=3;N=2;b=1;[(0,+1),(1,+1),(1,+2)]}"


def test_flip_identifies_mirror_edges():
    assert mk(3, 1, 2, (1, 2, -3)) == C123
    assert mk(3, 1, 1, (1, 1, -2)) == B112
    assert mk(3, 1, 0, (0, 1, -1)) == A011


def test_point_sort_order():
    s = mk(3, 2, 1, (-1, 2, 1), taus=(1, 0, 0))
    assert [(p.tau, p.x) for p in s.points] == [(0, 1), (1, -1), (0, 2)]


def test_residues_reduce_mod_N():
    assert mk(3, 2, 1, (1, 1, 2), taus=(5, 1, -2)) == mk(3, 2, 1, (1, 1, 2), taus=(1, 1, 0))


def test_construction_rejects_unstable():
    with pytest.raises(ValueError, match="unstable"):
        mk(3, 1, 2, (2, 2, 2))


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        mk(3, 1, 4, (1, 2, 3))
    with pytest.raises(ValueError):
        mk(3, 1, 0, (0, 0))
    with pytest.raises(ValueError):
        mk(3, 1, 0, (0, 0, 2))
    with pytest.raises(ValueError):
        mk(3, 0, 0, (0, 0, 0))


def test_parse_format_round_trip():
    for s in POOL_32[:50]:
        assert st.parse_stratum(st.format_stratum(s)) == s
    with pytest.raises(ValueError):
        st.parse_stratum("X{n=3;N=1;b=0;[junk]}")


# ---------------------------------------------------------------------------
# charts of strata


def test_chart_of_top_strata():
    assert st.chart_of(D123) == parse_chart("LC{n=3;(0,0)(1,1)(2,2)(3,3)}")
    assert st.chart_of(D12m3) == parse_chart("LC{n=3;(0,0)(1,-1)(2,0)(3,1)}")


def test_chart_of_shallower_strata():
    assert st.chart_of(C122) == parse_chart("LC{n=3;(0,0)(2,2)(3,3)}")
    assert st.chart_of(B01m1) == parse_chart("LC{n=3;(0,0)(2,0)}")
    assert st.chart_of(A011) == parse_chart("LC{n=3;(2,2)}")
    assert st.chart_of(A000) == parse_chart("LC{n=3;(0,0)}")


def test_stratum_from_chart_flat():
    s = st.stratum_from_chart(st.chart_of(D12m3), (0, 1, 1), N=2)
    assert s.b == 3
    assert st.chart_of(s) == st.chart_of(D12m3)
    assert s.tau_sum == 0


def test_stratum_from_chart_mapping():
    chart = parse_chart("LC{n=3;(0,0)(2,0)}")
    s = st.stratum_from_chart(chart, {(1, 1): (0,), (1, -1): (1,), (0, 0): (1,)}, N=2)
    assert [(p.tau, p.x) for p in s.points] == [(1, 0), (0, 1), (1, -1)]
    with pytest.raises(ValueError, match="needs 1 residues"):
        st.stratum_from_chart(chart, {(1, 1): (0, 0), (1, -1): (1,), (0, 0): (1,)}, N=2)
    with pytest.raises(ValueError, match="absent"):
        st.stratum_from_chart(chart, {(1, 1): (0,), (1, -1): (1,), (0, 0): (1,), (2, 1): (0,)}, N=2)


def test_stratum_from_chart_inverts_chart_of():
    for s in POOL_32:
        taus = {}
        for p in s.points:
            sign = 0 if p.x == 0 else (1 if p.x > 0 else -1)
            taus.setdefault((abs(p.x), sign), []).append(p.tau)
        again = st.stratum_from_chart(st.chart_of(s), taus, N=s.N)
        assert again == s


# ---------------------------------------------------------------------------
# admissibility


def test_valid_levels_n1():
    assert st.valid_levels(D123) == (1,)
    assert st.valid_levels(D12m3) == (0,)
    assert st.valid_levels(C122) == (1,)
    assert st.valid_levels(B01m1) == (0,)
    assert st.valid_levels(mk(3, 1, 1, (1, 2, 2))) == ()


def test_valid_levels_filter_residues():
    # chart level k=1 needs tau_sum == -1 (mod 2)
    assert st.valid_levels(mk(3, 2, 3, (1, 2, 3), taus=(0, 0, 1))) == (1,)
    assert st.valid_levels(mk(3, 2, 3, (1, 2, 3), taus=(0, 0, 0))) == ()
    assert not st.is_admissible(mk(3, 2, 3, (1, 2, 3), taus=(0, 1, 1)))


def test_tau_admissible_rejects_foreign_k():
    assert st.tau_admissible(D123, 1)
    with pytest.raises(ValueError):
        st.tau_admissible(D123, 0)


def test_classification_of_strata():
    assert st.classify_stratum(D123) is Classification.WIDE
    assert st.classify_stratum(B01m1) is Classification.NARROW
    assert st.classify_stratum(A000) is Classification.NARROW
    with pytest.raises(ValueError):
        st.classify_stratum(mk(3, 1, 1, (1, 2, 2)))


# ---------------------------------------------------------------------------
# dimensions


def test_dimension_table_delta2():
    assert st.dimension(D123) == 5
    assert st.quotient_dimension(D123) == 2
    assert st.cell_dimension(D123) == 2
    assert st.quotient_dimension(A000) == 4
    assert st.cell_dimension(A000) == 0
    assert st.cell_dimension(C123) == 1
    assert st.cell_dimension(B112) == 0


def test_dimension_table_delta1():
    assert st.quotient_dimension(B01m1, delta=1) == 1
    assert st.dimension(D123, delta=1) == 3
    with pytest.raises(ValueError):
        st.dimension(D123, delta=3)


def test_cell_dimension_ignores_delta():
    # wide cells lose 2, narrow cells lose 1, from the vertex count b+1
    for s in POOL_32:
        if not st.is_admissible(s):
            continue
        v = s.b + 1
        wide = st.classify_stratum(s) is Classification.WIDE
        assert st.cell_dimension(s) == (v - 2 if wide else v - 1)


# ---------------------------------------------------------------------------
# smoothing


def test_smoothing_ladder():
    want = [(0, 1, 2), (1, 1, 2), (1, 2, 2), (1, 2, 3)]
    for j, xs in enumerate(want, start=1):
        out = st.smooth(D123, j)
        assert out == mk(3, 1, 2, xs)


def test_kummer_smoothing_can_vanish():
    assert st.smooth(D123, 1, mode="kummer") is None
    assert st.smooth(D123, 2, mode="kummer") == mk(3, 1, 2, (1, 1, 2))
    assert st.smooth(D123, 4, mode="kummer") == C123


def test_smoothing_guards():
    with pytest.raises(ValueError):
        st.smooth(A011, 1)
    with pytest.raises(ValueError):
        st.smooth(D123, 5)
    with pytest.raises(ValueError):
        st.smooth(D123, 0)
    with pytest.raises(ValueError):
        st.smooth(D123, 1, mode="flop")


# ---------------------------------------------------------------------------
# faces and specializations


def test_faces_of_an_edge():
    assert set(st.faces(C122)) == {A011, B111}
    assert set(st.faces(C123)) == {A011, B112}


def test_face_items_carry_levels():
    items = st.face_items(D123, 1)
    assert all(fk in st.valid_levels(f) for f, fk in items)
    assert (A011, 1) in items
    with pytest.raises(ValueError):
        st.face_items(D123, 0)


def test_faces_drop_dimension():
    for s in POOL_32:
        if not st.is_admissible(s):
            continue
        for f in st.faces(s):
            assert st.cell_dimension(f) < st.cell_dimension(s)
            assert f.n == s.n and f.b < s.b


def test_specializations_of_a_vertex():
    got = set(st.specializations(A011))
    assert got == {
        B01m1,
        mk(3, 1, 2, (-1, -2, -2)),
        mk(3, 1, 2, (-1, -2, 3)),
        C122,
        C123,
    }


def test_specializations_are_covers():
    for s in (A011, B112, B01m1):
        for t in st.specializations(s):
            assert st.cell_dimension(t) == st.cell_dimension(s) + 1
            assert s in st.faces(t)


def test_specializations_need_admissible():
    with pytest.raises(ValueError):
        st.specializations(mk(3, 1, 1, (1, 2, 2)))


# ---------------------------------------------------------------------------
# occupancy and the weight obstruction


def test_expansion_tuple_validation():
    r = st.ExpansionTuple((3, 1, 1))
    assert r.rsum == 5 and len(r) == 3 and r[0] == 3 and tuple(r) == (3, 1, 1)
    with pytest.raises(ValueError):
        st.ExpansionTuple(())
    with pytest.raises(ValueError):
        st.ExpansionTuple((1, 0))


def test_occupancy_vector_validation():
    m = st.OccupancyVector(2, 1, (1, 1, 1, 0, 0, 0))
    assert m.total == 3 and len(m) == 6 and m[2] == 1
    with pytest.raises(ValueError):
        st.OccupancyVector(2, 1, (1, -1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        st.OccupancyVector(2, 1, (1, 1, 1, 0))
    with pytest.raises(ValueError):
        st.OccupancyVector(2, 0, (1, 1))


def test_m_vector_small():
    s = mk(2, 1, 0, (1, 1))
    assert st.m_vector(s, (1,)).counts == (0, 2)
    assert st.occupancy(s) == st.m_vector(s, (1,))
    with pytest.raises(ValueError):
        st.m_vector(s, (1, 1))


def test_m_vector_respects_signs_and_residues():
    s = mk(2, 2, 1, (1, -2), taus=(0, 1))
    m = st.m_vector(s, (2, 1))
    # size 2*N*rsum = 12; +1 at tau=0 sits at 2, -2 at tau=1 sits at 6-3=3
    assert m.counts == (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_obstructed_occupancy():
    m = st.OccupancyVector(2, 1, (1, 1, 1, 0, 0, 0))
    assert not st.r_exists(m)
    assert st.find_admissible_r(m) is None
    assert st.find_admissible_r(m, bound=12) is None


def test_unobstructed_occupancy():
    m = st.OccupancyVector(2, 1, (0, 2, 1, 0, 0, 0))
    assert st.r_exists(m)
    r = st.find_admissible_r(m, bound=6)
    assert r == st.ExpansionTuple((3, 1, 1))
    combined = st.W_plus(m, r) + st.W_minus(m, r)
    assert combined == 10
    assert combined % (2 * m.N * r.rsum) == 0


def test_constructive_witness_is_verified():
    m = st.OccupancyVector(2, 1, (0, 2, 1, 0, 0, 0))
    r = st.find_admissible_r(m)
    assert r is not None
    assert (st.W_plus(m, r) + st.W_minus(m, r)) % (2 * m.N * r.rsum) == 0


def test_bare_counts_need_shape():
    with pytest.raises(ValueError):
        st.r_exists((1, 1, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        st.r_exists((1, 1, 1, 0), N=1, b=2)


def _first_cancelling_tuple(m, N, b, limit):
    """Brute force: a tuple of the smallest total <= limit whose weight cancels."""
    for rsum in range(b + 1, limit + 1):
        for cuts in itertools.combinations(range(1, rsum), b):
            r = tuple(x - y for x, y in zip(cuts + (rsum,), (0,) + cuts))
            if (st.W_plus(m, r, N, b) + st.W_minus(m, r, N, b)) % (2 * N * rsum) == 0:
                return r
    return None


def test_weight_coefficients_reproduce_the_weights():
    for n in range(1, 5):
        for N in range(1, 4):
            for s in st.iter_strata(n, N):
                occ = st.occupancy(s)
                s2, coeff = st._scan_coefficients(occ.counts, N, s.b)
                for r in (range(1, s.b + 2), [(3 * i) % 4 + 1 for i in range(s.b + 1)]):
                    r = tuple(r)
                    weight = st.W_plus(occ, r) + st.W_minus(occ, r)
                    assert s2 * sum(r) + sum(c * v for c, v in zip(coeff, r)) == weight


def test_bounded_scan_finds_a_smallest_total():
    occupancies = [st.occupancy(s) for n in range(1, 4) for N in (1, 2) for s in st.iter_strata(n, N)]
    occupancies.append(st.OccupancyVector(2, 1, (0, 2, 1, 0, 0, 0)))
    for occ in occupancies:
        found = st.find_admissible_r(occ, bound=12)
        assert (found is not None) == st.r_exists(occ)
        brute = _first_cancelling_tuple(occ.counts, occ.N, occ.b, 12)
        assert (brute is None) == (found is None)
        if found is not None:
            assert len(found) == occ.b + 1
            assert found.rsum == sum(brute)
            assert (st.W_plus(occ, found) + st.W_minus(occ, found)) % (2 * occ.N * found.rsum) == 0


@given(hs.sampled_from(POOL_32))
def test_weight_oracle_matches_admissibility(s):
    assert st.r_exists(st.occupancy(s)) == st.is_admissible(s)


@given(hs.sampled_from(POOL_41))
def test_witnesses_exist_exactly_for_admissible(s):
    r = st.find_admissible_r(st.occupancy(s))
    assert (r is not None) == st.is_admissible(s)
    if r is not None:
        occ = st.occupancy(s)
        assert (st.W_plus(occ, r) + st.W_minus(occ, r)) % (2 * s.N * r.rsum) == 0


# ---------------------------------------------------------------------------
# enumeration


def test_enumeration_counts():
    sizes = {
        (2, 1): {1: 1, 0: 2},
        (2, 2): {1: 2, 0: 3},
        (3, 1): {2: 4, 1: 9, 0: 6},
        (3, 2): {2: 16, 1: 30, 0: 15},
    }
    for (n, N), want in sizes.items():
        groups = st.enumerate_admissible(n, N)
        assert {d: len(v) for d, v in groups.items()} == want


def test_enumeration_is_canonical_and_sorted():
    groups = st.enumerate_admissible(3, 2)
    flat = [s for seq in groups.values() for s in seq]
    assert len(set(flat)) == len(flat)
    assert list(groups) == sorted(groups, reverse=True)
    for seq in groups.values():
        assert list(seq) == sorted(seq, key=st.canonical_key)


def test_iter_strata_filters():
    dim0 = set(st.iter_strata(3, 1, b=0))
    assert dim0 == {A000, A011, mk(3, 1, 0, (0, 0, 1)), mk(3, 1, 0, (1, 1, 1))}
    adm = set(st.iter_strata(3, 1, admissible_only=True))
    assert all(st.is_admissible(s) for s in adm)
    assert len(adm) == 19
    with pytest.raises(ValueError):
        list(st.iter_strata(0, 1))


def test_enumerate_admissible_guards():
    with pytest.raises(ValueError):
        st.enumerate_admissible(1, 1)
    with pytest.raises(ValueError):
        st.enumerate_admissible(3, 0)


# ---------------------------------------------------------------------------
# trusted construction and cached chart facts


@pytest.fixture(scope="module")
def engine_strata():
    """Every stratum of iter_strata(n, N) for n <= 4, N <= 3, and all their faces."""
    out = []
    for n in range(1, 5):
        for N in range(1, 4):
            for s in st.iter_strata(n, N):
                out.append(s)
                out.extend(f for f, _ in st.face_items(s))
    return out


def test_trusted_construction_matches_validated(engine_strata):
    for s in engine_strata:
        again = st.Stratum(s.n, s.N, s.b, [(p.tau, p.x) for p in s.points])
        assert again == s and again.points == s.points


def test_copy_and_pickle_round_trip():
    s = next(st.iter_strata(3, 2, b=3, admissible_only=True))
    st.valid_levels(s)
    for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert t == s and t.points == s.points
        assert st.valid_levels(t) == st.valid_levels(s)


def test_cached_chart_facts_match_recomputation(engine_strata):
    for s in dict.fromkeys(engine_strata):
        verts = []
        for level in range(s.b + 1, 0, -1):
            tail = [p.x for p in s.points if abs(p.x) >= level]
            verts.append((len(tail), sum(1 if x > 0 else -1 for x in tail)))
        chart = LineChart(s.n, verts)
        assert validate(chart).ok
        levels = tuple(sorted(
            k for k in valid_neutral_levels(chart)
            if (sum(p.tau for p in s.points) + k) % s.N == 0
        ))
        fresh = st.Stratum(s.n, s.N, s.b, s.points)
        for t in (s, fresh):
            assert st.chart_of(t) == chart
            assert st.valid_levels(t) == levels
            if levels:
                wide = classify(chart, levels[0]) is Classification.WIDE
                assert st.cell_dimension(t) == (s.b - 1 if wide else s.b)
            else:
                with pytest.raises(ValueError):
                    st.cell_dimension(t)


def test_codim_one_face_items_filter_all_faces(engine_strata):
    for s in dict.fromkeys(engine_strata):
        for k in st.valid_levels(s):
            want = {
                (f, fk) for f, fk in st.face_items(s, k)
                if st.cell_dimension(f) == st.cell_dimension(s) - 1
            }
            assert st.face_items(s, k, codim=1) == want


def test_iter_strata_yield_order():
    assert [st.format_stratum(s) for s in st.iter_strata(2, 1)] == [
        "X{n=2;N=1;b=0;[(0,0),(0,0)]}",
        "X{n=2;N=1;b=0;[(0,0),(0,+1)]}",
        "X{n=2;N=1;b=0;[(0,+1),(0,+1)]}",
        "X{n=2;N=1;b=1;[(0,0),(0,-1)]}",
        "X{n=2;N=1;b=1;[(0,0),(0,+1)]}",
        "X{n=2;N=1;b=1;[(0,-1),(0,-1)]}",
        "X{n=2;N=1;b=1;[(0,+1),(0,-1)]}",
        "X{n=2;N=1;b=1;[(0,+1),(0,+1)]}",
        "X{n=2;N=1;b=1;[(0,-1),(0,+2)]}",
        "X{n=2;N=1;b=1;[(0,+1),(0,+2)]}",
        "X{n=2;N=1;b=2;[(0,-1),(0,-2)]}",
        "X{n=2;N=1;b=2;[(0,+1),(0,-2)]}",
        "X{n=2;N=1;b=2;[(0,-1),(0,+2)]}",
        "X{n=2;N=1;b=2;[(0,+1),(0,+2)]}",
    ]
    # (count, sha256 of the newline-joined literals in yield order), recorded
    # when iter_strata built every stratum through the validating constructor
    recorded = {
        (3, 2, False): (328, "c93c06ec853d38a9346e1af620208cde26564540aa0103b31db1f13294edfc3a"),
        (3, 2, True): (61, "85e19183d7e2b694c9485ff3c0043d8160e803d77db9960e5df251a105748477"),
        (4, 2, False): (2062, "c07e4de4c4de8a933473780bc4dff40aae04b9c02e4506aca644a49133bd1f10"),
        (4, 2, True): (419, "82c78ee900362c39e0bf6f1a10ff59ca972715e2e7f03564f26c7110b8faa077"),
    }
    for (n, N, adm), (count, digest) in recorded.items():
        literals = [st.format_stratum(s) for s in st.iter_strata(n, N, admissible_only=adm)]
        assert len(literals) == count
        assert hashlib.sha256("\n".join(literals).encode()).hexdigest() == digest
