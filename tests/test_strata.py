import copy
import dataclasses
import hashlib
import itertools
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as hs

from kdc import strata as st
from kdc.linechart import (
    Classification,
    LatticeVertex,
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


@hs.composite
def raw_strata(draw):
    """(n, N, b, (tau, x) pairs) of a stable stratum, in any order and before reduction."""
    n, N = draw(hs.integers(1, 4)), draw(hs.integers(1, 4))
    b = draw(hs.integers(0, n))
    levels = list(range(1, b + 1)) + draw(hs.lists(hs.integers(0, b + 1), min_size=n - b,
                                                   max_size=n - b))
    xs = draw(hs.permutations([lv * draw(hs.sampled_from((1, -1))) for lv in levels]))
    taus = draw(hs.lists(hs.integers(-2 * N, 2 * N), min_size=n, max_size=n))
    return n, N, b, list(zip(taus, xs))


@given(raw_strata())
def test_construction_reads_tuples_and_point_labels_alike(raw):
    n, N, b, pairs = raw
    s = st.Stratum(n, N, b, pairs)
    assert st.Stratum(n, N, b, [st.PointLabel(t, x) for t, x in pairs]) == s
    assert st.Stratum(n, N, b, s.points) == s
    assert st.parse_stratum(st.format_stratum(s)) == s


def test_records_are_named_tuples():
    p, v = st.PointLabel(0, 1), LatticeVertex(0, 0)
    assert p == (0, 1) and v == (0, 0) and tuple(p) == (0, 1) and len(v) == 2
    assert (str(p), repr(p)) == ("(0,+1)", "PointLabel(tau=0, x=1)")
    assert (str(v), repr(v)) == ("(0,0)", "LatticeVertex(x=0, y=0)")


def test_parse_format_round_trip():
    for s in POOL_32[:50]:
        assert st.parse_stratum(st.format_stratum(s)) == s
    with pytest.raises(ValueError):
        st.parse_stratum("X{n=3;N=1;b=0;[junk]}")
    with pytest.raises(ValueError, match="not a stratum literal"):  # an Arabic-Indic 3
        st.parse_stratum("X{n=\u0663;N=1;b=0;[(0,0),(0,0),(0,0)]}")


@pytest.mark.parametrize("field, template", [
    ("n", "X{n=%s;N=1;b=0;[(0,0),(0,0),(0,0)]}"), ("N", "X{n=3;N=%s;b=0;[(0,0),(0,0),(0,0)]}"),
    ("b", "X{n=3;N=1;b=%s;[(0,0),(0,0),(0,0)]}"), ("tau", "X{n=3;N=1;b=0;[(0,0),(%s,0),(0,0)]}"),
    ("x", "X{n=3;N=1;b=0;[(0,0),(0,+%s),(0,0)]}"),
])
def test_parse_stratum_names_a_field_past_the_digit_limit(field, template):
    with pytest.raises(ValueError) as err:
        st.parse_stratum(template % ("7" * 5001))
    assert str(err.value) == "stratum literal field %r has more than %d digits" % (
        field, sys.get_int_max_str_digits())


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
    for short_or_long in ((0, 1), (0, 1, 1, 0)):
        with pytest.raises(ValueError, match=r"^need 3 residues, got %d$" % len(short_or_long)):
            st.stratum_from_chart(st.chart_of(D12m3), short_or_long, N=2)


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


def scan_specializations(s, candidates):
    """Reference: scan every admissible stratum for covers of s.

    candidates pairs each admissible stratum at (s.n, s.N) with the set
    of its codim-1 faces.
    """
    want = st.cell_dimension(s) + 1
    out = []
    for t, codim1 in candidates:
        if not s.b < t.b <= s.b + 2:
            continue
        if st.cell_dimension(t) != want:
            continue
        if s in codim1:
            out.append(t)
    return sorted(out, key=st.canonical_key)


@pytest.mark.parametrize("n, N", [(3, 2), (4, 1), (5, 1)])
def test_specializations_match_scan(n, N):
    pool = list(st.iter_strata(n, N, admissible_only=True))
    # from n = 5 on some strata span two cells, one per neutral level
    assert n < 5 or any(len(st.valid_levels(s)) == 2 for s in pool)
    candidates = [(t, {f for f, _ in st.face_items(t)
                       if st.cell_dimension(f) == st.cell_dimension(t) - 1}) for t in pool]
    for s in pool:
        assert st.specializations(s) == scan_specializations(s, candidates)


def test_specializations_of_an_isolated_point():
    points = [s for N in (1, 2, 3) for s in st.iter_strata(1, N, admissible_only=True)]
    assert points
    assert all(st.specializations(s) == [] for s in points)


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
    assert (m.b, m.N, m.counts) == (2, 1, (1, 1, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        st.OccupancyVector(2, 1, (1, -1, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        st.OccupancyVector(2, 1, (1, 1, 1, 0))
    with pytest.raises(ValueError):
        st.OccupancyVector(2, 0, (1, 1))
    # two expansions' worth of blocks is no all-ones vector
    with pytest.raises(ValueError, match=r"got length 12 for 2N\(b\+1\) = 6$"):
        st.OccupancyVector(2, 1, (0,) * 12)


def test_m_vector_small():
    s = mk(2, 1, 0, (1, 1))
    assert st.m_vector(s, (1,)) == (0, 2)
    assert st.occupancy(s) == st.OccupancyVector(0, 1, st.m_vector(s, (1,)))
    with pytest.raises(ValueError):
        st.m_vector(s, (1, 1))


def test_occupancy_is_m_vector_at_all_ones():
    for n in range(1, 5):
        for N in range(1, 4):
            for s in st.iter_strata(n, N):
                got, want = st.occupancy(s), st.m_vector(s, (1,) * (s.b + 1))
                assert (got.counts, got.N, got.b) == (want, N, s.b)
                assert got == st.OccupancyVector(s.b, N, want) and type(got.counts) is tuple


def test_m_vector_respects_signs_and_residues():
    s = mk(2, 2, 1, (1, -2), taus=(0, 1))
    m = st.m_vector(s, (2, 1))
    # size 2*N*rsum = 12; +1 at tau=0 sits at 2, -2 at tau=1 sits at 6-3=3
    assert m == (0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0)


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
    assert r == st.ExpansionTuple((3, 1, 1))  # cross-weighted from the shift (1, -1, -2)
    assert (st.W_plus(m, r) + st.W_minus(m, r)) % (2 * m.N * r.rsum) == 0


def test_bare_counts_need_shape():
    counts = (1, 1, 1, 0, 0, 0)
    for call in (lambda: st.r_exists(counts), lambda: st.find_admissible_r(counts, 6),
                 lambda: st.W_plus(counts, (1, 1, 1)), lambda: st.W_minus(counts, (1, 1, 1))):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "the oracles take an OccupancyVector, got (1, 1, 1, 0, 0, 0)"


def _first_cancelling_tuple(m, limit):
    """Brute force: a tuple of the smallest total <= limit whose weight cancels."""
    for rsum in range(m.b + 1, limit + 1):
        for cuts in itertools.combinations(range(1, rsum), m.b):
            r = tuple(x - y for x, y in zip(cuts + (rsum,), (0,) + cuts))
            if (st.W_plus(m, r) + st.W_minus(m, r)) % (2 * m.N * rsum) == 0:
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
        brute = _first_cancelling_tuple(occ, 12)
        assert (brute is None) == (found is None)
        if found is not None:
            assert len(found) == occ.b + 1
            assert found.rsum == sum(brute)
            assert (st.W_plus(occ, found) + st.W_minus(occ, found)) % (2 * occ.N * found.rsum) == 0


def _per_call_scan_bound(counts, N, b, bound, s2_shift=0):
    """Reference bounded scan that builds its own draw masks on every call.

    s2_shift moves the weight's constant coefficient s2 off its own value.
    """
    s2, coeff = st._scan_coefficients(counts, N, b)
    s2 += s2_shift
    parts = b + 1
    cmin = min(coeff)
    shifts = sorted({c - cmin for c in coeff})
    masks = [1]
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
                return st._scan_witness(coeff, shifts, masks, m, value - lo)
            value += q
    return None


def _scan(occ, bound):
    """The bounded witness of occ as a plain tuple, or None."""
    found = st.find_admissible_r(occ, bound)
    return found and found.r


def test_shared_draw_masks_match_a_per_call_scan():
    occs = [st.occupancy(s) for n in range(1, 5) for N in range(1, 4) for s in st.iter_strata(n, N)]
    occs += [st.OccupancyVector(2, 1, (1, 1, 1, 0, 0, 0)), st.OccupancyVector(2, 1, (0, 2, 1, 0, 0, 0))]
    want = {bound: [_per_call_scan_bound(m.counts, m.N, m.b, bound) for m in occs]
            for bound in (6, 12, 48)}
    st._CLASS_RESULTS.clear()
    # the first pass scans every class; later ones read the memo, then ask anew
    for bound in (48, 6, 12, 48):
        assert [_scan(m, bound) for m in occs] == want[bound]
    assert want[48][-2:] == [None, (3, 1, 1)]


def test_deep_scans_keep_shared_draw_masks_at_the_cap():
    st._CLASS_RESULTS.clear()
    m = st.OccupancyVector(2, 1, (1, 1, 1, 0, 0, 0))
    assert st.find_admissible_r(m, bound=3000) is None
    assert _per_call_scan_bound(m.counts, 1, 2, 3000) is None
    occs = [st.occupancy(s) for N in (1, 2) for s in st.iter_strata(3, N)]
    assert [_scan(m, 100) for m in occs] == [
        _per_call_scan_bound(m.counts, m.N, m.b, 100) for m in occs]


def _per_call_cancelling_shift(N, A):
    """Reference: the first A - 2Nt, over every t from min(A)/2N to max(A)/2N,
    that is all zero or takes both signs."""
    step = 2 * N
    for t in range(-((-min(A)) // step), max(A) // step + 1):
        shifted = [a - step * t for a in A]
        if all(v == 0 for v in shifted) or min(shifted) < 0 < max(shifted):
            return shifted
    return None


def test_class_memo_matches_per_call_oracles_and_ignores_s2_mod_2N():
    st._CLASS_RESULTS.clear()
    strata = 0
    for n in range(1, 5):
        for N in range(1, 4):
            bound = 4 * N * n
            for s in st.iter_strata(n, N):
                occ = st.occupancy(s)
                case = (occ.counts, N, s.b)
                s2, coeff = st._scan_coefficients(*case)
                found = st.find_admissible_r(occ, bound=bound)
                shifted = st._class_result(st._class_of(occ), None)
                for s2_shift in (0, 2 * N, -2 * N):
                    assert _per_call_scan_bound(*case, bound, s2_shift) == (found and found.r)
                    want = _per_call_cancelling_shift(N, [s2 + s2_shift + c for c in coeff])
                    assert want == (shifted and list(shifted))
                assert st.r_exists(occ) == (want is not None)
                strata += 1
    # one scan and one shift per coefficient class and bound, not per stratum
    assert len(st._CLASS_RESULTS) < strata


def _unbounded_witness(shifted):
    """find_admissible_r's witness for a class whose cancelling shift is shifted,
    with the weight re-check (which the caller makes on shifted) stubbed out."""
    m = st.OccupancyVector(len(shifted) - 1, 1, (0,) * 2 * len(shifted))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(st, "_class_result", lambda *args: shifted)
        patch.setattr(st, "_weight", lambda m, r, sign: 0)
        return st.find_admissible_r(m).r


def _assert_closed_form(N, s2, coeff):
    """The one-shift answer equals the scan over t, and its witness cancels it."""
    shifted = st._cancelling_shift(N, s2, coeff)
    want = _per_call_cancelling_shift(N, [s2 + c for c in coeff])
    assert shifted == (want and tuple(want))
    if shifted is not None:
        r = _unbounded_witness(shifted)
        assert min(r) >= 1 and sum(v * w for v, w in zip(shifted, r)) == 0
    return shifted


@pytest.mark.parametrize("N, s2, coeff, shifted", [
    (2, 4, (4, 4, 4), (0, 0, 0)),  # every A_i the same multiple of 2N
    (2, 1, (2, 2), None),  # every A_i the same, and no multiple of 2N
    (1, 0, (2, 5), (-2, 1)),  # min(A) a multiple of 2N, another one inside
    (1, 0, (2, 4), None),  # min(A) and max(A) multiples of 2N, none strictly between
    (3, 0, (7, 11), None),  # max(A) - min(A) < 2N and no multiple between
    (1, 0, (-5, 3, 0), (-1, 7, 4)),  # max(A) - min(A) > 2N: the least multiple above min(A)
    (1, 0, (3, 1, 0), (1, -1, -2)),  # OccupancyVector(2, 1, (0, 2, 1, 0, 0, 0))
], ids=["equal-multiple", "equal-off", "lo-multiple", "lo-hi-multiples", "narrow", "wide",
        "worked-pair"])
def test_cancelling_shift_cases(N, s2, coeff, shifted):
    assert _assert_closed_form(N, s2, coeff) == shifted


@given(hs.integers(1, 6), hs.integers(-40, 40), hs.lists(hs.integers(-40, 40), min_size=1, max_size=6))
def test_cancelling_shift_matches_a_scan_over_t(N, s2, coeff):
    _assert_closed_form(N, s2, tuple(coeff))


def test_witness_errors_name_their_occupancy(monkeypatch):
    counts = (0, 2, 1, 0, 0, 0)
    occ = st.OccupancyVector(2, 1, counts)
    _, coeff = st._scan_coefficients(counts, 1, 2)
    shifts = tuple(sorted({c - min(coeff) for c in coeff}))
    monkeypatch.setattr(st, "_CLASS_RESULTS", {})
    # masks claiming every sum at two draws but none at one: the walk back fails
    bad = [1, 0, (1 << 64) - 1]
    with pytest.raises(RuntimeError, match=r"^bitset walk lost its witness at 2 of 2 draws$"):
        st._scan_witness(coeff, shifts, bad, 2, shifts[-1])
    with monkeypatch.context() as patch:
        patch.setattr(st, "_class_scan", lambda *args: st._scan_witness(coeff, shifts, bad, 2, 0))
        with pytest.raises(RuntimeError, match=r"^bitset walk lost its witness at 2 of 2 draws "
                           r"for counts \(0, 2, 1, 0, 0, 0\) with N=1, b=2$"):
            st.find_admissible_r(occ, bound=6)
    monkeypatch.setattr(st, "_weight", lambda m, r, sign: 1 if sign > 0 else 0)
    with pytest.raises(RuntimeError, match=r"^witness \(3, 1, 1\) failed the weight check "
                       r"for counts \(0, 2, 1, 0, 0, 0\) with N=1, b=2$"):
        st.find_admissible_r(occ, bound=6)


def test_witness_check_reads_the_counts_once(monkeypatch):
    """Counts are checked only when the vector is made: the oracles never check them
    again, and once the vector keeps its class only the witness check reads them."""
    checked, scans, weights = [], [], []
    indices, coefficients, weight = st._indices, st._scan_coefficients, st._weight
    monkeypatch.setattr(st, "_indices", lambda v, what: checked.append(what) or indices(v, what))
    monkeypatch.setattr(st, "_scan_coefficients", lambda *a: scans.append(a) or coefficients(*a))
    monkeypatch.setattr(st, "_weight", lambda m, r, sign: weights.append(sign) or weight(m, r, sign))
    occ = st.occupancy(next(st.iter_strata(4, 2, b=2, admissible_only=True)))
    assert st.r_exists(occ) and len(scans) == 1
    for bound in (None, 12):
        weights.clear()
        assert st.find_admissible_r(occ, bound=bound) is not None
        assert weights == [1, -1] and len(scans) == 1
    assert "counts" not in checked


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


@hs.composite
def all_ones_vectors(draw):
    N, b = draw(hs.integers(1, 3)), draw(hs.integers(0, 3))
    size = 2 * N * (b + 1)
    return st.OccupancyVector(b, N, draw(hs.lists(hs.integers(0, 3), min_size=size, max_size=size)))


@settings(max_examples=200, deadline=None)
@given(all_ones_vectors())
def test_oracles_agree_on_any_all_ones_vector(m):
    bounded, brute = st.find_admissible_r(m, bound=12), _first_cancelling_tuple(m, 12)
    assert (bounded is None) == (brute is None)
    if bounded is not None:
        assert st.r_exists(m) and bounded.rsum == sum(brute)
    assert st.r_exists(m) == (st.find_admissible_r(m) is not None)


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


@pytest.mark.parametrize("n, N", [(3, 2), (4, 2), (5, 1)])
def test_enumeration_is_sorted_once_and_handed_out_fresh(monkeypatch, n, N):
    fresh = {}
    for s in sorted(st._admissible_flat(n, N), key=st.canonical_key):
        fresh.setdefault(st.cell_dimension(s), []).append(s)
    want = {d: tuple(fresh[d]) for d in sorted(fresh, reverse=True)}
    first = st.enumerate_admissible(n, N)
    assert first == want and list(first) == list(want)
    first.clear()
    first[9] = ()
    monkeypatch.setattr(st, "canonical_key", lambda s: 1 / 0)  # a re-sort would raise
    assert st.enumerate_admissible(n, N) == want


def test_iter_strata_filters():
    dim0 = set(st.iter_strata(3, 1, b=0))
    assert dim0 == {A000, A011, mk(3, 1, 0, (0, 0, 1)), mk(3, 1, 0, (1, 1, 1))}
    adm = set(st.iter_strata(3, 1, admissible_only=True))
    assert all(st.is_admissible(s) for s in adm)
    assert len(adm) == 19
    with pytest.raises(ValueError):
        list(st.iter_strata(0, 1))
    for b in (-1, 5):
        with pytest.raises(ValueError, match=r"^b must lie in 0\.\.n, got b=%d with n=3$" % b):
            list(st.iter_strata(3, 1, b=b))


def test_enumerate_admissible_guards():
    with pytest.raises(ValueError):
        st.enumerate_admissible(1, 1)
    with pytest.raises(ValueError):
        st.enumerate_admissible(3, 0)


@pytest.mark.parametrize("fn, args, prefix", [
    (st.classify_stratum, (mk(3, 1, 1, (1, 2, 2)),), "inadmissible stratum has no classification: "),
    (st.face_items, (D123, 0), "k=0 is not a neutral level of this stratum "),
    (st.specializations, (mk(3, 1, 1, (1, 2, 2)),), "inadmissible stratum: "),
    (st.smooth, (A011, 1), "a b=0 stratum has no level left to smooth: "),
], ids=["classify_stratum", "face_items", "specializations", "smooth"])
def test_errors_name_their_stratum(fn, args, prefix):
    with pytest.raises(ValueError) as err:
        fn(*args)
    assert str(err.value) == prefix + st.format_stratum(args[0])


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
        # a smoothing is a face too: compare it with the shifted points
        for j in range(1, s.b + 2) if s.b else ():
            shifted = [(p.tau, p.x if abs(p.x) < j else p.x - (1 if p.x > 0 else -1))
                       for p in s.points]
            want = st.Stratum(s.n, s.N, s.b - 1, shifted)
            got = st.smooth(s, j)
            assert got == want and got.points == want.points


def test_face_items_match_a_pointwise_reference(engine_strata):
    """Each face drops its masked chart levels point by point and is validated."""
    for s in dict.fromkeys(engine_strata):
        verts = st.chart_of(s).vertices
        for k in st.valid_levels(s):
            want = set()
            for mask in range(1, (1 << len(verts)) - 1):
                kept = [v for i, v in enumerate(verts) if mask >> i & 1]
                ys = [v.y for v in kept]
                if not (min(ys) < 2 * k < max(ys) or min(ys) == 2 * k == max(ys)):
                    continue
                dropped = [s.b + 1 - i for i in range(len(verts)) if not mask >> i & 1]
                points = []
                for p in s.points:
                    level = abs(p.x) - sum(1 for d in dropped if d <= abs(p.x))
                    points.append((p.tau, level if p.x > 0 else -level))
                face = st.Stratum(s.n, s.N, s.b - len(dropped), points)
                want.add((face, k + (kept[0].x - kept[0].y) // 2))
            assert st.face_items(s, k) == want


def _filtered_face_masks(verts, k):
    """Reference: every nonempty vertex subset, kept when it is valid at k."""
    out = []
    for mask in range(1, 1 << len(verts)):
        ys = [verts[i].y for i in range(len(verts)) if mask >> i & 1]
        lo, hi = min(ys), max(ys)
        if lo < 2 * k < hi:
            out.append((mask, len(ys) - 2))
        elif lo == 2 * k == hi:
            out.append((mask, len(ys) - 1))
    return out


def test_face_masks_match_the_subset_filter():
    pairs = 0
    for n in range(1, 8):
        for b in range(n + 1):
            for verts in st._canonical_charts(n, b):
                chart, ks, _ = st._chart_facts(n, verts)
                for k in ks:
                    got = st._face_masks(chart.vertices, k)
                    want = _filtered_face_masks(chart.vertices, k)
                    assert sorted(got) == want
                    assert got[-1] == want[-1] and got[-1][0] == (1 << b + 1) - 1
                    pairs += 1
    assert pairs == 9379


@pytest.mark.parametrize("point", [(0.9, 0.5), ("1", "1"), (0,), {"tau": 0, "x": 1}, (0, 1, 2)])
def test_construction_refuses_points_that_are_not_integers(point):
    with pytest.raises(ValueError) as err:
        st.Stratum(3, 1, 0, [point] * 3)
    assert str(err.value) == "point %r needs an integer residue and level" % (point,)


@pytest.mark.parametrize("call, message", [
    (lambda: st.ExpansionTuple((1.9, 2.2)), "expansion entries must be integers, got 1.9"),
    (lambda: st.OccupancyVector(2, 1.7, (1, 2, 1, 0, 0, 0)), "b and N must be integers, got 1.7"),
    (lambda: st.OccupancyVector(2, 1, (0.9, 2, 1, 0, 0, 0)), "counts must be integers, got 0.9"),
], ids=["ExpansionTuple", "OccupancyVector-N", "OccupancyVector-counts"])
def test_oracle_records_refuse_values_that_are_not_integers(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_copy_and_pickle_round_trip():
    s = next(st.iter_strata(3, 2, b=3, admissible_only=True))
    st.valid_levels(s)
    chart = st.chart_of(s)
    for obj in (s, s.points[-1], chart.vertices[-1], chart):
        for t in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert t == obj and type(t) is type(obj) and repr(t) == repr(obj)
    for t in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert t.points == s.points
        assert st.valid_levels(t) == st.valid_levels(s)


def test_trusted_constructor_behaves_like_the_validated_one():
    for s in st.iter_strata(3, 2):
        facts, levels = s._chart, s._levels
        bare = st.Stratum._canonical(s.n, s.N, s.b, s.points)
        full = st.Stratum._canonical(s.n, s.N, s.b, s.points, facts, levels)
        checked = st.Stratum(s.n, s.N, s.b, s.points)
        for t in (s, bare, full):
            assert t == checked and hash(t) == hash(checked) and repr(t) == repr(checked)
            for again in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
                assert again == checked and repr(again) == repr(checked)
                assert st.valid_levels(again) == levels
        assert full._chart is facts and full._levels is levels
        assert not hasattr(bare, "_chart") and not hasattr(bare, "_levels")
        assert st.valid_levels(bare) == levels and bare._chart is facts
    for name, value in (("n", 1), ("points", ()), ("_levels", ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)
    assert s.n == 3 and s._levels == levels


# strata with two valid levels first occur at n = 5
TWO_LEVEL_STRATA = {(5, 1): 64, (5, 2): 0, (6, 1): 256}


@pytest.mark.parametrize("n, N", [(n, N) for n in range(1, 6) for N in range(1, 4)
                                  if n < 5 or N <= 2] + [(6, 1)])
def test_enumeration_attaches_the_valid_levels(n, N):
    for admissible_only in (False, True):
        two = 0
        for s in st.iter_strata(n, N, admissible_only=admissible_only):
            assert s._levels == st.valid_levels(st.Stratum(n, N, s.b, s.points))
            assert st.valid_levels(s) is s._levels
            two += len(s._levels) == 2
        assert two == TWO_LEVEL_STRATA.get((n, N), 0)


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


def test_chart_classes_slice_flat_residues(engine_strata):
    """The flat residues of s, read in _chart_classes order, rebuild s."""
    for s in dict.fromkeys(engine_strata):
        by_class = {}
        for p in s.points:
            by_class.setdefault((abs(p.x), (p.x > 0) - (p.x < 0)), []).append(p.tau)
        chart = st.chart_of(s)
        flat = [t for level, sign, _ in st._chart_classes(chart) for t in by_class[level, sign]]
        assert st.stratum_from_chart(chart, flat, s.N) == s


def test_canonical_charts_are_the_charts_of_strata():
    for n in range(1, 6):
        points = [(x, y) for x in range(n + 1) for y in range(-x, x + 1, 2)]
        for b in range(n + 1):
            charts = list(st._canonical_charts(n, b))
            assert len(set(charts)) == len(charts)
            # every valid chart with b+1 vertices whose first vertex is on the diagonal
            brute = {
                verts for verts in itertools.combinations(points, b + 1)
                if verts[0][0] == verts[0][1] and validate(LineChart(n, verts)).ok
            }
            assert set(charts) == brute
            fresh = {
                tuple((v.x, v.y) for v in st.chart_of(st.Stratum(n, 1, b, s.points)).vertices)
                for s in st.iter_strata(n, 1, b)
            }
            assert fresh == brute


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
    # when iter_strata built every stratum through the validating constructor;
    # the (3, 5) and (5, 2) rows when it still filtered every residue combination
    recorded = {
        (3, 2, False): (328, "c93c06ec853d38a9346e1af620208cde26564540aa0103b31db1f13294edfc3a"),
        (3, 2, True): (61, "85e19183d7e2b694c9485ff3c0043d8160e803d77db9960e5df251a105748477"),
        (4, 2, False): (2062, "c07e4de4c4de8a933473780bc4dff40aae04b9c02e4506aca644a49133bd1f10"),
        (4, 2, True): (419, "82c78ee900362c39e0bf6f1a10ff59ca972715e2e7f03564f26c7110b8faa077"),
        (3, 5, True): (331, "64a8e9f6c083a093c815d26e81aedc043de54d96e6a74c5eb71018a7deb29402"),
        (5, 2, True): (4603, "f6d62b2314fd1c387d1de3ba866994a9d75698b123ec0b74407538a6c1198bbc"),
    }
    for (n, N, adm), (count, digest) in recorded.items():
        literals = [st.format_stratum(s) for s in st.iter_strata(n, N, admissible_only=adm)]
        assert len(literals) == count
        assert hashlib.sha256("\n".join(literals).encode()).hexdigest() == digest
