import pytest
from hypothesis import given, strategies as hs

from kdc import linechart as lc
from kdc.errors import InvariantError


def chart(*vertices, n=None):
    xs = [v[0] for v in vertices]
    return lc.LineChart(max(xs) if n is None else n, vertices)


DIAG = chart((0, 0), (1, 1), (2, 2), (3, 3))
ZIGZAG = chart((0, 0), (1, -1), (2, 0), (3, 1))


def complete_charts(n):
    return lc._complete_charts(n)


def valid_charts(max_n=5):
    out = []
    for n in range(1, max_n + 1):
        for full in complete_charts(n):
            out.extend(lc.subcharts(full))
    # dedup, subcharts of different complete charts overlap
    return sorted(set(out), key=lambda c: (c.n, c.vertices))


# ---------------------------------------------------------------------------
# validity


def test_validate_accepts_diagonal():
    assert lc.validate(DIAG).ok


def test_validate_rejects_nonincreasing_x():
    bad = lc.LineChart(3, [(0, 0), (1, 1), (1, -1)])
    report = lc.validate(bad)
    assert not report
    assert "increasing" in report.reason


def test_validate_rejects_parity_break():
    report = lc.validate(lc.LineChart(3, [(0, 0), (3, 2)]))
    assert not report


def test_validate_rejects_quadrant_escape():
    report = lc.validate(lc.LineChart(3, [(1, 2)]))
    assert not report
    assert "quadrant" in report.reason


def test_validate_rejects_steep_segment():
    report = lc.validate(lc.LineChart(5, [(2, 0), (4, 4)]))
    assert not report


def test_operations_refuse_invalid_charts():
    with pytest.raises(ValueError):
        lc.valid_neutral_levels(lc.LineChart(3, [(0, 0), (1, 1), (1, -1)]))


# ---------------------------------------------------------------------------
# neutral levels and classification


def test_neutral_levels_of_complete_charts():
    assert lc.valid_neutral_levels(DIAG) == {1}
    assert lc.valid_neutral_levels(ZIGZAG) == {0}
    down = chart((0, 0), (1, -1), (2, -2), (3, -3))
    assert lc.valid_neutral_levels(down) == {-1}


def test_narrow_needs_even_height():
    assert lc.valid_neutral_levels(chart((0, 0), (2, 0))) == {0}
    assert lc.valid_neutral_levels(chart((2, 2), n=3)) == {1}
    assert lc.valid_neutral_levels(chart((1, 1), (3, 1))) == frozenset()


def test_classification():
    assert lc.classify(DIAG, 1) is lc.Classification.WIDE
    assert lc.classify(chart((2, 2), n=3), 1) is lc.Classification.NARROW
    assert str(lc.classify(DIAG, 1)) == "wide"
    with pytest.raises(ValueError):
        lc.classify(DIAG, 0)


def test_wide_range_is_open():
    # heights 0..4 allow only the strict interior level
    steep = chart((0, 0), (2, 2), (4, 4))
    assert lc.valid_neutral_levels(steep) == {1}


# ---------------------------------------------------------------------------
# shift and canonical form


def test_shift_moves_levels():
    low = chart((2, 0), (3, 1), n=3)
    assert lc.canonicalize(low) == chart((2, 2), (3, 3), n=3)


def test_shift_out_of_quadrant_raises():
    with pytest.raises(ValueError):
        lc.shift(DIAG, 1)


@given(hs.sampled_from(valid_charts()), hs.integers(min_value=-3, max_value=0))
def test_canonical_form_is_shift_invariant(c, p):
    try:
        shifted = lc.shift(c, p)
    except ValueError:
        return
    assert lc.canonicalize(shifted) == lc.canonicalize(c)
    ks = lc.valid_neutral_levels(c)
    assert lc.valid_neutral_levels(shifted) == frozenset(k + p for k in ks)


def test_canonical_first_vertex_on_diagonal():
    for c in valid_charts(4):
        canon = lc.canonicalize(c)
        assert canon.vertices[0].y == canon.vertices[0].x


# ---------------------------------------------------------------------------
# subcharts


def _supports(charts):
    return {tuple((v.x, v.y) for v in c.vertices) for c in charts}


def test_admissible_subcharts_of_diagonal():
    got = _supports(lc.subcharts(DIAG, admissible_only=True))
    assert got == {
        ((0, 0), (1, 1), (2, 2), (3, 3)),
        ((0, 0), (1, 1), (3, 3)),
        ((0, 0), (2, 2), (3, 3)),
        ((1, 1), (2, 2), (3, 3)),
        ((0, 0), (3, 3)),
        ((1, 1), (3, 3)),
        ((2, 2),),
    }


def test_admissible_subcharts_of_zigzag():
    got = _supports(lc.subcharts(ZIGZAG, admissible_only=True))
    assert got == {
        ((0, 0), (1, -1), (2, 0), (3, 1)),
        ((0, 0), (1, -1), (3, 1)),
        ((1, -1), (2, 0), (3, 1)),
        ((1, -1), (3, 1)),
        ((0, 0), (2, 0)),
        ((0, 0),),
        ((2, 0),),
    }


def test_shared_level_filter_is_stricter_than_admissibility():
    # {(0,0)} is admissible at k=0 but shares no level with the diagonal
    loose = [c for c in lc.subcharts(DIAG) if lc.is_admissible(c)]
    strict = lc.subcharts(DIAG, admissible_only=True)
    assert len(loose) == 8
    assert len(strict) == 7


def test_subchart_count_and_order():
    subs = lc.subcharts(DIAG)
    assert len(subs) == 15
    assert subs[0].vertices == (lc.LatticeVertex(0, 0),)
    assert all(set(sub.vertices) <= set(DIAG.vertices) for sub in subs)


def test_admissible_subchart_count_matches_walk():
    for c in valid_charts():
        assert lc.count_admissible_subcharts(c) == len(lc.subcharts(c, admissible_only=True))


# ---------------------------------------------------------------------------
# complete charts


def test_complete_chart_census():
    for n in range(1, 7):
        assert len(complete_charts(n)) == 2 ** n


def test_complete_admissible_n3():
    got = set(lc.enumerate_complete_admissible(3))
    assert got == {
        (DIAG, 1),
        (chart((0, 0), (1, 1), (2, 0), (3, -1)), 0),
        (ZIGZAG, 0),
        (chart((0, 0), (1, -1), (2, -2), (3, -3)), -1),
    }


def test_complete_admissible_counts_small():
    assert len(lc.enumerate_complete_admissible(1)) == 0
    assert len(lc.enumerate_complete_admissible(2)) == 0
    assert len(lc.enumerate_complete_admissible(4)) == 8
    assert len(lc.enumerate_complete_admissible(5)) == 28


def test_complete_extensions():
    ext = lc.complete_extensions(chart((2, 2), n=3))
    assert all(e.is_complete() for e in ext)
    assert all(set(chart((2, 2), n=3).vertices) <= set(e.vertices) for e in ext)
    adm = lc.complete_extensions(chart((2, 2), n=3), require_admissible=True)
    assert _supports(adm) <= _supports(ext)
    assert ((0, 0), (1, 1), (2, 2), (3, 3)) in _supports(adm)


def test_missing_admissible_completion_is_an_invariant_breach(monkeypatch):
    monkeypatch.setattr(lc, "_complete_charts", lambda n: [])
    with pytest.raises(InvariantError, match="no admissible completion"):
        lc.complete_extensions(chart((2, 2), n=3), require_admissible=True)


# ---------------------------------------------------------------------------
# literals


def test_parse_format_round_trip():
    text = "LC{n=3;(0,0)(1,1)(2,2)(3,3)}"
    assert lc.format_chart(lc.parse_chart(text)) == text


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        lc.parse_chart("garbage")
    with pytest.raises(ValueError):
        lc.parse_chart("LC{n=3;}")


@given(hs.sampled_from(valid_charts()))
def test_literal_round_trip_everywhere(c):
    assert lc.parse_chart(lc.format_chart(c)) == c
