import itertools
import math

import pytest
from hypothesis import given, strategies as hs

from kdc import counting as ct
from kdc import linechart as lc
from kdc.errors import InvariantError


def test_deepest_cell_recursion():
    assert [ct.a(n) for n in range(1, 8)] == [0, 0, 4, 8, 28, 56, 152]
    with pytest.raises(ValueError):
        ct.a(0)


def test_a_matches_enumeration():
    for n in range(1, 9):
        assert ct.a(n) == len(lc.enumerate_complete_admissible(n))


def test_ballot_counts_nonnegative_charts():
    for n in range(0, 9):
        brute = sum(
            1
            for steps in itertools.product((1, -1), repeat=n)
            if min(itertools.accumulate(steps, initial=0)) >= 0
        )
        assert ct.ballot(n) == brute
    with pytest.raises(ValueError):
        ct.ballot(-1)


def test_m_k_direct():
    assert ct.m_k(1, 0) == 1
    assert ct.m_k(2, 0) == 2
    assert ct.m_k(2, 1) == 2
    assert ct.m_k(3, 0) == 4
    with pytest.raises(ValueError):
        ct.m_k(0, 0)


@given(hs.integers(min_value=1, max_value=30))
def test_m_profile_matches_m_k(N):
    profile = ct.m_profile(N)
    assert len(profile) == N
    assert all(profile[k] == ct.m_k(N, k) for k in range(N))
    assert sum(profile) == math.comb(N + 2, 3)


@given(hs.integers(min_value=1, max_value=40))
def test_sum_of_three(N):
    assert ct.sum_of_three(N) == (N + 2) * (N + 1) // 2


def test_n3_counts_closed_forms():
    assert ct.n3_counts(1) == (4, 9, 6)
    assert ct.n3_counts(2) == (16, 30, 15)
    assert ct.n3_counts(3) == (36, 63, 28)
    for N in (1, 2, 3):
        ct.n3_counts(N, verify=True)


def test_n3_euler_characteristic_is_one():
    for N in range(1, 12):
        faces, edges, vertices = ct.n3_counts(N)
        assert vertices - edges + faces == 1


def test_invariant_error_is_runtime_error():
    assert issubclass(InvariantError, RuntimeError)
