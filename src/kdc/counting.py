"""Closed-form counts with brute-force cross-checks.

The recursion for deepest cells, residue-class triple counts, and the
n=3 per-dimension formulas all live here so the verification suite can
compare them against raw enumeration.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Tuple

from .errors import InvariantError


@lru_cache(maxsize=None)
def a(n: int) -> int:
    """Number of complete admissible chart/level pairs on n steps.

    a(1) = a(2) = 0 and a(n+2) = 4 a(n) + 4 C(n, floor(n/2)).
    """
    if n < 1:
        raise ValueError("n must be positive, got n=%d" % n)
    value = 0
    for m in range(2 - n % 2, n - 1, 2):  # a(m) -> a(m + 2), from a(1) or a(2)
        value = 4 * value + 4 * ballot(m)
    return value


def ballot(n: int) -> int:
    """Central binomial C(n, floor(n/2)): nonnegative complete charts."""
    if n < 0:
        raise ValueError("n must be nonnegative, got n=%d" % n)
    return math.comb(n, n // 2)


def m_k(N: int, k: int) -> int:
    """Unordered residue triples mod N with t1 + t2 + t3 + k = 0 (mod N): each
    pair t1 <= t2 fixes t3 mod N, and the triple counts when t3 >= t2."""
    if N < 1:
        raise ValueError("N must be positive, got N=%d" % N)
    return sum((-k - t1 - t2) % N >= t2 for t1 in range(N) for t2 in range(t1, N))


def m_profile(N: int) -> Tuple[int, ...]:
    """All m_k(N, k) for k = 0..N-1: the triples over a pair t1 <= t2 have the
    N - t2 consecutive sums from t1 + 2 t2, one window of a difference array."""
    if N < 1:
        raise ValueError("N must be positive, got N=%d" % N)
    diff = [0] * (3 * N)
    for t1, t2 in itertools.combinations_with_replacement(range(N), 2):
        diff[t1 + 2 * t2] += 1
        diff[t1 + t2 + N] -= 1
    sums = list(itertools.accumulate(diff))  # triples per exact sum
    # m(k) counts triples with sum = -k
    return tuple(sum(sums[-k % N::N]) for k in range(N))


def sum_of_three(N: int) -> int:
    """m(-1) + m(0) + m(1), checked against (N+2)(N+1)/2."""
    total = m_k(N, -1) + m_k(N, 0) + m_k(N, 1)
    expected = math.comb(N + 2, 2)
    if total != expected:
        raise InvariantError(
            "triple count sum %d != C(N+2,2) = %d at N=%d" % (total, expected, N)
        )
    return total


def n3_counts(N: int) -> Tuple[int, int, int]:
    """(faces, edges, vertices) of the n=3 complex by closed form."""
    if N < 1:
        raise ValueError("N must be positive, got N=%d" % N)
    return 4 * N * N, 6 * N * N + 3 * N, 2 * N * N + 3 * N + 1
