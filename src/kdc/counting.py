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
        raise ValueError("n must be positive")
    if n <= 2:
        return 0
    return 4 * a(n - 2) + 4 * ballot(n - 2)


def ballot(n: int) -> int:
    """Central binomial C(n, floor(n/2)): nonnegative complete charts."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(n, n // 2)


def m_k(N: int, k: int) -> int:
    """Unordered residue triples mod N with t1 + t2 + t3 + k = 0 (mod N)."""
    if N < 1:
        raise ValueError("N must be positive")
    return sum(
        1
        for triple in itertools.combinations_with_replacement(range(N), 3)
        if (sum(triple) + k) % N == 0
    )


def m_profile(N: int) -> Tuple[int, ...]:
    """All m_k(N, k) for k = 0..N-1 from a single sweep over triples."""
    if N < 1:
        raise ValueError("N must be positive")
    buckets = [0] * N
    for triple in itertools.combinations_with_replacement(range(N), 3):
        buckets[sum(triple) % N] += 1
    # m(k) counts triples with sum = -k
    return tuple(buckets[(-k) % N] for k in range(N))


def sum_of_three(N: int) -> int:
    """m(-1) + m(0) + m(1), checked against (N+2)(N+1)/2."""
    total = m_k(N, -1) + m_k(N, 0) + m_k(N, 1)
    expected = math.comb(N + 2, 2)
    if total != expected:
        raise InvariantError(
            "triple count sum %d != C(N+2,2) = %d at N=%d" % (total, expected, N)
        )
    return total


def n3_counts(N: int, verify: bool = False) -> Tuple[int, int, int]:
    """(faces, edges, vertices) of the n=3 complex by closed form.

    With verify=True the formulas are checked against full enumeration;
    a mismatch raises InvariantError.
    """
    if N < 1:
        raise ValueError("N must be positive")
    faces = 4 * N * N
    edges = 6 * N * N + 3 * N
    vertices = 2 * N * N + 3 * N + 1
    if verify:
        from . import strata

        groups = strata.enumerate_admissible(3, N)
        found = tuple(len(groups.get(d, ())) for d in (2, 1, 0))
        if found != (faces, edges, vertices):
            raise InvariantError(
                "n=3 closed forms %r disagree with enumeration %r at N=%d"
                % ((faces, edges, vertices), found, N)
            )
    return faces, edges, vertices
