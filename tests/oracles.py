"""Independent oracles the tests check the library against.

Everything here is deliberately naive: counting via the pentagonal-number
recurrence, colouring search by full enumeration, edge generation by
filtering all subsets.  None of it shares code with the library paths it
cross-checks.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from patcol.colouring import Colouring, pat
from patcol.hypergraph import Hypergraph, SigmaHypergraph, edge_type
from patcol.partitions import PatternSet


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def filter_sigma_edges(s: SigmaHypergraph) -> set[tuple[int, ...]]:
    """All r-subsets whose class-intersection partition is an allowed type."""
    return {
        sub
        for sub in combinations(range(s.vertex_count), s.r)
        if edge_type(s, sub) in s.edge_types
    }


def iter_surjective_colourings(n_vertices: int, k: int):
    for assignment in product(range(k), repeat=n_vertices):
        if len(set(assignment)) == k:
            yield assignment


def naive_exists_k(h: Hypergraph, k: int, allowed: PatternSet) -> bool:
    """Enumerate every surjective assignment and test each edge directly."""
    for assignment in iter_surjective_colourings(h.vertex_count, k):
        c = Colouring.of(assignment, k)
        if all(pat(e, c) in allowed for e in h.edges):
            return True
    return False


def naive_spectrum(h: Hypergraph, allowed: PatternSet, k_max: int) -> set[int]:
    return {k for k in range(1, k_max + 1) if naive_exists_k(h, k, allowed)}


def naive_draws_by_size(row: tuple[tuple[int, int], ...]) -> dict[int, list[tuple[tuple[int, int], ...]]]:
    """Every sub-multiset of a class row, keyed by size, in descending order of take vectors.

    Enumerates every vector of takes (0..count per colour) and sorts them all,
    so "larger takes of earlier colours first" holds by construction.
    """
    by_size: dict[int, list[tuple[tuple[int, int], ...]]] = {}
    for takes in sorted(product(*(range(v + 1) for _, v in row)), reverse=True):
        draw = tuple((c, t) for (c, _), t in zip(row, takes) if t)
        by_size.setdefault(sum(takes), []).append(draw)
    return by_size
