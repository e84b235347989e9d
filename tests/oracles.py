"""Independent oracles the tests check the library against.

Everything here is deliberately naive: counting via the pentagonal-number
recurrence, partitions by filtering all multisets of parts, colouring
search by full enumeration, edge generation by filtering all subsets.  None
of it shares code with the library paths it cross-checks.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

from patcol.colouring import Colouring, is_valid, pat
from patcol.hypergraph import Hypergraph, SigmaHypergraph, build_sigma_explicit, edge_type
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


def naive_partitions(m: int) -> list[tuple[int, ...]]:
    """Every partition of m, from all multisets of parts that sum to m, in no particular order."""
    return [
        parts[::-1]
        for size in range(1, m + 1)
        for parts in combinations_with_replacement(range(1, m - size + 2), size)
        if sum(parts) == m
    ]


def naive_colourings_up_to_relabel(s: SigmaHypergraph, allowed: PatternSet, k: int) -> int:
    """Valid exactly-k colourings of the materialised instance, one per relabelling class.

    Restricted-growth strings (each vertex takes a used colour or the next
    new one) list every set partition of the vertices exactly once.
    """
    h = build_sigma_explicit(s)
    count = 0

    def grow(prefix: list[int], used: int) -> None:
        nonlocal count
        if len(prefix) == h.vertex_count:
            if used == k and is_valid(h, Colouring.of(tuple(prefix), k), allowed):
                count += 1
            return
        if used + h.vertex_count - len(prefix) < k:
            return
        for c in range(min(used + 1, k)):
            prefix.append(c)
            grow(prefix, max(used, c + 1))
            prefix.pop()

    grow([], 0)
    return count
