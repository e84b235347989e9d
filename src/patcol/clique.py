"""Clique numbers of class-structured hypergraphs.

The clique number of a class-structured hypergraph is determined entirely by
its family of edge types: a set of vertices taking b_i from the i-th class is
a clique exactly when every way of drawing r of them (a_i from class i) has
its positive counts forming an allowed type.  Families admitting such a
capacity vector summing to k are called k-full here, and the clique number is
the largest k admitting one.  A definition-level brute force over explicit
hypergraphs serves as the independent oracle.
"""
from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .hypergraph import Hypergraph, SigmaHypergraph
from .partitions import Partition, PatternSet, bounded_partitions, dominates, iter_partitions, monochromatic, rainbow


class VertexCapExceeded(ValueError):
    """Brute-force clique search refused: instance above the vertex cap (invalid input)."""


class KFullWitness(NamedTuple):
    k: int
    b: tuple[int, ...]
    patterns_used: tuple[Partition, ...]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "b": list(self.b),
            "patterns_used": [list(p) for p in self.patterns_used],
        }


def is_k_full(f: PatternSet, k: int, n_cap: int, q_cap: int) -> KFullWitness | None:
    """Search capacity vectors certifying that f is k-full.

    Capacity vectors b are non-increasing with at most n_cap entries, each at
    most q_cap, summing to k; the witness requires every draw vector A with
    a_i <= b_i and sum r to have its positive entries form a member of f.
    Those patterns are exactly the partitions of r that b dominates (the j
    largest entries of a draw sit in j distinct classes), so b is a witness
    iff it dominates no partition of r outside f: the ``avoid`` rule of
    ``bounded_partitions``, whose order the first witness keeps.
    """
    if not f.members:
        raise ValueError("k-fullness is undefined for an empty pattern family")
    r = f.r
    if k < r:
        raise ValueError(f"k-fullness needs k >= r, got k={k}, r={r}")
    patterns = list(iter_partitions(r))
    b = next(bounded_partitions(k, n_cap, q_cap, [p for p in patterns if p not in f.members]), None)
    return None if b is None else KFullWitness(k, b, tuple(p for p in patterns if dominates(b, p)))


class OmegaResult(NamedTuple):
    omega: int
    witness: KFullWitness

    def to_json_dict(self) -> dict:
        return {"omega": self.omega, "witness": self.witness.to_json_dict()}


def omega_sigma(s: SigmaHypergraph) -> OmegaResult:
    """Clique number of a class-structured hypergraph via k-fullness.

    Capacity vectors are capped at n parts of size at most q, since a clique
    draws b_i vertices from class i.  When neither the monochromatic nor the
    rainbow type is allowed, (r-1)^2 bounds the answer and the scan starts there.
    The scan always ends by k = r: each type fits the caps checked below, and
    as a capacity vector it dominates no other partition of r, so it
    certifies that the type set is r-full.
    """
    sig = s.edge_types
    if not sig.members:
        raise ValueError("edge type set must be non-empty")
    if s.n < sig.most_parts():
        raise ValueError(f"hypothesis violated: n={s.n} < most parts of the type set ({sig.most_parts()})")
    if s.q < sig.largest_part():
        raise ValueError(f"hypothesis violated: q={s.q} < largest part of the type set ({sig.largest_part()})")
    r = s.r
    upper = s.vertex_count
    if monochromatic(r) not in sig and rainbow(r) not in sig:
        upper = min(upper, (r - 1) ** 2)
    # k-fullness is downward monotone, so the first hit from above is the max.
    fulls = (is_k_full(sig, k, s.n, s.q) for k in range(upper, r - 1, -1))
    w = next(w for w in fulls if w is not None)
    return OmegaResult(w.k, w)


def brute_force_clique(h: Hypergraph, vertex_cap: int = 40) -> int:
    """Largest vertex set all of whose r-subsets are edges, by exhaustive growth.

    Sets smaller than r are cliques by convention (nothing to check), so the
    result is at least min(vertex_count, r-1).
    """
    if h.vertex_count > vertex_cap:
        raise VertexCapExceeded(f"{h.vertex_count} vertices exceeds the brute-force cap of {vertex_cap}")
    edges = h.edges
    r = h.r
    best = min(h.vertex_count, r - 1)

    def compatible(stack: list[int], v: int) -> bool:
        if len(stack) + 1 < r:
            return True
        return all(tuple(sorted(c + (v,))) in edges for c in combinations(stack, r - 1))

    def grow(stack: list[int], candidates: list[int]):
        nonlocal best
        best = max(best, len(stack))
        for i, v in enumerate(candidates):
            if len(stack) + len(candidates) - i <= best:
                return
            if compatible(stack, v):
                stack.append(v)
                grow(stack, [u for u in candidates[i + 1 :] if compatible(stack, u)])
                stack.pop()

    grow([], list(range(h.vertex_count)))
    return best
