"""Uniform hypergraphs: explicit representation, constructors and file I/O.

Vertices are dense integer indices.  Edges are stored as sorted tuples so the
whole structure has a single canonical form; the JSON file format sorts edges
lexicographically and is therefore byte-stable and diffable.

Constructors cover the complete hypergraph, class-structured hypergraphs
(n blocks of q vertices with a set of allowed block-intersection types),
a row/column grid construction, and the edge-bundle hypergraph whose vertices
are the edges of a complete graph (used for Ramsey-style checks).
"""
from __future__ import annotations

import json
import warnings
from collections import Counter
from itertools import chain, combinations, product
from math import comb, factorial, perm, prod
from typing import Iterable, Iterator, NamedTuple

from .partitions import Partition, PatternSet, as_partition, load_json

DEFAULT_EDGE_CAP = 10**7


class EdgeCapExceeded(ValueError):
    """Explicit construction would materialise more edges than the cap allows (invalid input)."""


class Hypergraph(NamedTuple):
    r: int
    vertex_count: int
    edges: frozenset[tuple[int, ...]]

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(self.edges)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.sorted_edges()],
        }


def make_hypergraph(r: int, vertex_count: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Validate and canonicalise; duplicate edges collapse silently here."""
    if r < 1:
        raise ValueError("uniformity r must be positive")
    if vertex_count < 1:
        raise ValueError("vertex_count must be positive")
    canon = set()
    for i, e in enumerate(edges):
        t = tuple(sorted(e))
        if len(t) != r or len(set(t)) != r:
            raise ValueError(f"edge #{i} {list(e)} is not a set of {r} distinct vertices")
        if t[0] < 0 or t[-1] >= vertex_count:
            raise ValueError(f"edge #{i} {list(e)} has a vertex outside [0, {vertex_count})")
        canon.add(t)
    return Hypergraph(r, vertex_count, frozenset(canon))


def build_complete(n: int, r: int, edge_cap: int = DEFAULT_EDGE_CAP) -> Hypergraph:
    """All r-subsets of n vertices."""
    if r < 1 or n < r:
        raise ValueError(f"need n >= r >= 1, got n={n}, r={r}")
    if comb(n, r) > edge_cap:
        raise EdgeCapExceeded(f"complete hypergraph needs {comb(n, r)} edges, above the cap of {edge_cap}")
    return Hypergraph(r, n, frozenset(combinations(range(n), r)))


class _SigmaFields(NamedTuple):
    n: int
    r: int
    q: int
    edge_types: PatternSet


class SigmaHypergraph(_SigmaFields):
    """Implicit class-structured hypergraph: n classes of q vertices.

    An r-subset is an edge exactly when the partition formed by its non-zero
    class-intersection sizes is one of the allowed edge types.  Vertex v
    belongs to class v // q (block layout), so nothing beyond (n, r, q, types)
    needs storing.  Types that no edge can realise (more parts than classes,
    or a part larger than q) are legal but flagged by unrealizable_types.
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int, q: int, edge_types: PatternSet) -> "SigmaHypergraph":
        if n < 1 or q < 1 or r < 1:
            raise ValueError("n, r and q must be positive")
        if edge_types.r != r:
            raise ValueError(f"edge types are partitions of {edge_types.r}, expected {r}")
        return super().__new__(cls, n, r, q, edge_types)

    @classmethod
    def _make(cls, fields: Iterable) -> "SigmaHypergraph":
        """Build through the checks, so ``_replace`` keeps them too."""
        return cls(*fields)

    @property
    def vertex_count(self) -> int:
        return self.n * self.q

    def class_of(self, v: int) -> int:
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} outside [0, {self.vertex_count})")
        return v // self.q

    def class_vertices(self, i: int) -> range:
        return range(i * self.q, (i + 1) * self.q)

    def realizable_types(self) -> PatternSet:
        return PatternSet(
            self.r,
            frozenset(t for t in self.edge_types.members if len(t) <= self.n and t[0] <= self.q),
        )

    def unrealizable_types(self) -> PatternSet:
        return PatternSet(self.r, self.edge_types.members - self.realizable_types().members)

    def key(self) -> dict:
        return {"n": self.n, "r": self.r, "q": self.q, "Sigma": self.edge_types.to_json()}


def edge_type(s: SigmaHypergraph, edge: Iterable[int]) -> Partition:
    """Partition of r formed by the non-zero class-intersection sizes."""
    verts = tuple(edge)
    if len(verts) != s.r or len(set(verts)) != s.r:
        raise ValueError(f"edge {list(verts)} is not a set of {s.r} distinct vertices")
    return as_partition(Counter(map(s.class_of, verts)).values())


def _sigma_edge_count(s: SigmaHypergraph) -> int:
    # Ordered class choices, divided by the orders of equal parts, times the
    # vertex choices within each class.
    return sum(
        perm(s.n, len(t)) // prod(map(factorial, Counter(t).values())) * prod(comb(s.q, a) for a in t)
        for t in s.realizable_types()
    )


def _class_placements(t: Partition, n: int, taken: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Distinct classes for the parts of t, equal parts taking increasing classes."""
    i = len(taken)
    if i == len(t):
        yield taken
        return
    start = taken[-1] + 1 if i and t[i - 1] == t[i] else 0
    for cls in range(start, n):
        if cls not in taken:
            yield from _class_placements(t, n, taken + (cls,))


def build_sigma_explicit(s: SigmaHypergraph, edge_cap: int = DEFAULT_EDGE_CAP) -> Hypergraph:
    """Materialise every edge of a class-structured hypergraph.

    Enumeration is canonical (equal-size parts are assigned to strictly
    increasing class indices), so each edge is produced exactly once and no
    dedup pass is needed.
    """
    count = _sigma_edge_count(s)
    if count > edge_cap:
        raise EdgeCapExceeded(
            f"explicit construction needs {count} edges, above the cap of {edge_cap}; "
            "use the implicit engine instead"
        )
    edges = [
        tuple(sorted(chain.from_iterable(picks)))
        for t in s.realizable_types()
        for classes in _class_placements(t, s.n)
        for picks in product(*(combinations(s.class_vertices(c), a) for c, a in zip(classes, t)))
    ]
    return Hypergraph(s.r, s.vertex_count, frozenset(edges))


def build_grid(
    rows: int,
    cols: int,
    cell_size: int,
    row_patterns: PatternSet,
    col_patterns: PatternSet,
    r: int,
    edge_cap: int = DEFAULT_EDGE_CAP,
) -> Hypergraph:
    """Grid of rows x cols cells, each holding cell_size vertices.

    An r-subset is an edge iff the partition of its non-empty row
    intersections is in row_patterns and likewise for columns.  Cells are laid
    out row-major: vertex v sits in cell v // cell_size, which is at
    (cell // cols, cell % cols).
    """
    if rows < 1 or cols < 1 or cell_size < 1 or r < 1:
        raise ValueError("rows, cols, cell_size and r must be positive")
    n = rows * cols * cell_size
    if n < r:
        raise ValueError(f"grid has {n} vertices, fewer than r={r}")
    if row_patterns.r != r or col_patterns.r != r:
        raise ValueError("row and column pattern sets must be partitions of r")
    if comb(n, r) > edge_cap:
        raise EdgeCapExceeded(f"grid filter would scan {comb(n, r)} subsets, above the cap of {edge_cap}")
    edges = [
        subset
        for subset in combinations(range(n), r)
        if as_partition(Counter(v // cell_size // cols for v in subset).values()) in row_patterns
        and as_partition(Counter(v // cell_size % cols for v in subset).values()) in col_patterns
    ]
    return Hypergraph(r, n, frozenset(edges))


def build_ramsey(n: int, r: int, p: int, edge_cap: int = DEFAULT_EDGE_CAP) -> Hypergraph:
    """Bundle hypergraph for Ramsey-style colouring checks.

    Vertices are the r-subsets of an n-set (in lexicographic order); each
    p-subset of the n-set contributes one edge consisting of all its
    r-subsets, so the result is C(p,r)-uniform with C(n,p) edges.
    """
    if r < 1 or p <= r:
        raise ValueError(f"need p >= r+1 >= 2, got r={r}, p={p}")
    if n < p:
        raise ValueError(f"need n >= p, got n={n}, p={p}")
    if comb(n, p) > edge_cap:
        raise EdgeCapExceeded(f"bundle hypergraph needs {comb(n, p)} edges, above the cap of {edge_cap}")
    index = {c: i for i, c in enumerate(combinations(range(n), r))}
    edges = []
    for pset in combinations(range(n), p):
        edges.append(tuple(sorted(index[c] for c in combinations(pset, r))))
    return Hypergraph(comb(p, r), comb(n, r), frozenset(edges))


def write_hypergraph(h: Hypergraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(h.to_json_dict(), fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def parse_hypergraph(raw: str | bytes, source: str) -> Hypergraph:
    """The hypergraph in a JSON document; every error names ``source``, the file it came from."""
    data = load_json(raw, source)
    if not isinstance(data, dict):
        raise ValueError(f"{source}: expected a JSON object at top level")
    for field in ("r", "vertices", "edges"):
        if field not in data:
            raise ValueError(f"{source}: missing field {field!r}")
    r, vertex_count, raw_edges = data["r"], data["vertices"], data["edges"]
    if type(r) is not int or type(vertex_count) is not int or not isinstance(raw_edges, list):
        raise ValueError(f"{source}: fields 'r'/'vertices' must be integers and 'edges' a list")
    for i, e in enumerate(raw_edges):
        if not isinstance(e, list) or not all(type(v) is int for v in e):
            raise ValueError(f"{source}: edge #{i} is not a list of integers")
    try:
        h = make_hypergraph(r, vertex_count, raw_edges)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from exc
    if len(raw_edges) > len(h.edges):
        warnings.warn(f"{source}: dropped {len(raw_edges) - len(h.edges)} duplicate edge(s)", stacklevel=2)
    return h


def read_hypergraph(path: str) -> Hypergraph:
    with open(path, "rb") as fh:
        return parse_hypergraph(fh.read(), path)
