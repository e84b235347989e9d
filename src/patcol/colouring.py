"""Vertex colourings of explicit hypergraphs and the exact search engine.

A colouring with k colours must use every colour at least once (surjective):
spectra are only meaningful under exact colour counts, since under "at most k"
semantics a missing middle value could never occur.

The search is backtracking over vertices in a static degree-descending order
with canonical colour introduction (vertex may open colour c only if colours
0..c-1 are already in use), a surjectivity bound, and per-edge feasibility
pruning: a partially coloured edge survives only if some allowed pattern can
still dominate its current colour counts.  The returned witness is the first
assignment found in this order, i.e. the lexicographically least valid
assignment along the search's vertex order; the contract is that repeated
runs always return the identical witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .budget import Deadline, _Ticker, probe
from .hypergraph import Hypergraph
from .partitions import Partition, PatternSet, enumerate_partitions, monochromatic


@dataclass(frozen=True)
class Colouring:
    """Assignment vertex index -> colour index in [0, k), using all k colours."""

    colours: tuple[int, ...]
    k: int

    @classmethod
    def of(cls, colours: Iterable[int], k: int | None = None) -> "Colouring":
        cols = tuple(colours)
        if not cols:
            raise ValueError("a colouring needs at least one vertex")
        used = set(cols)
        if k is None:
            k = len(used)
        if used != set(range(k)):
            raise ValueError(f"colours must be exactly 0..{k - 1}, each used at least once; got {sorted(used)}")
        return cls(cols, k)

    def to_json_dict(self) -> dict:
        return {"k": self.k, "colours": list(self.colours)}


def pat(edge: Iterable[int], c: Colouring) -> Partition:
    """Colour pattern of an edge: the non-increasing colour multiplicities."""
    counts: dict[int, int] = {}
    for v in edge:
        counts[c.colours[v]] = counts.get(c.colours[v], 0) + 1
    # Counts are positive ints: as_partition's input checks would only slow
    # this per-edge path down.
    return tuple(sorted(counts.values(), reverse=True))


@dataclass(frozen=True)
class ValidityReport:
    ok: bool
    violating_edge: tuple[int, ...] | None = None
    violating_pattern: Partition | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json_dict(self) -> dict:
        return {
            "valid": self.ok,
            "violating_edge": list(self.violating_edge) if self.violating_edge else None,
            "violating_pattern": list(self.violating_pattern) if self.violating_pattern else None,
        }


def is_valid(h: Hypergraph, c: Colouring, allowed: PatternSet) -> ValidityReport:
    """Check every edge's pattern against the allowed set.

    The reported witness is the first violating edge in sorted edge order.
    """
    if allowed.r != h.r:
        raise ValueError(f"pattern set is over r={allowed.r}, hypergraph is {h.r}-uniform")
    if len(c.colours) != h.vertex_count:
        raise ValueError(f"colouring covers {len(c.colours)} vertices, hypergraph has {h.vertex_count}")
    for e in h.sorted_edges():
        p = pat(e, c)
        if p not in allowed:
            return ValidityReport(False, e, p)
    return ValidityReport(True)


def is_valid_L(
    h: Hypergraph, c: Colouring, constraint: Mapping[tuple[int, ...], PatternSet]
) -> ValidityReport:
    """Per-edge constrained validity: each edge carries its own pattern set."""
    if len(c.colours) != h.vertex_count:
        raise ValueError(f"colouring covers {len(c.colours)} vertices, hypergraph has {h.vertex_count}")
    for e in h.sorted_edges():
        if e not in constraint:
            raise ValueError(f"no pattern set supplied for edge {list(e)}")
        p = pat(e, c)
        if p not in constraint[e]:
            return ValidityReport(False, e, p)
    return ValidityReport(True)


def _dominates(pattern: Partition, counts: tuple[int, ...]) -> bool:
    # Both non-increasing; an injective map of counts into parts that are at
    # least as large exists iff the pairwise comparison holds.
    if len(pattern) < len(counts):
        return False
    return all(pattern[i] >= counts[i] for i in range(len(counts)))


def exists_k_colouring(
    h: Hypergraph, k: int, allowed: PatternSet, deadline: Deadline | None = None
) -> Colouring | None:
    """Find the canonical valid surjective k-colouring, or report none exists.

    Raises BudgetExceeded if the deadline runs out before a decision.
    """
    if allowed.r != h.r:
        raise ValueError(f"pattern set is over r={allowed.r}, hypergraph is {h.r}-uniform")
    nv = h.vertex_count
    if not 1 <= k <= nv:
        raise ValueError(f"need 1 <= k <= {nv}, got k={k}")
    edges = h.sorted_edges()
    if edges:
        usable = [p for p in allowed if len(p) <= k]
        if not usable:
            return None
    else:
        usable = list(allowed)

    deg = h.degrees()
    order = sorted(range(nv), key=lambda v: (-deg[v], v))
    rank = {v: i for i, v in enumerate(order)}
    incident: list[list[int]] = [[] for _ in range(nv)]
    for ei, e in enumerate(edges):
        for v in e:
            incident[v].append(ei)
    # Per edge: colour counts, number of coloured vertices, and the rank at
    # which the edge completes (to pick exact membership vs domination).
    counts = [[0] * k for _ in edges]
    filled = [0] * len(edges)
    colour_of = [-1] * nv
    memo: dict[tuple[int, ...], bool] = {}
    allowed_members = allowed.members
    ticker = _Ticker(deadline, stride=64)

    def edge_ok(ei: int) -> bool:
        sig = tuple(sorted((x for x in counts[ei] if x > 0), reverse=True))
        if filled[ei] == h.r:
            return sig in allowed_members
        hit = memo.get(sig)
        if hit is None:
            hit = any(_dominates(p, sig) for p in usable)
            memo[sig] = hit
        return hit

    def search(pos: int, used: int) -> bool:
        ticker.tick()
        if pos == nv:
            return used == k
        if k - used > nv - pos:
            return False  # not enough vertices left to open the remaining colours
        v = order[pos]
        for c in range(min(used + 1, k)):
            colour_of[v] = c
            ok = True
            touched = incident[v]
            for ei in touched:
                counts[ei][c] += 1
                filled[ei] += 1
            for ei in touched:
                if not edge_ok(ei):
                    ok = False
                    break
            if ok and search(pos + 1, max(used, c + 1)):
                return True
            for ei in touched:
                counts[ei][c] -= 1
                filled[ei] -= 1
            colour_of[v] = -1
        return False

    if search(0, 0):
        return Colouring.of(tuple(colour_of), k)
    return None


def gap_verdict(results: Mapping[int, bool | None]) -> bool | None:
    """Gap call over probed colour counts: feasible True, infeasible False, unknown None.

    A gap needs a count proven infeasible between two feasible ones; without
    one, any unknown count leaves the call unknown, never "no gap".
    """
    feasible = [k for k, f in results.items() if f]
    if feasible and any(results.get(k) is False for k in range(min(feasible) + 1, max(feasible))):
        return True
    return None if None in results.values() else False


@dataclass(frozen=True)
class Spectrum:
    """Feasible colour counts up to probed_max, with unresolved ks kept apart."""

    feasible: tuple[int, ...]
    probed_max: int
    unknown: tuple[int, ...] = ()

    @property
    def chi(self) -> int:
        """Least feasible colour count."""
        if not self.feasible:
            raise ValueError("empty spectrum has no lower chromatic number")
        return self.feasible[0]

    @property
    def chi_bar(self) -> int:
        """Greatest feasible colour count found within the probed range."""
        if not self.feasible:
            raise ValueError("empty spectrum has no upper chromatic number")
        return self.feasible[-1]

    @property
    def gaps(self) -> tuple[int, ...]:
        """Colour counts strictly between chi and chi_bar proven infeasible."""
        if len(self.feasible) < 2:
            return ()
        members = set(self.feasible)
        unresolved = set(self.unknown)
        return tuple(
            j for j in range(self.chi + 1, self.chi_bar) if j not in members and j not in unresolved
        )

    @property
    def gap_status(self) -> str:
        """"gap", "no-gap", or "unknown" when unresolved ks block the call."""
        return {True: "gap", False: "no-gap"}.get(self.has_gap, "unknown")

    @property
    def has_gap(self) -> bool | None:
        # A probed count neither feasible nor unknown was proven infeasible.
        results = dict.fromkeys(range(1, self.probed_max + 1), False)
        return gap_verdict(results | dict.fromkeys(self.unknown) | dict.fromkeys(self.feasible, True))

    def to_json_dict(self) -> dict:
        return {
            "feasible": list(self.feasible),
            "probed_max": self.probed_max,
            "gaps": list(self.gaps),
            "unknown": list(self.unknown),
        }


def spectrum(
    h: Hypergraph, allowed: PatternSet, k_max: int | None = None, budget_s: float | None = None
) -> Spectrum:
    """Probe every colour count up to k_max (default: all of them).

    Each k gets its own budget; an overrun marks that k unknown rather than
    infeasible.  Probing runs to vertex_count by default, which is the only
    safe general bound but costs vertex_count search calls.
    """
    if k_max is None:
        k_max = h.vertex_count
    if not 1 <= k_max <= h.vertex_count:
        raise ValueError(f"need 1 <= k_max <= {h.vertex_count}, got {k_max}")
    found = {k: probe(exists_k_colouring, h, k, allowed, budget_s=budget_s) for k in range(1, k_max + 1)}
    return Spectrum(tuple(k for k, f in found.items() if f), k_max, tuple(k for k, f in found.items() if f is None))


def classical_chromatic_number(h: Hypergraph, budget_s: float | None = None) -> int:
    """Least k admitting a colouring with no monochromatic edge.

    An edgeless hypergraph has chromatic number 1 by convention.
    """
    if not h.edges:
        return 1
    if h.r == 1:
        raise ValueError("1-uniform hypergraphs with edges admit no proper colouring")
    proper = enumerate_partitions(h.r).without(monochromatic(h.r))
    for k in range(1, h.vertex_count + 1):
        if exists_k_colouring(h, k, proper, deadline=Deadline(budget_s)) is not None:
            return k
    raise RuntimeError("no proper colouring found up to vertex_count; this should be impossible")
