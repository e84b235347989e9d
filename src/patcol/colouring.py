"""Vertex colourings of explicit hypergraphs and the exact search engine.

A colouring with k colours must use every colour at least once (surjective):
spectra are only meaningful under exact colour counts, since under "at most k"
semantics a missing middle value could never occur.

The search is backtracking with a dynamic vertex order (DSATUR, Brélaz
1979): each node branches on the uncoloured vertex with the fewest colours
left, ties broken by higher degree, then lower index.  A vertex may take
colour c only if colours 0..c-1 are already in use (canonical colour
introduction), and colours are tried in increasing order.

Each edge is held as an interned state, the sorted tuple of its non-zero
colour counts, with a transition table, so no pattern is re-sorted on the
hot path.  The table depends only on r, the allowed set and the most parts a
usable pattern has, and a bounded cache keyed on these three shares it
between searches.  A partially coloured edge survives only if some usable
allowed pattern dominates its counts; a complete edge only if its pattern is
allowed.  Forward checking (Haralick & Elliott 1980) keeps every vertex's
colour domain: after each assignment the colours that would kill an edge are
removed from the uncoloured neighbours' domains, and an empty domain is a
dead end.  Colouring the last vertex of an edge leaves the edge's state as it
was: that vertex's domain already holds only colours completing an allowed
pattern, and no later node reads a complete edge.

One search serves a set of target colour counts, as in the distribution
engine: it branches on colours below min(used+1, largest open target) and
reports each colouring whose count is still open, so a spectrum is one search
and each refutation is shared by every count.  A single k is the target set
{k}.  Domains only shrink, and each colour still to open needs its own
uncoloured vertex that can take the fresh colour now, so a branch is cut
when too few such vertices are left to reach the smallest open target, or
when none is left and its colour count is no target.

The returned witness is the first valid assignment found in this dynamic
order; the contract is that repeated runs always return the identical
witness.
"""
from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, NamedTuple

from .budget import Deadline, Spectrum, _Ticker, check_targets, collect_spectrum, recursion_room
from .hypergraph import Hypergraph
from .partitions import Partition, PatternSet, dominates, enumerate_partitions, monochromatic


class Colouring(NamedTuple):
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
    cols = c.colours
    counts: dict[int, int] = {}
    for v in edge:
        counts[cols[v]] = counts.get(cols[v], 0) + 1
    # Counts are positive ints: as_partition's input checks would only slow
    # this per-edge path down.
    return tuple(sorted(counts.values(), reverse=True))


class ValidityReport(NamedTuple):
    ok: bool
    violating_edge: tuple[int, ...] | None = None
    violating_pattern: Partition | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_valid(h: Hypergraph, c: Colouring, allowed: PatternSet) -> ValidityReport:
    """Check every edge's pattern against the allowed set.

    The reported witness is the first violating edge in sorted edge order.
    """
    check_targets(h, allowed, ())
    if len(c.colours) != h.vertex_count:
        raise ValueError(f"colouring covers {len(c.colours)} vertices, hypergraph has {h.vertex_count}")
    for e in h.sorted_edges():
        p = pat(e, c)
        if p not in allowed:
            return ValidityReport(False, e, p)
    return ValidityReport(True)


@lru_cache(maxsize=256)
def _edge_states(r: int, members: frozenset[Partition], parts: int):
    """Interned states of r-uniform edges under the allowed patterns of at most ``parts`` parts.

    sigs[s] is the non-increasing tuple of an edge's non-zero colour counts
    (state 0 is the empty edge); step[s][x] is the state after one of those
    counts goes from x to x+1 (-1 until first needed); alive[s] tells whether
    an edge in state s can still end in a usable pattern (exact membership
    once complete); closing[s] whether it lacks exactly one vertex.  fits[s]
    is the bitmask of the counts x whose increment keeps the edge alive, -1
    when every increment does (nothing to prune), None until first needed.
    The tables fill lazily and depend only on the key.
    """
    usable = [p for p in members if len(p) <= parts]
    sigs: list[Partition] = []
    index: dict[Partition, int] = {}
    step: list[list[int]] = []
    alive: list[bool] = []
    fits: list[int | None] = []
    closing: list[bool] = []

    def intern(sig: Partition) -> int:
        s = index.get(sig)
        if s is None:
            s = index[sig] = len(sigs)
            sigs.append(sig)
            step.append([-1] * r)
            filled = sum(sig)
            alive.append(sig in members if filled == r else any(dominates(p, sig) for p in usable))
            fits.append(None)
            closing.append(filled == r - 1)
        return s

    def advance(s: int, x: int) -> int:
        t = step[s][x]
        if t < 0:
            sig = list(sigs[s])
            if x:
                sig.remove(x)
            sig.append(x + 1)
            sig.sort(reverse=True)
            t = step[s][x] = intern(tuple(sig))
        return t

    def fit(s: int) -> int:
        present = {0, *sigs[s]}
        f = sum(1 << x for x in present if alive[advance(s, x)])
        fits[s] = f = -1 if f == sum(1 << x for x in present) else f
        return f

    intern(())
    return step, fits, closing, advance, fit


def search_colourings(
    h: Hypergraph,
    allowed: PatternSet,
    targets: set[int],
    found: Callable[[Colouring], bool],
    deadline: Deadline | None = None,
) -> Colouring | None:
    """One search for valid surjective colourings whose colour count is a target.

    Each colouring found whose count is still in ``targets`` goes to
    ``found``, which may discard counts from ``targets`` (the search reads
    them again after each call) and returns True to stop the search.  Returns
    the colouring that stopped it, or None once the search is exhausted.
    Raises BudgetExceeded if the deadline runs out first.
    """
    check_targets(h, allowed, targets)
    if not targets:
        return None
    lo, hi = min(targets), max(targets)
    # Searches whose hi differs only above this share their edge states.
    parts = max((len(p) for p in allowed if len(p) <= hi), default=0)
    if h.edges and not parts:
        return None
    nv = h.vertex_count
    step, fits, closing, advance, fit = _edge_states(h.r, allowed.members, parts)
    edges = list(h.edges)
    incident: list[list[int]] = [[] for _ in range(nv)]
    for ei, e in enumerate(edges):
        for v in e:
            incident[v].append(ei)
    state = [0] * len(edges)
    width = hi  # edge ei counts colour c at ei * width + c; hi falls as targets close
    counts = [0] * (len(edges) * width)
    colour_of = [-1] * nv
    # Domains: bit c of domain[u] is set while u may take colour c without
    # killing an incident edge; the bits of colours not yet in use are all
    # equal.  A lone coloured vertex always fits some usable pattern, so
    # every domain starts full.
    domain = [(1 << hi) - 1] * nv
    by_degree = sorted(range(nv), key=lambda v: (-len(incident[v]), v))  # DSATUR tie-break
    ticker = _Ticker(deadline, stride=64)

    def search(pos: int, used: int) -> Colouring | None:
        nonlocal lo, hi
        ticker.tick()
        if pos == nv:
            if used not in targets:
                return None
            hit = Colouring.of(tuple(colour_of), used)
            if found(hit) or not targets:
                return hit
            lo, hi = min(targets), max(targets)
            return None
        if used > hi or lo - used > nv - pos:
            return None  # no open target is reachable: the bound below implies this, but before the scan
        # Canonical colour introduction: colours 0..used-1, or the fresh `used`.
        open_ = (1 << min(used + 1, hi)) - 1
        v, best = -1, hi + 1
        fresh = 0  # uncoloured vertices that can still take the fresh colour
        settled = used >= lo and used in targets  # the prune below cannot fire
        for u in by_degree:
            if colour_of[u] < 0:
                d = domain[u]
                fresh += d >> used & 1
                n = (d & open_).bit_count()
                if n < best:
                    v, best = u, n
                    if n <= 1 and settled:  # forward checking leaves no empty domain to find
                        break
        # Domains only shrink, and each colour still to open needs its own
        # such vertex: `fresh` bounds the colours this branch can still open.
        if used + fresh < lo or not fresh and used not in targets:
            return None
        options = domain[v] & open_
        touched = incident[v]
        while options:
            c = (options & -options).bit_length() - 1
            options &= options - 1
            colour_of[v] = c
            now_used = max(used, c + 1)
            now_open = (1 << min(now_used + 1, hi)) - 1
            # Count c on each incident edge that v does not complete (see the
            # module docstring) and forward check it: shrink the domains of
            # its uncoloured vertices; an empty one is a dead end.
            before: list[int] = []
            saved: list[tuple[int, int]] = []
            ok = True
            for ei in touched:
                s = state[ei]
                before.append(s)
                if closing[s]:
                    continue
                base = ei * width
                x = counts[base + c]
                counts[base + c] = x + 1
                t = step[s][x]
                state[ei] = t = t if t >= 0 else advance(s, x)
                f = fits[t]
                if f is None:
                    f = fit(t)
                if f < 0:
                    continue
                # Colours absent from the edge all behave like count 0.
                mask = -1 if f & 1 else 0
                for w in edges[ei]:
                    cw = colour_of[w]
                    if cw >= 0:
                        if f >> counts[base + cw] & 1:
                            mask |= 1 << cw
                        else:
                            mask &= ~(1 << cw)
                for u in edges[ei]:
                    if colour_of[u] < 0:
                        d = domain[u]
                        if d & mask != d:
                            saved.append((u, d))
                            d = domain[u] = d & mask
                            if not d & now_open:
                                ok = False
                                break
                if not ok:
                    break
            if ok and (hit := search(pos + 1, now_used)) is not None:
                return hit
            for u, d in reversed(saved):
                domain[u] = d
            for ei, s in zip(touched, before):
                if not closing[s]:
                    counts[ei * width + c] -= 1
                    state[ei] = s
            colour_of[v] = -1
        return None

    try:
        with recursion_room(nv):
            return search(0, 0)
    finally:
        del search  # it holds itself in its closure cell, a cycle that would keep this state alive until gc


def exists_k_colouring(
    h: Hypergraph, k: int, allowed: PatternSet, deadline: Deadline | None = None
) -> Colouring | None:
    """Find the canonical valid surjective k-colouring, or report none exists.

    The ``{k}`` case of :func:`search_colourings`.  Raises BudgetExceeded if
    the deadline runs out before a decision.
    """
    return search_colourings(h, allowed, {k}, lambda _: True, deadline)


def spectrum(
    h: Hypergraph, allowed: PatternSet, k_max: int | None = None, budget_s: float | None = None
) -> Spectrum:
    """Feasible colour counts up to k_max via the explicit engine, in one search.

    Probing runs to vertex_count by default, which is the only safe general
    bound.  See :func:`budget.collect_spectrum` for the budget.
    """
    return collect_spectrum(search_colourings if h.edges else None, h, allowed, k_max, budget_s)


def classical_chromatic_number(h: Hypergraph, budget_s: float | None = None) -> int:
    """Least k admitting a colouring with no monochromatic edge.

    An edgeless hypergraph has chromatic number 1 by convention.  One budget
    covers the whole k loop; BudgetExceeded escapes if it runs out first.
    """
    if not h.edges:
        return 1
    if h.r == 1:
        raise ValueError("1-uniform hypergraphs with edges admit no proper colouring")
    proper = enumerate_partitions(h.r).without(monochromatic(h.r))
    # Some k is found: at k = vertex_count every edge is rainbow, hence proper.
    ks, deadline = range(1, h.vertex_count + 1), Deadline(budget_s)
    return next(k for k in ks if exists_k_colouring(h, k, proper, deadline=deadline) is not None)
