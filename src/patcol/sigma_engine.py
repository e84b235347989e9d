"""Distribution-level colouring engine for class-structured hypergraphs.

Validity of a colouring of a class-structured hypergraph depends only on how
many vertices of each colour sit in each class, never on which vertices.  The
engine therefore searches over per-class colour-count vectors (distribution
matrices) instead of vertex assignments, which keeps instances with large
classes tractable without ever materialising edges.

Colour labels are quotiented out: matrices are canonicalised by sorting
colour columns in descending lexicographic order, which realises the ordering
"first class of appearance, then count in that class descending".  The search
groups colours by their placed columns, with the colours no class uses yet as
one more group, and within a group assigns counts non-increasingly along
ascending colour indices, so each colour-relabelling class is enumerated
essentially once.

One row check decides every forbidden-pattern question: it tests each edge
placement with one part drawn from the newest class row and the other parts
from older rows, which were tested when they were newest, so checking rows in
order covers every placement.  ``dist_valid`` turns its first hit into a
witness and ``realizable_patterns`` collects its hits.  The search checks each
prefix of a row as it builds it (forward checking): counts are assigned once,
so a draw from a prefix is a draw from every completion.  When a colour gets
its count, the draws holding it and another colour are tested, so each
multi-colour draw is tested once, at its last colour; per-colour count caps,
from the single-colour draws that force a violation, rule out the rest.  No
row is generated that allows a dead draw, of a part of a realizable type,
whose pattern no allowed pattern dominates: other parts only add counts, so
every edge taking the draw is forbidden and no valid matrix holds the row.
So is every edge holding a placement of a sub-type (a proper sub-multiset
of two or more parts of a type) whose pattern no allowed pattern dominates;
sub-types are placed only where some pattern of their size is dead.  A dead
draw (1^j) leaves each row at most j - 1 colours, so later rows add fewer.

One search serves a whole set of target colour counts: rows are enumerated
the same way whatever the target, which only caps the number of fresh
colours, so a spectrum is one pass that prunes a branch only when no target
still open is reachable from it.  A structure with no realizable type has no
edge, so ``sigma_spectrum`` gives it every count without a search.

The decision searches (``sigma_exists_k``, ``sigma_search``) search capped
rows: an edge takes at most A vertices of a class, A the largest part of a
realizable type, so validity depends only on counts capped at A.  A capped
row has counts in 1..A and sums to q or holds an A; a witness adds the slack
to its first colour holding A.  They also quotient class order, canonical on
capped rows, since permuting classes maps valid matrices to valid ones with
the same k.  Rows come sorted by count multiset and, within a run of equal
multisets, lex-descending as dense count vectors (double-lex order).  Every
orbit has such a column-canonical member: row multisets survive column
permutations, and sorting a run's rows or sorting the columns only raises
the row-major flattening, so alternating the two sorts ends in a matrix
ordered both ways.  ``enumerate_valid_distributions`` keeps full rows and
class order, so it lists each valid matrix once, with its exact counts.
"""
from __future__ import annotations

from itertools import combinations
from typing import AbstractSet, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .budget import Deadline, Spectrum, _Ticker, check_targets, collect_spectrum, recursion_room
from .hypergraph import SigmaHypergraph
from .partitions import Partition, PatternSet, bounded_partitions, dominates, iter_partitions

# One class row in canonical form: ((colour, count), ...), colours ascending,
# counts positive.  Draws from a row use the same form.
Row = tuple[tuple[int, int], ...]

# The draws of size a from a row are cached only when they are provably
# few: their number is at most the product of min(count, a) + 1 over the
# row's colours (every vector of takes), which must be at most this.
# Longer lists are generated lazily and never stored, so a placement that
# stops at its first forbidden hit stops building draws too.  Row prefixes
# take the same rule.  perfbench, seed 2, medians of 3 interleaved runs
# (CPython 3.11, 2-vCPU Xeon VM, scaled to its reference speed): caching no
# list takes `sigma-grid` from 0.32 to 0.41 s and `sigma-tight` from 0.041
# to 0.052 s; caching every list is no faster on either and takes
# `sigma-tight`'s peak RSS from 17.89 to 18.04 MB.
_CACHED_DRAWS_MAX = 16


class DistributionMatrix(NamedTuple):
    """Per-class colour multiplicities, canonical under colour relabelling."""

    n: int
    q: int
    k: int
    counts: tuple[tuple[int, ...], ...]  # n rows, k columns

    @classmethod
    def from_rows(cls, n: int, q: int, rows: Sequence[Mapping[int, int] | Row]) -> "DistributionMatrix":
        """Canonical matrix from class rows given as colour -> count maps or as Rows."""
        if len(rows) != n:
            raise ValueError(f"expected {n} class rows, got {len(rows)}")
        rows = [dict(row) for row in rows]
        colours = sorted({c for row in rows for c, v in row.items() if v > 0})
        for row in rows:
            if sum(row.values()) != q:
                raise ValueError(f"class row {dict(row)} does not sum to q={q}")
            if any(v < 0 for v in row.values()):
                raise ValueError("colour counts must be non-negative")
        remap = {c: i for i, c in enumerate(colours)}
        k = len(colours)
        dense = [[0] * k for _ in range(n)]
        for i, row in enumerate(rows):
            for c, v in row.items():
                if v > 0:
                    dense[i][remap[c]] = v
        # Canonical colour order: columns sorted descending lexicographically,
        # i.e. by first class of appearance, then count there descending.
        cols = sorted((tuple(dense[i][j] for i in range(n)) for j in range(k)), reverse=True)
        counts = tuple(tuple(col[i] for col in cols) for i in range(n))
        return cls(n, q, k, counts)

    def rows(self) -> list[Row]:
        return [tuple((j, v) for j, v in enumerate(row) if v > 0) for row in self.counts]

    def colour_totals(self) -> tuple[int, ...]:
        return tuple(sum(row[j] for row in self.counts) for j in range(self.k))


def cdmc(s: SigmaHypergraph) -> DistributionMatrix:
    """Each class monochromatic in its own colour."""
    return DistributionMatrix.from_rows(s.n, s.q, [{i: s.q} for i in range(s.n)])


def _sub_multisets(row: Row, a: int) -> Iterator[Row]:
    """All colour sub-multisets of size a of one row, larger takes of earlier colours first.

    The take vectors come in descending lex order: the first fills colours
    greedily left to right, and each next one decrements the rightmost take
    whose remainder (plus the one taken off) still fits in the colours to its
    right, then refills those greedily.  Every vector visited is yielded, so
    a caller that stops early stops the work too.
    """
    colours = [c for c, _ in row]
    avail = [v for _, v in row]
    m = len(row)
    room = [0] * (m + 1)  # room[i]: how much colours i.. can hold together
    for i in range(m - 1, -1, -1):
        room[i] = room[i + 1] + avail[i]
    if a > room[0]:
        return
    takes = [0] * m
    acc: list[tuple[int, int]] = []  # the non-zero takes, as the draw lists them
    i, left = 0, a
    while True:
        while left:
            takes[i] = t = min(avail[i], left)
            acc.append((colours[i], t))
            left -= t
            i += 1
        yield tuple(acc)
        j = i - 1  # takes past the last fill are all zero
        while j >= 0 and (takes[j] == 0 or left + 1 > room[j + 1]):
            if takes[j]:
                left += takes[j]
                takes[j] = 0
                acc.pop()
            j -= 1
        if j < 0:
            return
        takes[j] = t = takes[j] - 1
        acc.pop()
        if t:
            acc.append((colours[j], t))
        i, left = j + 1, left + 1


class ForbiddenWitness(NamedTuple):
    """An achievable pattern outside the allowed set, with how to achieve it.

    Parts are listed newest class first: the part drawn from the highest
    class of the placement, then the other parts of the edge type in order.
    """

    pattern: Partition
    edge_type: Partition
    part_classes: tuple[int, ...]
    picks: tuple[Row, ...]  # per part: ((colour, count), ...)


class _Search:
    """The state of one search and the tables built once for it.

    ``rows`` are the placed class rows, which a caller appends and pops;
    ``candidate_rows`` keeps the row it builds last while it runs.  Every
    placement and every count multiset read ticks the one ticker.  No row is
    generated that allows a draw in ``row_forbidden``, the minimal dead draws:
    the pattern of an edge taking one dominates it, so is not allowed.
    """

    def __init__(
        self,
        q: int,
        sigma_types: Sequence[Partition],
        allowed_members: AbstractSet[Partition],
        deadline: Deadline | None = None,
        row_forbidden: Sequence[Partition] = (),
    ):
        self.rows: list[Row] = []
        self.q = q
        self.allowed = allowed_members
        self.ticker = _Ticker(deadline, stride=256)
        self.draw_cache: dict[tuple[Row, int], list[Row]] = {}
        # (edge type, part, other parts) for each distinct part of each type;
        # the ban probes are the same splits by part ascending.
        self.splits = [
            (sigma, a, sigma[:i] + sigma[i + 1 :])
            for sigma in sigma_types
            for i, a in enumerate(sigma)
            if a not in sigma[:i]
        ]
        self.ban_probes = [(a, rest) for _, a, rest in sorted(self.splits, key=lambda split: split[1])]
        self.row_forbidden = row_forbidden

    def draws(self, row: Row, a: int) -> Iterable[Row]:
        """The draws of size a from row, in ``_sub_multisets`` order; iterate them once."""
        key = (row, a)
        hit = self.draw_cache.get(key)
        if hit is not None:
            return hit
        bound = 1
        for _, v in row:
            bound *= min(v, a) + 1
            if bound > _CACHED_DRAWS_MAX:
                return _sub_multisets(row, a)
        hit = self.draw_cache[key] = list(_sub_multisets(row, a))
        return hit

    def place(
        self, parts: Partition, idx: int, limit: int, taken: int, prev: int, totals: dict[int, int]
    ) -> tuple[Partition, list[tuple[int, Row]]] | None:
        """Assign parts[idx:] to distinct classes below limit and draw colours for each.

        ``taken`` is a bitmask of the classes in use and ``prev`` the class of
        the previous part.  Returns the first (pattern, placement of
        parts[idx:]) whose pattern is forbidden, or None.
        """
        self.ticker.tick()
        if idx == len(parts):
            pattern = tuple(sorted(totals.values(), reverse=True))
            return None if pattern in self.allowed else (pattern, [])
        a = parts[idx]
        # Equal parts take strictly increasing classes.
        start = prev + 1 if idx > 0 and parts[idx - 1] == a else 0
        rows = self.rows
        for cls in range(start, limit):
            if taken >> cls & 1:
                continue
            for draw in self.draws(rows[cls], a):
                for c, v in draw:
                    totals[c] = totals.get(c, 0) + v
                hit = self.place(parts, idx + 1, limit, taken | 1 << cls, cls, totals)
                for c, v in draw:
                    totals[c] -= v
                    if totals[c] == 0:
                        del totals[c]
                if hit is not None:
                    return hit[0], [(cls, draw), *hit[1]]
        return None

    def newest_row_violation(self, prefix: bool = False) -> tuple[Partition, Partition, list[tuple[int, Row]]] | None:
        """The first placement with one part drawn from the newest class whose pattern is forbidden.

        Returns (edge type, pattern, placement), the placement starting with
        the newest class's draw, or None.  Placements entirely inside older
        classes were checked when those classes were newest, so appending
        rows one at a time and checking each keeps full coverage.  With
        ``prefix`` the row's first colour got its count last, and only draws
        holding it and another colour are tested; ``draws`` lists them first.
        """
        last = len(self.rows) - 1
        row = self.rows[last]
        for sigma, a, rest in self.splits:
            if len(rest) > last:
                continue
            for draw in self.draws(row, a):
                if prefix and draw[0][0] != row[0][0]:
                    break  # the first colour's take has fallen to zero for good
                if prefix and len(draw) == 1:
                    continue
                hit = self.place(rest, 0, last, 0, -1, dict(draw))
                if hit is not None:
                    return sigma, hit[0], [(last, draw), *hit[1]]
        return None

    def ban_threshold(self, colour: int) -> int:
        """Smallest count a for which a pure draw of colour forces a violation.

        If the next class gives colour at least this count, some edge taking a
        whole part of that colour from it (other parts from placed classes)
        has a forbidden pattern, so larger counts need not be enumerated.
        Returns q+1 when no pure-draw violation exists.
        """
        placed = len(self.rows)
        for a, rest in self.ban_probes:
            if len(rest) <= placed and self.place(rest, 0, placed, 0, -1, {colour: a}) is not None:
                return a
        return self.q + 1

    def candidate_rows(
        self, used: int, max_fresh: int, first: Partition | None, cap: int
    ) -> Iterator[tuple[Row, int, Partition]]:
        """Canonical next-class rows, as (row, colours used after this row, its count multiset).

        Rows are enumerated as a count multiset (a partition of q capped at
        ``cap``, largest-first, so monochromatic reuse comes first) followed
        by an assignment of counts to colours.  The colours are grouped: used
        colours by their placed column, then up to max_fresh fresh colours as
        the last group.  Within a group counts go to ascending colour indices,
        so they fall along it because parts come largest first, and
        per-colour caps derived from single-colour draw violations (q or
        below ``cap``) cut reuse early.  Only multisets within those bounds
        are generated: at most one count per colour available, none above the
        largest cap, and none dominating a dead draw.

        With ``first`` None no class order is imposed.  Otherwise ``first``
        is the last placed row's multiset and classes come in canonical order:
        only multisets lex-at-most ``first``, and a row with multiset ``first``
        may not exceed the last row as a dense count vector in lex order.
        """
        q = self.q
        columns = [[0] * len(self.rows) for _ in range(used)]
        for i, row in enumerate(self.rows):
            for c, v in row:
                columns[c][i] = v
        by_column: dict[tuple[int, ...], list[int]] = {}
        for c in range(used):
            by_column.setdefault(tuple(columns[c]), []).append(c)
        ncol = used + min(max_fresh, q)
        groups: list[Sequence[int]] = list(by_column.values())  # in order of first colour
        if ncol > used:
            groups.append(range(used, ncol))
        caps = [min(q, self.ban_threshold(g[0]) - 1) for g in groups]
        ngroups = len(groups)
        room = [len(g) for g in groups]
        # The row being built, dense over every colour it may use; the last
        # placed row in the same form when the lex order applies.
        xs = [0] * ncol
        prev = None
        if first is not None:
            prev = [0] * ncol
            for c, v in self.rows[-1]:
                prev[c] = v
        rows = self.rows
        rows.append(())  # the row being built: its prefixes, newest colour first, then the row

        def assign(parts: Partition, pi: int, prev_target: int, tie: bool, built: Row) -> Iterator[Row]:
            if pi == len(parts):
                rows[-1] = row = tuple((c, v) for c, v in enumerate(xs) if v)
                yield row
                return
            v = parts[pi]
            # Equal parts take non-decreasing targets, killing permuted repeats.
            start = prev_target if pi > 0 and parts[pi - 1] == v else 0
            for target in range(start, ngroups):
                if room[target] == 0 or v > caps[target]:
                    continue
                c = groups[target][-room[target]]
                xs[c] = v
                # Unplaced counts only raise xs, so once it exceeds prev the row will.
                if not (tie and xs > prev):
                    rows[-1] = grown = ((c, v), *built)
                    if not (pi and self.newest_row_violation(prefix=True)):
                        room[target] -= 1
                        yield from assign(parts, pi + 1, target, tie, grown)
                        room[target] += 1
                xs[c] = 0

        # Every count needs its own colour, and none may exceed every cap; a
        # first part of cap in ``first`` stands for any lead from cap up.
        top = max(caps) if first is None or first[0] == cap else min(max(caps), first[0])
        for lam in bounded_partitions(q, ncol, top, self.row_forbidden, cap):
            self.ticker.tick()
            if first is not None and lam > first:
                continue
            for row in assign(lam, 0, 0, lam == first, ()):
                yield row, max(used, row[-1][0] + 1), lam
        rows.pop()


def realizable_patterns(d: DistributionMatrix, edge_types: PatternSet) -> PatternSet:
    """Every colour pattern achievable by some edge under distribution d.

    Rows are appended one at a time; each pattern the newest row can achieve
    joins the allowed set, until that row achieves no pattern not yet found.
    """
    found: set[Partition] = set()
    search = _Search(d.q, list(edge_types), found)
    for row in d.rows():
        search.rows.append(row)
        while (hit := search.newest_row_violation()) is not None:
            found.add(hit[1])
    return PatternSet(edge_types.r, frozenset(found))


class DistValidity(NamedTuple):
    ok: bool
    witness: ForbiddenWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


def dist_valid(d: DistributionMatrix, edge_types: PatternSet, allowed: PatternSet) -> DistValidity:
    """Valid iff every achievable pattern is allowed; else one witness."""
    if allowed.r != edge_types.r:
        raise ValueError(f"allowed patterns are over r={allowed.r}, edge types over r={edge_types.r}")
    search = _Search(d.q, list(edge_types), allowed.members)
    for row in d.rows():
        search.rows.append(row)
        hit = search.newest_row_violation()
        if hit is not None:
            sigma, pattern, placement = hit
            classes, picks = zip(*placement)
            return DistValidity(False, ForbiddenWitness(pattern, sigma, classes, picks))
    return DistValidity(True)


def _search_distributions(
    s: SigmaHypergraph, allowed: PatternSet, targets: set[int], deadline: Deadline | None, *, sort_classes: bool
) -> Iterator[DistributionMatrix]:
    """Depth-first generator of valid distributions whose colour count is a target.

    ``targets`` is read at every node, so a caller may discard counts between
    yields: a branch is pruned once no count still in it is reachable.  With
    ``sort_classes`` only class orders canonical under class permutation are
    searched (see the module docstring); without it every class order is.
    """
    check_targets(s, allowed, targets)
    n, q = s.n, s.q
    sigma_types = list(s.realizable_types())  # largest first
    parts = {a for sigma in sigma_types for a in sigma}
    subs = {t for sigma in sigma_types for m in range(2, len(sigma)) for t in combinations(sigma, m)}
    # A pattern of a part or sub-type size is alive when some allowed pattern dominates it, else dead.
    sizes = parts | {sum(t) for t in subs}
    alive = {p for m in sizes for p in iter_partitions(m) if any(dominates(w, p) for w in allowed.members)}
    # The minimal dead draws of the parts (see _Search), and the sub-types of a size with a dead pattern.
    dead = {p for a in parts for p in iter_partitions(a) if p not in alive}
    row_forbidden = sorted(p for p in dead if not any(o != p and dominates(p, o) for o in dead))
    subs = sorted((t for t in subs if not alive.issuperset(iter_partitions(sum(t)))), reverse=True)
    # A row holding a dead draw (1^j) has at most j - 1 colours.
    width = next((len(p) - 1 for p in row_forbidden if p[0] == 1), q)
    cap = max(parts, default=q) if sort_classes else q
    search = _Search(q, sigma_types + subs, allowed.members | alive, deadline, row_forbidden)
    rows = search.rows

    def full(row: Row) -> dict[int, int]:
        # A capped row's slack goes to its first colour holding cap.
        counts = dict(row)
        if slack := q - sum(counts.values()):
            counts[next(c for c, v in row if v == cap)] += slack
        return counts

    def rec(ci: int, used: int, first: Partition | None) -> Iterator[DistributionMatrix]:
        search.ticker.tick()
        if ci == n:
            if used in targets:
                yield DistributionMatrix.from_rows(n, q, [full(row) for row in rows])
            return
        # Later rows are lex-at-most ``first``: if it is all ones, no longer.
        reach = used + (n - ci) * (len(first) if first and first[0] == 1 else width)
        if not any(used <= t <= reach for t in targets):
            return
        for _, new_used, lam in search.candidate_rows(used, max(targets) - used, first, cap):
            yield from rec(ci + 1, new_used, lam if sort_classes else None)

    # One level per class, below it the row generators' (up to q deep).
    with recursion_room(n + q + s.r):
        yield from rec(0, 0, None)


def sigma_exists_k(
    s: SigmaHypergraph, allowed: PatternSet, k: int, deadline: Deadline | None = None
) -> DistributionMatrix | None:
    """Canonical valid distribution with exactly k colours, or None.

    Agrees with the explicit engine's search wherever both run; raises
    BudgetExceeded when the deadline passes before a decision.
    """
    return next(_search_distributions(s, allowed, {k}, deadline, sort_classes=True), None)


def sigma_search(
    s: SigmaHypergraph,
    allowed: PatternSet,
    targets: set[int],
    found: Callable[[DistributionMatrix], bool],
    deadline: Deadline | None = None,
) -> DistributionMatrix | None:
    """The distribution engine under the contract of ``colouring.search_colourings``."""
    return next((m for m in _search_distributions(s, allowed, targets, deadline, sort_classes=True) if found(m)), None)


def sigma_spectrum(
    s: SigmaHypergraph, allowed: PatternSet, k_max: int | None = None, budget_s: float | None = None
) -> Spectrum:
    """Feasible colour counts via the distribution engine, in one search.

    See ``budget.collect_spectrum`` for the budget.
    """
    return collect_spectrum(sigma_search if s.realizable_types().members else None, s, allowed, k_max, budget_s)


def enumerate_valid_distributions(
    s: SigmaHypergraph, allowed: PatternSet, k: int, deadline: Deadline | None = None
) -> Iterator[DistributionMatrix]:
    """All valid exactly-k distributions, canonical, each exactly once.

    Yields in the engine's deterministic search order.  The search never
    reaches one colour-relabelling orbit twice: class order is fixed, and
    once the rows of classes 0..i-1 are placed, the relabellings that keep
    them fixed are exactly the permutations within each group of colours
    with identical placed columns (the unused colours share the all-zero
    column).  Row i gives each group counts that do not increase along
    ascending colour indices, and each count multiset is assigned to the
    groups once (equal counts take non-decreasing groups), so given rows
    0..i-1 each orbit has exactly one row i.  A deadline overrun raises
    BudgetExceeded after whatever partial output was produced.
    """
    return _search_distributions(s, allowed, {k}, deadline, sort_classes=False)
