"""Integer partition algebra for colour patterns.

A colour pattern of an edge of size r is a partition of r (non-increasing
positive parts).  This module enumerates partitions, computes the closures of
pattern sets under part merging (reduction) and part splitting (expansion),
classifies robustness of pattern sets, and builds the classical named pattern
families (proper, non-monochromatic-non-rainbow, colour-bounded, conflict-free
and friends).
"""
from __future__ import annotations

import json
from typing import Iterable, Iterator, NamedTuple, Sequence

Partition = tuple[int, ...]


def as_partition(parts: Iterable[int]) -> Partition:
    """Canonicalise an iterable of parts to a non-increasing tuple."""
    try:
        t = tuple(parts)
    except TypeError:
        raise ValueError(f"a partition must be a list of parts, got {parts!r}") from None
    if any(type(x) is not int for x in t):
        raise ValueError(f"partition parts must be integers (not booleans, floats or strings), got {list(t)}")
    t = tuple(sorted(t, reverse=True))
    if not t:
        raise ValueError("a partition needs at least one part")
    if t[-1] < 1:
        raise ValueError(f"partition parts must be positive, got {list(t)}")
    return t


def monochromatic(r: int) -> Partition:
    """The single-part partition (r): every vertex the same colour."""
    if r < 1:
        raise ValueError("r must be positive")
    return (r,)


def rainbow(r: int) -> Partition:
    """The all-ones partition (1,...,1): every vertex a distinct colour."""
    if r < 1:
        raise ValueError("r must be positive")
    return (1,) * r


def load_json(raw: str | bytes, source: str):
    """Decode JSON text, or UTF-8 bytes; any failure is one ValueError that names ``source``."""
    try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors; nesting too deep is a RecursionError
        return json.loads(raw.decode("utf-8") if isinstance(raw, bytes) else raw)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{source}: {exc}") from exc


class PatternSet:
    """A set of partitions of a fixed r; immutable and hashable.

    Empty sets are representable: they arise when a pattern is removed from a
    singleton set.  Iteration is always in descending lexicographic order, so
    anything built from an iteration is deterministic.  Not a tuple, since
    iterating yields the members; pickling and copying rebuild it through the
    constructor.
    """

    __slots__ = ("r", "members")

    def __init__(self, r: int, members: frozenset[Partition]) -> None:
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"PatternSet is immutable: cannot set {name!r}")

    def __reduce__(self):
        return self.__class__, (self.r, self.members)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.r == other.r and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.r, self.members))

    def __repr__(self) -> str:
        return f"PatternSet(r={self.r!r}, members={self.members!r})"

    @classmethod
    def of(cls, r: int, parts: Iterable[Iterable[int]]) -> "PatternSet":
        if r < 1:
            raise ValueError("r must be positive")
        members = frozenset(as_partition(p) for p in parts)
        for p in members:
            if sum(p) != r:
                raise ValueError(f"partition {p} does not sum to r={r}")
        return cls(r, members)

    def __iter__(self) -> Iterator[Partition]:
        return iter(sorted(self.members, reverse=True))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: object) -> bool:
        return p in self.members

    def without(self, p: Iterable[int]) -> "PatternSet":
        return PatternSet(self.r, self.members - {as_partition(p)})

    def to_json(self) -> list[list[int]]:
        return [list(p) for p in self]


def iter_partitions(r: int) -> Iterator[Partition]:
    """Yield all partitions of r in descending lexicographic order."""
    if r < 1:
        raise ValueError("r must be positive")
    return bounded_partitions(r, r, r)


def bounded_partitions(
    m: int, max_parts: int, max_val: int, avoid: Sequence[Partition] = (), cap: int = 0
) -> Iterator[Partition]:
    """Partitions of m into at most max_parts parts, each at most max_val, lex-descending.

    With a ``cap``, only those whose later parts are at most cap, in the same
    order, a first part above cap written as cap.  None that dominates a
    member of ``avoid`` is built: each member the first part dominates passes
    its tail to the rest; an empty tail rules it out.
    """
    if m == 0:
        yield ()
        return
    if max_parts <= 0 or max_val <= 0:
        return
    # A first part below ceil(m / max_parts) leaves too much for the rest.
    for first in range(min(m, max_val), -(-m // max_parts) - 1, -1):
        head = min(first, cap) if cap else first
        tails = [p[1:] for p in avoid if head >= p[0]] if avoid else avoid
        if () in tails:
            continue
        for rest in bounded_partitions(m - first, max_parts - 1, head, tails):
            yield (head,) + rest


def dominates(big: Partition, small: Partition) -> bool:
    """Do the parts of small fit injectively into parts of big at least as large?

    Both are non-increasing, so this holds iff big has at least as many parts
    and big[i] >= small[i] for every part of small.
    """
    return len(big) >= len(small) and all(map(int.__ge__, big, small))


def enumerate_partitions(r: int) -> PatternSet:
    """All partitions of r as a pattern set."""
    return PatternSet(r, frozenset(iter_partitions(r)))


def reduce_once(sigma: Partition) -> set[Partition]:
    """All partitions obtained by merging one pair of parts of sigma."""
    out: set[Partition] = set()
    n = len(sigma)
    for i in range(n):
        for j in range(i + 1, n):
            merged = list(sigma[:i]) + list(sigma[i + 1 : j]) + list(sigma[j + 1 :])
            merged.append(sigma[i] + sigma[j])
            out.add(as_partition(merged))
    return out


def expand_once(sigma: Partition) -> set[Partition]:
    """All partitions obtained by splitting one part a >= 2 into (a-1, 1).

    Parts equal to 1 are not expandable: splitting a 1 would create a zero
    part, which is not a partition part.
    """
    out: set[Partition] = set()
    for i, a in enumerate(sigma):
        if a >= 2:
            split = list(sigma[:i]) + list(sigma[i + 1 :]) + [a - 1, 1]
            out.add(as_partition(split))
    return out


def _closure(q: PatternSet, step) -> PatternSet:
    if not q.members:
        raise ValueError("closure of an empty pattern set is undefined")
    seen: set[Partition] = set(q.members)
    frontier = list(q.members)
    while frontier:
        nxt: list[Partition] = []
        for p in frontier:
            for derived in step(p):
                if derived not in seen:
                    seen.add(derived)
                    nxt.append(derived)
        frontier = nxt
    return PatternSet(q.r, frozenset(seen))


def rd_closure(q: PatternSet) -> PatternSet:
    """Reflexive-transitive closure under part merging; always contains (r)."""
    return _closure(q, reduce_once)


def ex_closure(q: PatternSet) -> PatternSet:
    """Reflexive-transitive closure under part splitting; always contains (1,...,1)."""
    return _closure(q, expand_once)


def chain(r: int) -> PatternSet:
    """The expansion closure of (r): {(r),(r-1,1),...,(1,...,1)}."""
    return ex_closure(PatternSet.of(r, [monochromatic(r)]))


class RobustnessReport(NamedTuple):
    reduction_closed: bool
    expansion_closed: bool
    simply_closed: bool

    @property
    def robust(self) -> bool:
        return self.reduction_closed or self.expansion_closed or self.simply_closed

    def to_json(self) -> dict:
        return {**self._asdict(), "robust": self.robust}


def classify_robust(q: PatternSet) -> RobustnessReport:
    """Closure flags of a pattern set.

    Reduction-closed means merging parts of any member stays inside the set,
    expansion-closed likewise for splitting, and simply closed means the set
    contains the whole chain from (r) down to (1,...,1).  A set with any of
    the three properties is robust.
    """
    if not q.members:
        raise ValueError("cannot classify an empty pattern set")
    return RobustnessReport(
        reduction_closed=rd_closure(q).members == q.members,
        expansion_closed=ex_closure(q).members == q.members,
        simply_closed=chain(q.r).members <= q.members,
    )


# Each named family's (low, high) parameter pairs, each needing 1 <= low <= high <= r, and its test of a
# pattern p of r under the parameter values v.  (r) is the one pattern of one part, (1^r) the one of r parts.
_FAMILIES = {
    "classical-graph": ((), lambda p, r, v: len(p) == r),
    "classical": ((), lambda p, r, v: len(p) > 1),
    "no-monochromatic": ((), lambda p, r, v: len(p) > 1),
    "no-rainbow": ((), lambda p, r, v: len(p) < r),
    "nmnr": ((), lambda p, r, v: 1 < len(p) < r),
    "alpha-beta": ((("alpha", "beta"),), lambda p, r, v: v["alpha"] <= len(p) <= v["beta"]),
    "stably-bounded": ((("s", "t"), ("a", "b")), lambda p, r, v: v["s"] <= len(p) <= v["t"] and v["a"] <= p[0] <= v["b"]),
    "conflict-free": ((), lambda p, r, v: p[-1] == 1),
}
FAMILY_KINDS = tuple(_FAMILIES)
FAMILY_PARAMS = tuple(dict.fromkeys(name for pairs, _ in _FAMILIES.values() for pair in pairs for name in pair))


def build_family(kind: str, r: int, **params: int) -> PatternSet:
    """Build one of the named pattern families.

    Kinds (case-insensitive):

    - ``classical-graph``: only the rainbow pattern.
    - ``classical`` (hypergraph): every pattern except monochromatic;
      ``no-monochromatic`` is an alias (the D-edge constraint of mixed
      hypergraphs).
    - ``no-rainbow``: every pattern except rainbow (the C-edge constraint).
    - ``nmnr``: neither monochromatic nor rainbow.
    - ``alpha-beta``: patterns whose number of parts lies in [alpha, beta];
      requires alpha, beta.
    - ``stably-bounded``: number of parts in [s, t] and largest part in
      [a, b]; requires s, t, a, b.
    - ``conflict-free``: patterns whose smallest part is 1 (some vertex is
      uniquely coloured in the edge).

    A parameter that the kind does not read raises ValueError.
    """
    if r < 1:
        raise ValueError("r must be positive")
    kind = kind.lower()
    if kind not in _FAMILIES:
        raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")
    pairs, test = _FAMILIES[kind]
    if unread := [name for name in params if not any(name in pair for pair in pairs)]:
        raise ValueError(f"family {kind!r} takes no parameter {', '.join(unread)}")
    for lo_name, hi_name in pairs:
        if (lo := params.get(lo_name)) is None or (hi := params.get(hi_name)) is None:
            raise ValueError(f"family {kind!r} requires parameters {lo_name} and {hi_name}")
        if not (1 <= lo <= hi <= r):
            raise ValueError(f"need 1 <= {lo_name} <= {hi_name} <= r, got {lo_name}={lo}, {hi_name}={hi}")
    return PatternSet(r, frozenset(p for p in iter_partitions(r) if test(p, r, params)))
