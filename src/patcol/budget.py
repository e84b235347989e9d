"""Budgets, target checks, and settling colour counts into spectra and gap calls.

Every potentially long-running decision accepts an optional :class:`Deadline`.
Exceeding it raises :class:`BudgetExceeded`, which callers translate into an
explicit "unknown" verdict; a budget overrun is never reported as infeasible.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, TypeVar

if TYPE_CHECKING:
    from .partitions import PatternSet

W = TypeVar("W")


class BudgetExceeded(Exception):
    """Raised when a decision ran out of its time budget."""


class Deadline:
    """Wall-clock deadline checked periodically from search inner loops."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float | None):
        self.expires_at = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self.expires_at is not None and time.monotonic() > self.expires_at:
            raise BudgetExceeded(f"time budget exhausted (deadline {self.expires_at:.3f})")


def probe(search: Callable[..., W | None], *args, budget_s: float | None) -> tuple[bool | None, W | None]:
    """Run ``search(*args, found, deadline=...)`` under its own budget, stopping at the first witness.

    Returns ``(True, witness)`` when it found one, ``(False, None)`` when it
    proved there is none, and ``(None, None)`` when the budget ran out first.
    """
    try:
        witness = search(*args, lambda _: True, deadline=Deadline(budget_s))
    except BudgetExceeded:
        return None, None
    return witness is not None, witness


def collect(
    search: Callable[..., object], *args, targets: Iterable[int], budget_s: float | None
) -> dict[int, bool | None]:
    """Settle a set of colour counts with one search under one budget.

    Runs ``search(*args, open_counts, found, deadline=...)``, which reports
    each witness whose count ``w.k`` is still open through ``found``; that
    count is settled and the search stops once none is open.  Returns
    ``{k: True | False | None}``: True when a witness was found, False when
    the search ended without one, None when the budget ran out first.
    """
    open_counts = set(targets)
    results: dict[int, bool | None] = dict.fromkeys(sorted(open_counts), False)

    def found(witness) -> bool:
        results[witness.k] = True
        open_counts.discard(witness.k)
        return not open_counts

    try:
        search(*args, open_counts, found, deadline=Deadline(budget_s))
    except BudgetExceeded:
        results.update(dict.fromkeys(open_counts))
    return results


def gap_verdict(results: Mapping[int, bool | None]) -> bool | None:
    """Gap call over probed colour counts: feasible True, infeasible False, unknown None.

    A gap needs a count proven infeasible between two feasible ones.  Without
    one the call is unknown only while the unknown counts could still make a
    gap: some a < b < c with a, c feasible or unknown and b infeasible or
    unknown.  Otherwise no resolution of them has a gap.  Counts missing from
    ``results`` take no part.
    """
    feasible = [k for k, f in results.items() if f]
    if feasible and any(results.get(k) is False for k in range(min(feasible) + 1, max(feasible))):
        return True
    maybe = [k for k, f in results.items() if f is not False]
    if maybe and any(results.get(k, True) is not True for k in range(min(maybe) + 1, max(maybe))):
        return None
    return False


class Spectrum(NamedTuple):
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


def collect_spectrum(
    search: Callable | None, structure, allowed: PatternSet, k_max: int | None, budget_s: float | None
) -> Spectrum:
    """Colour counts 1..k_max (default: all) of either engine, in one search.

    ``search`` is ``colouring.search_colourings`` or ``sigma_engine.sigma_search``, or
    None for a structure without edges, where every count is feasible and no
    search runs.  The search runs under a single budget and drops each count
    once it finds a witness with it, so a refutation is shared by every count
    still open.  On an overrun the counts found so far are feasible and every
    count still open is unknown, never infeasible.
    """
    nv = structure.vertex_count
    k_max = nv if k_max is None else k_max
    if not 1 <= k_max <= nv:
        raise ValueError(f"need 1 <= k_max <= {nv}, got {k_max}")
    if search is None:
        check_targets(structure, allowed, ())
        return Spectrum(tuple(range(1, k_max + 1)), k_max)
    found = collect(search, structure, allowed, targets=range(1, k_max + 1), budget_s=budget_s)
    return Spectrum(tuple(k for k, f in found.items() if f), k_max, tuple(k for k, f in found.items() if f is None))


def check_targets(structure, allowed, targets: Iterable[int]) -> None:
    """Both engines' input check: the pattern set is over the structure's r, each target in 1..vertex_count."""
    if allowed.r != structure.r:
        raise ValueError(f"pattern set is over r={allowed.r}, hypergraph is {structure.r}-uniform")
    nv = structure.vertex_count
    for k in targets:
        if not 1 <= k <= nv:
            raise ValueError(f"need 1 <= k <= {nv}, got k={k}")


@contextmanager
def recursion_room(depth: int) -> Iterator[None]:
    """Raise the interpreter's recursion limit by a search's depth bound while it runs.

    The limit drops by the same amount afterwards, so searches that are
    suspended and resumed out of order (generators) still restore it.
    """
    sys.setrecursionlimit(sys.getrecursionlimit() + depth)
    try:
        yield
    finally:
        sys.setrecursionlimit(sys.getrecursionlimit() - depth)


class _Ticker:
    """Amortises deadline checks: consult the clock once per `stride` ticks."""

    __slots__ = ("deadline", "stride", "count")

    def __init__(self, deadline: Deadline | None, stride: int):
        self.deadline = deadline
        self.stride = stride
        self.count = 0

    def tick(self) -> None:
        if self.deadline is None:
            return
        self.count += 1
        if self.count >= self.stride:
            self.count = 0
            self.deadline.check()
