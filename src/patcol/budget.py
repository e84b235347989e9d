"""Time budgets for search engines.

Every potentially long-running decision accepts an optional :class:`Deadline`.
Exceeding it raises :class:`BudgetExceeded`, which callers translate into an
explicit "unknown" verdict; a budget overrun is never reported as infeasible.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, TypeVar

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
