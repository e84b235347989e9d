"""Verification procedures built on top of the engines.

Covers tight colourability checking, the recolouring transformers that make
robust pattern sets gap-free (merge the top two colours under a
reduction-closed set; split one repeated colour under an expansion-closed
set; the distinguished-vertices colouring for simply closed sets), gap-witness
searches over grids of class-structured hypergraphs, the three gap
constructions for non-robust pattern sets containing the monochromatic or
rainbow pattern, and the bundle-hypergraph colourability check that encodes
Ramsey-style statements.

Every verdict is three-valued: budget overruns surface as "unknown", never as
a definite answer.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb, factorial, prod
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple

from .budget import BudgetExceeded, Deadline, Spectrum, collect, gap_verdict, probe
from .colouring import Colouring, is_valid, search_colourings
from .hypergraph import Hypergraph, SigmaHypergraph, build_complete, build_ramsey
from .partitions import (
    Partition,
    PatternSet,
    classify_robust,
    enumerate_partitions,
    monochromatic,
    rainbow,
)

# sigma_engine is imported where used, so ``ramsey_check`` loads only the explicit engine.
if TYPE_CHECKING:
    from .sigma_engine import DistributionMatrix


def _and3(*flags: bool | None) -> bool | None:
    """Three-valued conjunction: a definite False wins over unknown."""
    if any(f is False for f in flags):
        return False
    if any(f is None for f in flags):
        return None
    return True


def _not3(flag: bool | None) -> bool | None:
    """Three-valued negation: unknown stays unknown."""
    return None if flag is None else not flag


def _verdict_str(flag: bool | None) -> str:
    return {True: "true", False: "false"}.get(flag, "unknown")


class TightReport(NamedTuple):
    """The four tight-colourability conditions, each three-valued.

    Tight means: the spectrum is a single value k, the k-colouring is unique
    up to relabelling colours, its colour classes have equal size, and no
    pattern can be dropped from the allowed set without destroying
    colourability.
    """

    spectrum_singleton: bool | None
    k: int | None
    unique_up_to_relabel: bool | None
    equal_class_sizes: bool | None
    minimality: tuple[tuple[Partition, bool | None], ...]
    spectrum: Spectrum

    @property
    def minimal_over_q(self) -> bool | None:
        return _and3(*(flag for _, flag in self.minimality))

    @property
    def verdict(self) -> bool | None:
        return _and3(
            self.spectrum_singleton,
            self.unique_up_to_relabel,
            self.equal_class_sizes,
            self.minimal_over_q,
        )

    def to_json_dict(self) -> dict:
        return {
            "spectrum_singleton": _verdict_str(self.spectrum_singleton),
            "k": self.k,
            "unique_up_to_relabel": _verdict_str(self.unique_up_to_relabel),
            "equal_class_sizes": _verdict_str(self.equal_class_sizes),
            "minimal_over_q": _verdict_str(self.minimal_over_q),
            "minimality": [
                {"pattern": list(p), "removal_breaks_colourability": _verdict_str(f)}
                for p, f in self.minimality
            ],
            "spectrum": self.spectrum.to_json_dict(),
            "verdict": _verdict_str(self.verdict),
        }


def canonical_tight_instance(patterns: PatternSet) -> SigmaHypergraph:
    """The structure H(2r, r, (r-1)^2 + 1 | types = patterns).

    With the monochromatic and rainbow patterns excluded this instance is
    tightly colourable; excluding both forces r >= 3, which is validated here.
    """
    r = patterns.r
    if monochromatic(r) in patterns or rainbow(r) in patterns:
        raise ValueError("the tight instance requires a pattern set without the monochromatic and rainbow patterns")
    if r < 3:
        raise ValueError("no qualifying pattern set exists below r=3")
    return SigmaHypergraph(2 * r, r, (r - 1) ** 2 + 1, patterns)


def _colourings_up_to_relabel(m: DistributionMatrix) -> int:
    """How many vertex colourings, up to relabelling colours, realise m.

    Each class row is realised in q!/prod(counts!) ways; the colour
    permutations fixing m (g! for each group of g equal columns) act freely on them.
    """
    ways = prod(factorial(m.q) // prod(map(factorial, row)) for row in m.counts)
    return ways // prod(map(factorial, Counter(zip(*m.counts)).values()))


def check_tight(s: SigmaHypergraph, allowed: PatternSet, budget_s: float | None = None) -> TightReport:
    """Evaluate the four tight-colourability conditions on one instance."""
    from .sigma_engine import enumerate_valid_distributions, sigma_search, sigma_spectrum

    nq = s.vertex_count
    spec = sigma_spectrum(s, allowed, k_max=nq, budget_s=budget_s)

    singleton = _and3(len(spec.feasible) < 2, None if spec.unknown else len(spec.feasible) == 1)
    k0 = spec.feasible[0] if spec.feasible else None

    # A spectrum proven empty has no colouring to be unique or evenly sized.
    unique = equal_sizes = None if spec.unknown else False
    if k0 is not None:
        try:
            first, total = None, 0
            for m in enumerate_valid_distributions(s, allowed, k0, deadline=Deadline(budget_s)):
                first = first or m
                total += _colourings_up_to_relabel(m)
                if total > 1:
                    break
            unique = total == 1
            equal_sizes = first is not None and len(set(first.colour_totals())) == 1
        except BudgetExceeded:
            unique = equal_sizes = None

    # Removing p breaks colourability iff no k admits a valid distribution
    # under the reduced set: one search over every k, stopped at the first.
    every_k = set(range(1, nq + 1))
    minimality = [
        (p, _not3(probe(sigma_search, s, allowed.without(p), every_k, budget_s=budget_s)[0]))
        for p in allowed
    ]

    # k is the least feasible count: the spectrum value itself when singleton,
    # and otherwise the count the uniqueness and size conditions ran at.
    return TightReport(
        spectrum_singleton=singleton,
        k=k0,
        unique_up_to_relabel=unique,
        equal_class_sizes=equal_sizes,
        minimality=tuple(minimality),
        spectrum=spec,
    )


def recolour_merge_top(c: Colouring, h: Hypergraph, allowed: PatternSet) -> Colouring:
    """Merge the two highest colours of a valid colouring.

    Requires a reduction-closed pattern set, under which the merge provably
    preserves validity; the postcondition is still checked defensively.
    """
    if c.k < 2:
        raise ValueError("need at least two colours to merge")
    if not classify_robust(allowed).reduction_closed:
        raise ValueError("merging the top colours requires a reduction-closed pattern set")
    if not is_valid(h, c, allowed):
        raise ValueError("input colouring is not valid")
    top, into = c.k - 1, c.k - 2
    merged = Colouring.of(tuple(into if col == top else col for col in c.colours), c.k - 1)
    verdict = is_valid(h, merged, allowed)
    if not verdict:
        raise AssertionError(f"merge broke validity on edge {verdict.violating_edge}; this contradicts reduction closure")
    return merged


def recolour_split(c: Colouring, h: Hypergraph, allowed: PatternSet) -> Colouring:
    """Give one vertex of a repeated colour a fresh colour.

    Requires an expansion-closed pattern set; the recoloured vertex is the
    least-indexed one whose colour appears at least twice.
    """
    if not classify_robust(allowed).expansion_closed:
        raise ValueError("splitting a colour requires an expansion-closed pattern set")
    if not is_valid(h, c, allowed):
        raise ValueError("input colouring is not valid")
    usage = Counter(c.colours)
    v = next((i for i, col in enumerate(c.colours) if usage[col] >= 2), None)
    if v is None:
        raise ValueError("every colour is used once; nothing to split")
    split = Colouring.of(tuple(c.k if i == v else col for i, col in enumerate(c.colours)), c.k + 1)
    verdict = is_valid(h, split, allowed)
    if not verdict:
        raise AssertionError(f"split broke validity on edge {verdict.violating_edge}; this contradicts expansion closure")
    return split


def simply_closed_colouring(h: Hypergraph, k: int) -> Colouring:
    """k-1 distinguished vertices in their own colours, the rest share one.

    Every edge pattern then has the form (r-j, 1, ..., 1), so the colouring is
    valid whenever the allowed set contains the whole chain from (r) down to
    the rainbow pattern.
    """
    if not 1 <= k <= h.vertex_count:
        raise ValueError(f"need 1 <= k <= {h.vertex_count}, got k={k}")
    colours = tuple(min(v, k - 1) for v in range(h.vertex_count))
    return Colouring.of(colours, k)


def _subsets_smallest_first(r: int) -> Iterator[PatternSet]:
    universe = sorted(enumerate_partitions(r))
    for size in range(1, len(universe) + 1):
        for members in combinations(universe, size):
            yield PatternSet(r, frozenset(members))


def smallest_qualifying(r: int, predicate) -> PatternSet | None:
    """First pattern set satisfying predicate, smallest subsets first, lexicographic ties."""
    for q in _subsets_smallest_first(r):
        if predicate(q):
            return q
    return None


LEMMA_BUDGET_S = 600.0  # the lemma suite's budget when none is set


def verify_lemma_constructions(r: int, budget_s: float | None = LEMMA_BUDGET_S) -> dict:
    """Run the three gap constructions for non-robust pattern sets at one r.

    For each construction the smallest qualifying pattern set is selected and
    the claimed feasible / infeasible colour counts are probed: each
    instance's probe set is settled by one search under one time budget, and
    counts still open when it runs out are unknown.  Each instance gives two
    reports: whether the claimed memberships hold, and whether a gap is
    witnessed among the probed counts.  At r=3 only the not-simply-closed
    case has a qualifying set; the other two first qualify at r=4.
    """
    from .sigma_engine import sigma_search

    if r not in (3, 4):
        raise ValueError("constructions are verified at r=3 and r=4 only")
    m, rb = monochromatic(r), rainbow(r)
    # Each construction: its tag, the predicate its pattern set Q must meet,
    # and its claimed instances.  An instance is the complete hypergraph on
    # r^2 vertices (None) or the class-structured (n, q) with Sigma = Q, and
    # carries its (k, claimed feasible) probes.
    constructions = [
        # Both extreme patterns allowed, but the chain is incomplete.
        (
            "not-simply-closed",
            lambda q: m in q and rb in q and not classify_robust(q).simply_closed,
            [
                (None, [(1, True), (r * r, True), (r, False)]),
                ((r * r, r), [(1, True), (r**3, True), (r, False)]),
                # On the H(r, r, r^2) shape the claimed r-infeasibility does not hold
                # for any Q: colouring each class in its own colour gives every edge a
                # pattern equal to its type, which is in Sigma = Q.  Its membership
                # report is therefore expected to be "false"; with 1 and r both
                # feasible, a gap below r lies at 2..r-1 (at r=3 the probes find k=2
                # infeasible).  Nothing here settles what the paper claims for it.
                ((r, r * r), [(1, True), (r**3, True), (r, False)]),
            ],
        ),
        # Rainbow allowed, monochromatic not, expansion closure fails.
        (
            "not-expansion-closed",
            lambda q: rb in q and m not in q and not classify_robust(q).expansion_closed,
            [((r, r * r), [(r, True), (r**3, True), (r + 1, False)])],
        ),
        # Monochromatic allowed, rainbow not, reduction closure fails.
        (
            "not-reduction-closed",
            lambda q: m in q and rb not in q and not classify_robust(q).reduction_closed,
            [((r * r, r), [(1, True), (r * r, True), (r * r - 1, False)])],
        ),
    ]
    reports: list[dict] = []
    skipped: list[dict] = []
    for tag, qualifies, instances in constructions:
        q = smallest_qualifying(r, qualifies)
        if q is None:
            skipped.append({"check": tag, "reason": f"no qualifying pattern set at r={r}"})
            continue
        for shape, probes in instances:
            if shape is None:
                structure, search = build_complete(r * r, r), search_colourings
                instance, name = {"vertices": r * r, "r": r, "Q": q.to_json()}, "complete hypergraph"
            else:
                structure, search = SigmaHypergraph(shape[0], r, shape[1], q), sigma_search
                instance = {"n": shape[0], "r": r, "q": shape[1], "Sigma": q.to_json(), "Q": q.to_json()}
                name = "class-structured instance"
            top = structure.vertex_count
            # Claimed counts plus a low sweep and the rainbow end, enough to
            # witness the gap whenever the construction has one.
            targets = {*(k for k, _ in probes), *range(1, min(r + 1, top) + 1), top}
            results = collect(search, structure, q, targets=targets, budget_s=budget_s)
            held = _and3(*(results[k] if want else _not3(results[k]) for k, want in probes))
            observed = [{"k": k, "expected_feasible": want, "observed": _verdict_str(results[k])} for k, want in probes]
            reports.append(
                {
                    "claim": f"{tag}: claimed spectrum membership on the {name}",
                    "instance": instance,
                    "verdict": _verdict_str(held),
                    "witness": {"probes": observed},
                }
            )
            reports.append(
                {
                    "claim": f"{tag}: a spectrum gap is witnessed among the probed counts",
                    "instance": instance,
                    "verdict": _verdict_str(gap_verdict(results)),
                    "witness": {"probes": [{"k": k, "feasible": _verdict_str(f)} for k, f in sorted(results.items())]},
                }
            )
    return {"suite": "lemmas", "r": r, "reports": reports, "skipped": skipped}


class GapHit(NamedTuple):
    n: int
    q: int
    sigma: PatternSet
    spectrum: Spectrum

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "Sigma": self.sigma.to_json(),
            "spectrum": self.spectrum.to_json_dict(),
        }


class GapSearchReport(NamedTuple):
    hits: tuple[GapHit, ...]
    unresolved: tuple[dict, ...]  # grid points whose gap status stayed unknown

    def to_json_dict(self) -> dict:
        return {
            "hits": [h.to_json_dict() for h in self.hits],
            "unresolved": list(self.unresolved),
        }


def gap_witness_search(
    r: int,
    allowed: PatternSet,
    n_range: Iterable[int],
    q_range: Iterable[int],
    sigma_sets: Iterable[PatternSet] | None = None,
    k_max: int | None = None,
    budget_s: float | None = None,
) -> GapSearchReport:
    """Scan a parameter grid for class-structured instances with a spectrum gap.

    Grid points whose spectra contain unknowns that block the gap call are
    reported separately so budget exhaustion shrinks the grid visibly instead
    of silently.
    """
    from .sigma_engine import sigma_spectrum

    if allowed.r != r:
        raise ValueError(f"pattern set is over r={allowed.r}, expected {r}")
    sets = list(sigma_sets) if sigma_sets is not None else list(_subsets_smallest_first(r))
    hits: list[GapHit] = []
    unresolved: list[dict] = []
    for n in sorted(set(n_range)):
        for q in sorted(set(q_range)):
            for sig in sets:
                s = SigmaHypergraph(n, r, q, sig)
                cap = s.vertex_count if k_max is None else min(k_max, s.vertex_count)
                spec = sigma_spectrum(s, allowed, k_max=cap, budget_s=budget_s)
                status = spec.gap_status
                if status == "gap":
                    hits.append(GapHit(n, q, sig, spec))
                elif status == "unknown":
                    unresolved.append({"n": n, "q": q, "Sigma": sig.to_json()})
    return GapSearchReport(tuple(hits), tuple(unresolved))


class RamseyReport(NamedTuple):
    n: int
    r: int
    p: int
    k: int
    colourable: bool | None
    witness: Colouring | None

    @property
    def holds(self) -> bool | None:
        """True when no colouring with up to k colours exists."""
        return _not3(self.colourable)

    def to_json_dict(self) -> dict:
        witness = self.witness.to_json_dict() if self.witness else None
        return {**self._asdict(), "colourable": _verdict_str(self.colourable), "witness": witness}


def ramsey_check(
    n: int, r: int, p: int, k: int, allowed: PatternSet, budget_s: float | None = None
) -> RamseyReport:
    """Decide whether the bundle hypergraph admits a colouring with up to k colours.

    Unlike spectra, this check uses at-most-k semantics, because an edge
    colouring of the underlying complete hypergraph need not use all k
    colours; it is one search over the targets 1..k under one budget, and the
    witness is the first colouring it finds, whatever its count.  The allowed
    set must exclude the monochromatic pattern of the bundle uniformity,
    otherwise the statement under test is vacuously false.
    """
    if k < 1:
        raise ValueError(f"need k >= 1 colours, got k={k}")
    uniformity = comb(p, r)
    if allowed.r != uniformity:
        raise ValueError(f"pattern set must be over r={uniformity} (the bundle uniformity), got {allowed.r}")
    if monochromatic(uniformity) in allowed:
        raise ValueError("the monochromatic pattern must be excluded for a meaningful check")
    h = build_ramsey(n, r, p)
    targets = set(range(1, min(k, h.vertex_count) + 1))
    colourable, witness = probe(search_colourings, h, allowed, targets, budget_s=budget_s)
    return RamseyReport(n, r, p, k, colourable, witness)
