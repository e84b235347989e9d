import contextlib
import gc
import random
import sys
import time
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from patcol import colouring
from patcol.analysis import ramsey_check
from patcol.budget import BudgetExceeded, Deadline, collect
from patcol.colouring import (
    Colouring,
    Spectrum,
    classical_chromatic_number,
    exists_k_colouring,
    is_valid,
    pat,
    search_colourings,
    spectrum,
)
from patcol.hypergraph import (
    SigmaHypergraph,
    build_complete,
    build_grid,
    build_ramsey,
    build_sigma_explicit,
    make_hypergraph,
)
from patcol.partitions import PatternSet, enumerate_partitions, monochromatic, rainbow
from patcol.sigma_engine import sigma_exists_k, sigma_search, sigma_spectrum

from oracles import naive_exists_k, naive_spectrum


def pset(r, *parts):
    return PatternSet.of(r, parts)


Q31 = pset(4, (3, 1))


def grid_instance():
    return build_grid(4, 2, 2, Q31, Q31, 4)


class TestColouringType:
    def test_surjectivity_enforced(self):
        Colouring.of((0, 1, 0), 2)
        with pytest.raises(ValueError):
            Colouring.of((0, 2, 0), 3)  # colour 1 unused
        with pytest.raises(ValueError):
            Colouring.of((0, 1, 1), 3)
        # Without k, k is the number of colours used, and they must still be 0..k-1.
        assert Colouring.of((0, 1, 1)).k == 2
        with pytest.raises(ValueError):
            Colouring.of((0, 2))

    def test_empty_colouring_rejected(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            Colouring.of(())

    def test_pat_examples(self):
        c = Colouring.of((0, 0, 0, 1), 2)
        assert pat((0, 1, 2, 3), c) == (3, 1)
        mono = Colouring.of((0, 0, 0, 0), 1)
        assert pat((0, 1, 2, 3), mono) == (4,)
        rb = Colouring.of((0, 1, 2), 3)
        assert pat((0, 1, 2), rb) == (1, 1, 1)


class TestValidity:
    def test_all_one_colour_iff_mono_allowed(self):
        h = build_complete(4, 3)
        mono = Colouring.of((0,) * 4, 1)
        assert is_valid(h, mono, pset(3, (3,))).ok
        assert not is_valid(h, mono, pset(3, (2, 1))).ok

    def test_rainbow_iff_rainbow_allowed(self):
        h = build_complete(4, 3)
        rb = Colouring.of(tuple(range(4)), 4)
        assert is_valid(h, rb, pset(3, (1, 1, 1))).ok
        assert not is_valid(h, rb, pset(3, (3,), (2, 1))).ok

    def test_cdmc_valid_iff_types_subset_of_allowed(self):
        s = SigmaHypergraph(3, 3, 2, pset(3, (2, 1)))
        h = build_sigma_explicit(s)
        cdmc = Colouring.of(tuple(v // 2 for v in range(6)), 3)
        assert is_valid(h, cdmc, pset(3, (2, 1))).ok
        assert not is_valid(h, cdmc, pset(3, (3,))).ok

    def test_witness_is_first_sorted_edge(self):
        h = build_complete(4, 3)
        mono = Colouring.of((0,) * 4, 1)
        report = is_valid(h, mono, pset(3, (2, 1)))
        assert report.violating_edge == (0, 1, 2) and report.violating_pattern == (3,)

    def test_uniformity_mismatch(self):
        with pytest.raises(ValueError):
            is_valid(build_complete(4, 3), Colouring.of((0,) * 4, 1), Q31)

    def test_vertex_count_mismatch(self):
        h, c = build_complete(4, 3), Colouring.of((0, 0, 1), 2)
        with pytest.raises(ValueError, match="covers 3 vertices"):
            is_valid(h, c, pset(3, (2, 1)))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_colour_permutation_preserves_validity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        nv = rng.randint(3, 7)
        r = 3
        edges = set()
        from itertools import combinations

        pool = list(combinations(range(nv), r))
        edges = set(rng.sample(pool, min(len(pool), rng.randint(1, 6))))
        h = make_hypergraph(r, nv, edges)
        universe = sorted(enumerate_partitions(r))
        allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, 3))))
        k = rng.randint(1, nv)
        cols = [rng.randrange(k) for _ in range(nv)]
        for i in range(k):  # force surjectivity
            cols[i % nv] = i
        c = Colouring.of(tuple(cols), k)
        perm = list(range(k))
        rng.shuffle(perm)
        pc = Colouring.of(tuple(perm[x] for x in c.colours), k)
        assert is_valid(h, c, allowed).ok == is_valid(h, pc, allowed).ok


class TestSearch:
    def test_grid_membership(self):
        h = grid_instance()
        assert exists_k_colouring(h, 2, Q31) is not None
        assert exists_k_colouring(h, 3, Q31) is None
        assert exists_k_colouring(h, 4, Q31) is not None

    def test_witnesses_are_valid_and_deterministic(self):
        h = grid_instance()
        w1 = exists_k_colouring(h, 2, Q31)
        w2 = exists_k_colouring(h, 2, Q31)
        assert w1 == w2
        assert is_valid(h, w1, Q31).ok

    def test_complete_with_extremes_only(self):
        h = build_complete(9, 3)
        q = pset(3, (3,), (1, 1, 1))
        assert exists_k_colouring(h, 1, q) is not None
        assert exists_k_colouring(h, 3, q) is None
        assert exists_k_colouring(h, 9, q) is not None

    def test_k9_ramsey_three_colouring(self):
        # R(3,3,3) = 17, so K9 has many 3-colourings without a monochromatic
        # triangle; the search must find one well inside the budget.
        no_mono = enumerate_partitions(3).without(monochromatic(3))
        first = ramsey_check(9, 2, 3, 3, no_mono, budget_s=10)
        second = ramsey_check(9, 2, 3, 3, no_mono, budget_s=10)
        assert first.colourable is True
        assert is_valid(build_ramsey(9, 2, 3), first.witness, no_mono).ok
        assert first.witness == second.witness

    def test_ramsey_witnesses_use_at_most_k_colours(self):
        no_mono = enumerate_partitions(3).without(monochromatic(3))
        for n in (5, 6, 7, 8):
            rep = ramsey_check(n, 2, 3, 3, no_mono, budget_s=10)
            assert rep.colourable is True and rep.witness.k <= 3, n
            assert is_valid(build_ramsey(n, 2, 3), rep.witness, no_mono).ok
        assert ramsey_check(6, 2, 3, 2, no_mono, budget_s=10).colourable is False

    def test_extreme_pair_h339_refuted_at_nine_and_ten(self):
        q = pset(3, (3,), (1, 1, 1))
        s = SigmaHypergraph(3, 3, 9, q)
        h = build_sigma_explicit(s)
        for k in (9, 10):
            assert exists_k_colouring(h, k, q, deadline=Deadline(10)) is None
            assert sigma_exists_k(s, q, k) is None

    def test_k_bounds_validated(self):
        h = build_complete(4, 3)
        for bad in (0, 5):
            with pytest.raises(ValueError):
                exists_k_colouring(h, bad, enumerate_partitions(3))

    def test_budget_raises(self):
        # Refuting k=19 on materialised H(12,3,3|{(3),(1,1,1)}) takes far more
        # than the 64 search nodes between deadline checks, so the deadline
        # fires mid-search.
        q = pset(3, (3,), (1, 1, 1))
        h = build_sigma_explicit(SigmaHypergraph(12, 3, 3, q))
        with pytest.raises(BudgetExceeded):
            exists_k_colouring(h, 19, q, deadline=Deadline(0.0))

    def test_finished_searches_leave_no_cycle(self):
        # Reference counting alone frees a search's state, also after an overrun.
        h, every = build_complete(7, 3), enumerate_partitions(3)
        q = pset(3, (3,), (1, 1, 1))
        overrun = build_sigma_explicit(SigmaHypergraph(12, 3, 3, q))
        gc.collect()
        gc.disable()
        try:
            for k in range(1, 8):
                exists_k_colouring(h, k, every)
            spectrum(h, every)
            with contextlib.suppress(BudgetExceeded):
                exists_k_colouring(overrun, 19, q, deadline=Deadline(0.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_naive_enumeration(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        from itertools import combinations

        nv = rng.randint(3, 7)
        r = rng.choice([2, 3, 4])
        pool = list(combinations(range(nv), r))
        edges = rng.sample(pool, min(len(pool), rng.randint(0, 8)))
        h = make_hypergraph(r, nv, edges)
        universe = sorted(enumerate_partitions(r))
        allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
        for k in range(1, nv + 1):
            assert (exists_k_colouring(h, k, allowed) is not None) == naive_exists_k(h, k, allowed)

    def test_agrees_with_naive_enumeration_nine_vertices(self):
        rng = random.Random(424242)
        from itertools import combinations

        pool = list(combinations(range(9), 3))
        h = make_hypergraph(3, 9, rng.sample(pool, 10))
        allowed = pset(3, (2, 1), (1, 1, 1))
        for k in (1, 2, 3):
            assert (exists_k_colouring(h, k, allowed) is not None) == naive_exists_k(h, k, allowed)

    def test_monotone_in_allowed_set(self):
        h = grid_instance()
        smaller = Q31
        larger = PatternSet.of(4, [*Q31, (2, 2)])
        feasible_small = set(spectrum(h, smaller, k_max=5).feasible)
        feasible_large = set(spectrum(h, larger, k_max=5).feasible)
        assert feasible_small <= feasible_large


class TestSpectrum:
    def test_grid_gap(self):
        spec = spectrum(grid_instance(), Q31, k_max=4)
        assert 2 in spec.feasible and 4 in spec.feasible and 3 not in spec.feasible
        assert spec.gaps == (3,)
        assert spec.gap_status == "gap" and spec.has_gap is True

    def test_empty_spectrum_is_legal(self):
        s = SigmaHypergraph(3, 4, 2, pset(4, (2, 2)))
        h = build_sigma_explicit(s)
        spec = spectrum(h, Q31)
        assert spec.feasible == ()
        with pytest.raises(ValueError):
            spec.chi
        with pytest.raises(ValueError, match="no upper chromatic number"):
            Spectrum((), 1).chi_bar

    def test_deeper_than_the_default_recursion_limit(self):
        # The search recurses once per vertex; 1200 vertices pass the default limit of 1000.
        limit = sys.getrecursionlimit()
        h = make_hypergraph(2, 1200, [(0, 1)])
        spec = spectrum(h, pset(2, (1, 1)), k_max=2)
        assert spec.feasible == (2,) and not spec.unknown
        assert sys.getrecursionlimit() == limit

    def test_matches_naive_spectrum(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        h = build_sigma_explicit(s)
        q = pset(3, (2, 1))
        spec = spectrum(h, q)
        assert set(spec.feasible) == naive_spectrum(h, q, h.vertex_count) == {2}

    def test_unknowns_block_gap_call(self):
        spec = Spectrum(feasible=(2, 5), probed_max=5, unknown=(3, 4))
        assert spec.gap_status == "unknown" and spec.has_gap is None
        spec2 = Spectrum(feasible=(2, 5), probed_max=5, unknown=(4,))
        assert spec2.gaps == (3,) and spec2.gap_status == "gap"
        # No gap is proven, so any unknown count leaves the call open.
        for spec3 in (Spectrum((1, 2), 5, (5,)), Spectrum((), 3, (1, 2, 3))):
            assert spec3.gap_status == "unknown" and spec3.has_gap is None

    def test_gap_call_equals_resolving_every_unknown(self):
        # "gap" or "no-gap" exactly when every way of settling the unknown
        # counts gives that answer, "unknown" otherwise: all 1092 assignments
        # of feasible / infeasible / unknown to k = 1..m, m <= 6.
        cases = 0
        for m in range(1, 7):
            for values in product((True, False, None), repeat=m):
                feasible = {k for k, f in enumerate(values, 1) if f}
                unknown = [k for k, f in enumerate(values, 1) if f is None]
                spec = Spectrum(tuple(sorted(feasible)), m, tuple(unknown))
                outcomes = set()
                for settled in product((True, False), repeat=len(unknown)):
                    found = feasible | {k for k, f in zip(unknown, settled) if f}
                    outcomes.add(bool(found) and len(found) < max(found) - min(found) + 1)
                assert spec.has_gap == (outcomes.pop() if len(outcomes) == 1 else None), values
                cases += 1
        assert cases == 1092
        # Gap-free however the unknown k=3 resolves.
        assert Spectrum((1, 2), 3, (3,)).gap_status == "no-gap"

    def test_one_pass_matches_per_k_decisions(self):
        rng = random.Random(606)
        from itertools import combinations

        gaps = 0
        for _ in range(60):
            r = rng.choice([2, 3, 4])
            nv = rng.randint(r, 7)
            pool = list(combinations(range(nv), r))
            h = make_hypergraph(r, nv, rng.sample(pool, min(len(pool), rng.randint(1, 10))))
            universe = sorted(enumerate_partitions(r))
            allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
            spec = spectrum(h, allowed)
            per_k = tuple(k for k in range(1, nv + 1) if exists_k_colouring(h, k, allowed) is not None)
            assert spec.feasible == per_k and not spec.unknown, (r, nv, h.edges, allowed)
            gaps += bool(spec.gaps)
        assert gaps > 0

    def test_empty_target_set_settles_nothing(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        h, q = build_sigma_explicit(s), pset(3, (2, 1))

        def found(witness):
            raise AssertionError(f"no count is open, yet {witness} was reported")

        assert search_colourings(h, q, set(), found) is None
        assert sigma_search(s, q, set(), found) is None
        assert collect(search_colourings, h, q, targets=(), budget_s=None) == {}
        assert collect(sigma_search, s, q, targets=(), budget_s=None) == {}

    def test_overrun_never_reports_infeasible(self):
        q = pset(3, (3,), (1, 1, 1))
        h = build_sigma_explicit(SigmaHypergraph(12, 3, 3, q))
        spec = spectrum(h, q, budget_s=0.0)
        assert set(spec.feasible) | set(spec.unknown) == set(range(1, 37))
        assert not set(spec.feasible) & set(spec.unknown) and spec.unknown

    def test_extreme_pairs_agree_with_distribution_engine(self):
        q = pset(3, (3,), (1, 1, 1))
        for n, qsize in ((9, 3), (3, 9)):
            s = SigmaHypergraph(n, 3, qsize, q)
            explicit = spectrum(build_sigma_explicit(s), q)
            assert explicit == sigma_spectrum(s, q) and explicit.gaps, (n, qsize)

    def test_json_shape(self):
        spec = spectrum(grid_instance(), Q31, k_max=4)
        data = spec.to_json_dict()
        assert data == {"feasible": [2, 4], "probed_max": 4, "gaps": [3], "unknown": []}


class TestClassicalChromatic:
    def test_complete_graph_small(self):
        assert classical_chromatic_number(build_complete(4, 3)) == 2

    def test_single_edge(self):
        assert classical_chromatic_number(make_hypergraph(3, 3, [(0, 1, 2)])) == 2

    def test_edgeless_convention(self):
        assert classical_chromatic_number(make_hypergraph(3, 5, [])) == 1

    def test_one_uniform_with_edges_rejected(self):
        with pytest.raises(ValueError, match="1-uniform"):
            classical_chromatic_number(make_hypergraph(1, 2, [(0,)]))

    def test_desk_instance_needs_three(self):
        s = SigmaHypergraph(3, 3, 3, pset(3, (2, 1)))
        h = build_sigma_explicit(s)
        assert classical_chromatic_number(h) == 3

    def test_one_budget_covers_every_k(self, monkeypatch):
        # chi(H(7,3,7|{(2,1)})) = 7: k = 1..3 are refuted in milliseconds and
        # k = 4 alone takes longer than the budget.
        h = build_sigma_explicit(SigmaHypergraph(7, 3, 7, pset(3, (2, 1))))
        search, deadlines = colouring.exists_k_colouring, []

        def spy(*args, deadline):
            deadlines.append(deadline)
            return search(*args, deadline=deadline)

        monkeypatch.setattr(colouring, "exists_k_colouring", spy)
        start = time.monotonic()
        with pytest.raises(BudgetExceeded):
            classical_chromatic_number(h, budget_s=0.2)
        assert time.monotonic() - start < 1.0
        assert len(deadlines) > 1 and all(d is deadlines[0] for d in deadlines)

    def test_desk_instance_two_colour_oracle(self):
        # Independent check that every 2-colouring of the desk instance has a
        # monochromatic edge: only per-class counts matter, and a
        # monochromatic (2,1)-type edge exists iff one class has two vertices
        # of a colour that also appears in another class.
        for a0 in range(4):
            for a1 in range(4):
                for a2 in range(4):
                    counts = [(a0, 3 - a0), (a1, 3 - a1), (a2, 3 - a2)]
                    if sum(c[0] for c in counts) == 0 or sum(c[1] for c in counts) == 0:
                        continue  # not a 2-colouring
                    mono_edge = any(
                        counts[i][c] >= 2 and counts[j][c] >= 1
                        for c in (0, 1)
                        for i in range(3)
                        for j in range(3)
                        if i != j
                    )
                    assert mono_edge


class TestPinnedSearchOrder:
    """Witnesses of seeded random instances, digested once and hard-coded.

    Which colouring is found first depends on the vertex order, the colour
    order and the pruning rules; a change to the search's bookkeeping must
    leave every witness unchanged.
    """

    def test_witness_digest(self, monkeypatch):
        import hashlib
        from itertools import combinations

        # Every witness any search reports, in order.  The spectrum's one
        # search closes each count as its first witness arrives, so later
        # witnesses are found under fewer targets.
        reported = []
        search = colouring.search_colourings

        def recorded(h, allowed, targets, found, deadline):
            return search(h, allowed, targets, lambda w: reported.append(w.colours) or found(w), deadline)

        monkeypatch.setattr(colouring, "search_colourings", recorded)
        rng = random.Random(3034)
        lines = []
        for _ in range(30):
            r = rng.choice([3, 4])
            nv = rng.randint(8, 10)
            pool = list(combinations(range(nv), r))
            h = make_hypergraph(r, nv, rng.sample(pool, len(pool) * 3 // 10))
            universe = sorted(enumerate_partitions(r))
            allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
            lines += [repr(colouring.exists_k_colouring(h, k, allowed)) for k in range(1, nv + 1)]
            lines.append(repr(colouring.spectrum(h, allowed)))
        lines += map(repr, reported)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "cb1c0eeaa8a75330765405920b9f2f032e889154de0c2ebeae091bbcb86bd014"
        )
