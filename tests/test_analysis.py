import hashlib
import json
import random
from itertools import combinations

import pytest

from patcol.analysis import (
    canonical_tight_instance,
    check_tight,
    gap_witness_search,
    ramsey_check,
    recolour_merge_top,
    recolour_split,
    simply_closed_colouring,
    smallest_qualifying,
    verify_lemma_constructions,
)
from patcol.colouring import Colouring, exists_k_colouring, is_valid, spectrum
from patcol.hypergraph import SigmaHypergraph, build_complete, build_sigma_explicit, make_hypergraph
from patcol.partitions import (
    PatternSet,
    chain,
    classify_robust,
    enumerate_partitions,
    monochromatic,
    rainbow,
)

from oracles import naive_colourings_up_to_relabel


def pset(r, *parts):
    return PatternSet.of(r, parts)


class TestCheckTight:
    def test_flagship_instance(self):
        q = pset(3, (2, 1))
        report = check_tight(SigmaHypergraph(6, 3, 5, q), q)
        assert report.verdict is True
        assert report.k == 6
        assert report.spectrum_singleton is True
        assert report.unique_up_to_relabel is True
        assert report.equal_class_sizes is True
        assert report.minimal_over_q is True
        assert report.spectrum.feasible == (6,)

    @pytest.mark.parametrize("r", range(7, 11))
    def test_paper_family_tight_at_large_r(self, r):
        # H(2r, r, (r-1)^2+1 | {(r-1,1)}) is tight at k=2r.  Rows that allow a
        # dead draw are never generated, which decides each r in milliseconds.
        q = pset(r, (r - 1, 1))
        report = check_tight(canonical_tight_instance(q), q, budget_s=60)
        assert report.verdict is True and report.k == 2 * r

    def test_canonical_instance_builder(self):
        q = pset(3, (2, 1))
        s = canonical_tight_instance(q)
        assert (s.n, s.r, s.q) == (6, 3, 5)
        with pytest.raises(ValueError):
            canonical_tight_instance(pset(3, (3,)))
        with pytest.raises(ValueError):
            canonical_tight_instance(pset(2, (1, 1)))
        # At r=2 only the empty set excludes both (2) and (1,1).
        with pytest.raises(ValueError, match="below r=3"):
            canonical_tight_instance(PatternSet.of(2, []))

    def test_broken_spectrum_fails_condition_one(self):
        report = check_tight(SigmaHypergraph(4, 4, 3, pset(4, (1, 1, 1, 1))), pset(4, (3, 1)))
        assert report.spectrum_singleton is False
        assert report.verdict is False
        assert set(report.spectrum.feasible) == {2, 3, 4}

    def test_small_instance_fails_uniqueness(self):
        # Spectrum {2} but several distinct 2-colour distributions.
        q = pset(3, (2, 1))
        report = check_tight(SigmaHypergraph(2, 3, 2, q), q)
        assert report.spectrum.feasible == (2,)
        assert report.spectrum_singleton is True
        assert report.unique_up_to_relabel is False
        assert report.verdict is False

    def test_uniqueness_counts_colourings_not_matrices(self):
        # One matrix, two colourings: each class of H(2,2,2|{(2)}) is
        # properly 2-coloured, and the second class may repeat or swap the first.
        s, allowed = SigmaHypergraph(2, 2, 2, pset(2, (2,))), pset(2, (1, 1))
        report = check_tight(s, allowed)
        assert report.k == 2 and report.unique_up_to_relabel is False
        assert naive_colourings_up_to_relabel(s, allowed, 2) == 2

    def test_uniqueness_matches_brute_force(self):
        # Every instance with r <= 3, n <= 3 and nq <= 7, under every allowed set.
        checked = 0
        for r in (1, 2, 3):
            universe = sorted(enumerate_partitions(r))
            subsets = [
                PatternSet(r, frozenset(c))
                for size in range(1, len(universe) + 1)
                for c in combinations(universe, size)
            ]
            for n in (1, 2, 3):
                for q in range(1, 7 // n + 1):
                    for types in subsets:
                        s = SigmaHypergraph(n, r, q, types)
                        for allowed in subsets:
                            report = check_tight(s, allowed)
                            if report.k is None:
                                continue
                            count = naive_colourings_up_to_relabel(s, allowed, report.k)
                            assert report.unique_up_to_relabel == (count == 1), (n, r, q, sorted(types), allowed)
                            checked += 1
        assert checked > 400

    def test_small_instance_spectrum_matches_explicit_engine(self):
        q = pset(3, (2, 1))
        s = SigmaHypergraph(2, 3, 2, q)
        h = build_sigma_explicit(s)
        assert set(check_tight(s, q).spectrum.feasible) == set(spectrum(h, q).feasible)

    def test_minimality_sub_reports(self):
        q = pset(3, (2, 1))
        report = check_tight(SigmaHypergraph(6, 3, 5, q), q)
        assert report.minimality == (((2, 1), True),)

    @pytest.mark.parametrize(
        "s,allowed,budget_s,settled",
        [
            # No count is feasible and none is unknown: there is no colouring at all.
            (SigmaHypergraph(2, 3, 2, pset(3, (2, 1))), PatternSet.of(3, []), None, False),
            # The budget ran out before any count was found: every count is
            # unknown.  Without a budget this spectrum is proven empty after
            # far more than the ticker's first stride.
            (SigmaHypergraph(8, 4, 8, pset(4, (2, 1, 1), (1, 1, 1, 1))), pset(4, (2, 1, 1)), 0, None),
        ],
        ids=["proven-empty", "overrun"],
    )
    def test_no_feasible_count(self, s, allowed, budget_s, settled):
        report = check_tight(s, allowed, budget_s=budget_s)
        assert report.k is None and report.spectrum.feasible == ()
        assert bool(report.spectrum.unknown) == (settled is None)
        assert report.unique_up_to_relabel is settled and report.equal_class_sizes is settled

    def test_uniqueness_overrun_stays_unknown(self):
        # A zero budget's first clock check always finds the deadline passed.
        # The spectrum finds k=8 before it, and both it and the uniqueness
        # enumeration need many more ticks to finish.
        q = pset(4, (2, 2))
        report = check_tight(SigmaHypergraph(8, 4, 10, q), q, budget_s=0)
        assert report.k == 8 and report.spectrum.unknown == tuple(k for k in range(1, 81) if k != 8)
        assert report.unique_up_to_relabel is None and report.equal_class_sizes is None
        assert report.verdict is None

    def test_json_verdict_strings(self):
        q = pset(3, (2, 1))
        data = check_tight(SigmaHypergraph(6, 3, 5, q), q).to_json_dict()
        assert data["verdict"] == "true"
        assert data["spectrum_singleton"] == "true"
        assert data["minimality"][0]["removal_breaks_colourability"] == "true"


class TestRecolouring:
    def test_merge_under_full_universe(self):
        p3 = enumerate_partitions(3)
        h = build_complete(4, 3)
        c = exists_k_colouring(h, 3, p3)
        merged = recolour_merge_top(c, h, p3)
        assert merged.k == 2 and is_valid(h, merged, p3).ok

    def test_merge_requires_reduction_closure(self):
        h = build_complete(4, 3)
        c = exists_k_colouring(h, 2, pset(3, (2, 1)))
        with pytest.raises(ValueError, match="reduction-closed"):
            recolour_merge_top(c, h, pset(3, (2, 1)))

    @pytest.mark.parametrize(
        "recolour,allowed",
        [(recolour_merge_top, pset(3, (3,))), (recolour_split, pset(3, (2, 1), (1, 1, 1)))],
        ids=["merge", "split"],
    )
    def test_invalid_input_colouring_rejected(self, recolour, allowed):
        # Closed under the move, but the colouring has a (3) and a (2,1) edge.
        h = build_complete(4, 3)
        c = Colouring.of((0, 0, 0, 1), 2)
        assert not is_valid(h, c, allowed)
        with pytest.raises(ValueError, match="input colouring is not valid"):
            recolour(c, h, allowed)

    def test_split_requires_expansion_closure(self):
        h = build_complete(4, 3)
        c = exists_k_colouring(h, 2, pset(3, (2, 1)))
        with pytest.raises(ValueError, match="expansion-closed"):
            recolour_split(c, h, pset(3, (2, 1)))

    def test_merge_requires_two_colours(self):
        p3 = enumerate_partitions(3)
        h = build_complete(4, 3)
        with pytest.raises(ValueError, match="two colours"):
            recolour_merge_top(Colouring.of((0, 0, 0, 0), 1), h, p3)

    def test_split_under_expansion_closed(self):
        q = chain(3)  # expansion-closed and simply closed
        assert classify_robust(q).expansion_closed
        h = build_complete(4, 3)
        c = exists_k_colouring(h, 2, q)
        split = recolour_split(c, h, q)
        assert split.k == 3 and is_valid(h, split, q).ok
        # The least vertex of a repeated colour moved to the fresh colour.
        moved = [v for v in range(4) if split.colours[v] != c.colours[v]]
        repeated = [v for v in range(4) if list(c.colours).count(c.colours[v]) >= 2]
        assert moved == [min(repeated)]

    def test_split_rejects_all_distinct(self):
        q = chain(3)
        h = build_complete(4, 3)
        c = exists_k_colouring(h, 4, q)
        with pytest.raises(ValueError, match="nothing to split"):
            recolour_split(c, h, q)

    def test_randomised_merge_split_round(self):
        rng = random.Random(99)
        for trial in range(40):
            r = rng.choice([3, 4])
            nv = rng.randint(r, 8)
            pool = list(combinations(range(nv), r))
            edges = rng.sample(pool, min(len(pool), rng.randint(1, 8)))
            h = make_hypergraph(r, nv, edges)
            universe = sorted(enumerate_partitions(r))
            subsets = [
                PatternSet(r, frozenset(c))
                for size in range(1, len(universe) + 1)
                for c in combinations(universe, size)
            ]
            rng.shuffle(subsets)
            for q in subsets[:6]:
                rep = classify_robust(q)
                for k in range(1, nv + 1):
                    c = exists_k_colouring(h, k, q)
                    if c is None:
                        continue
                    if rep.reduction_closed and k >= 2:
                        merged = recolour_merge_top(c, h, q)
                        assert is_valid(h, merged, q).ok
                    if rep.expansion_closed and k < nv:
                        split = recolour_split(c, h, q)
                        assert is_valid(h, split, q).ok

    def test_simply_closed_colouring_shape(self):
        h = build_complete(5, 3)
        assert simply_closed_colouring(h, 1).colours == (0,) * 5
        assert simply_closed_colouring(h, 5).colours == (0, 1, 2, 3, 4)
        c3 = simply_closed_colouring(h, 3)
        assert c3.colours == (0, 1, 2, 2, 2)
        assert is_valid(h, c3, chain(3)).ok

    def test_simply_closed_colouring_valid_for_every_k(self):
        q = PatternSet.of(3, [*chain(3), (2, 1)])  # any superset of the chain works
        h = build_complete(6, 3)
        for k in range(1, 7):
            assert is_valid(h, simply_closed_colouring(h, k), q).ok

    @pytest.mark.parametrize("k", [0, 6])
    def test_simply_closed_colouring_k_out_of_range(self, k):
        with pytest.raises(ValueError, match=rf"need 1 <= k <= 5, got k={k}"):
            simply_closed_colouring(build_complete(5, 3), k)


class TestSmallestQualifying:
    def test_not_simply_closed_r3(self):
        m, rb = monochromatic(3), rainbow(3)
        q = smallest_qualifying(3, lambda s: m in s and rb in s and not classify_robust(s).simply_closed)
        assert set(q) == {(3,), (1, 1, 1)}

    def test_not_expansion_closed_r4(self):
        m, rb = monochromatic(4), rainbow(4)
        q = smallest_qualifying(
            4, lambda s: rb in s and m not in s and not classify_robust(s).expansion_closed
        )
        assert set(q) == {(2, 2), (1, 1, 1, 1)}

    def test_not_reduction_closed_r4(self):
        m, rb = monochromatic(4), rainbow(4)
        q = smallest_qualifying(
            4, lambda s: m in s and rb not in s and not classify_robust(s).reduction_closed
        )
        assert set(q) == {(4,), (2, 1, 1)}


class TestLemmaSuite:
    def test_r3_reports(self):
        payload = verify_lemma_constructions(3, budget_s=120)
        claims = {rep["claim"]: rep["verdict"] for rep in payload["reports"]}
        assert (
            claims["not-simply-closed: claimed spectrum membership on the complete hypergraph"] == "true"
        )
        gap_claims = [v for c, v in claims.items() if "gap is witnessed" in c]
        assert gap_claims and all(v == "true" for v in gap_claims)
        # The H(r, r, r^2) form admits the class-wise colouring with r
        # colours, so its claimed r-infeasibility honestly reports false.
        sigma_claims = [
            rep
            for rep in payload["reports"]
            if rep["claim"].startswith("not-simply-closed: claimed") and "n" in rep["instance"]
        ]
        by_shape = {(rep["instance"]["n"], rep["instance"]["q"]): rep["verdict"] for rep in sigma_claims}
        assert by_shape[(9, 3)] == "true"
        assert by_shape[(3, 9)] == "false"
        assert {s["check"] for s in payload["skipped"]} == {
            "not-expansion-closed",
            "not-reduction-closed",
        }

    def test_rejects_other_r(self):
        with pytest.raises(ValueError):
            verify_lemma_constructions(5)

    @pytest.mark.parametrize(
        "r,budget_s,sha256",
        [
            (3, 0, "437d9cf29259e6cfbecf9dcab626c4b7085496a63dcc426263b1dc55d3ed839c"),
            (3, 120, "423bb4451251d0ac14534e926e5fa88b47d37cc95a1c018f81a899b75e6e808c"),
            (4, 0, "ea385731b3b55cd7613c2bf84e04fa84dc572057ef5e7b11b33cd50427be3bce"),
            (4, 120, "2544b5606cdb6ad800432c688649b2d489bcbe8925a3be5ccff4ec35cf1a987a"),
        ],
    )
    def test_whole_payload_is_pinned(self, r, budget_s, sha256):
        # Every report, probe and skip entry; a zero budget pins the unknowns too.
        payload = json.dumps(verify_lemma_constructions(r, budget_s=budget_s), sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == sha256

    def test_tiny_budget_reports_unknown_not_false(self):
        payload = verify_lemma_constructions(4, budget_s=0.0)
        verdicts = {rep["verdict"] for rep in payload["reports"]}
        assert "unknown" in verdicts
        # Tiny budgets may still resolve trivial probes, but nothing may be
        # reported false purely because time ran out: the known-false claim
        # is the only false one allowed here when its probes resolve.
        for rep in payload["reports"]:
            if rep["verdict"] == "false":
                assert rep["instance"].get("n") == 4 and rep["instance"].get("q") == 16


class TestGapSearch:
    def test_single_type_grid_is_gap_free(self):
        # Every single-type structure at r=4 with the (3,1) pattern set.
        q31 = pset(4, (3, 1))
        singles = [PatternSet.of(4, [p]) for p in sorted(enumerate_partitions(4))]
        report = gap_witness_search(4, q31, range(1, 5), range(1, 4), sigma_sets=singles)
        assert report.hits == () and report.unresolved == ()

    def test_robust_sets_never_gap_on_small_grid(self):
        for r in (3,):
            universe = sorted(enumerate_partitions(r))
            robust = [
                PatternSet(r, frozenset(c))
                for size in range(1, len(universe) + 1)
                for c in combinations(universe, size)
                if classify_robust(PatternSet(r, frozenset(c))).robust
            ]
            for q in robust:
                report = gap_witness_search(r, q, range(1, 4), range(1, 4))
                assert report.hits == (), sorted(q.members)

    def test_gap_found_at_extreme_pattern_pair(self):
        qmr = pset(3, (3,), (1, 1, 1))
        report = gap_witness_search(
            3, qmr, [9], [3], sigma_sets=[qmr], k_max=9
        )
        assert len(report.hits) == 1
        hit = report.hits[0]
        assert hit.n == 9 and hit.q == 3
        assert 1 in hit.spectrum.feasible and 3 in hit.spectrum.gaps

    def test_gap_found_on_all_cube_shapes(self):
        qmr = pset(3, (3,), (1, 1, 1))
        report = gap_witness_search(3, qmr, [3, 9], [3, 9], sigma_sets=[qmr], k_max=9)
        assert {(h.n, h.q) for h in report.hits} == {(3, 3), (3, 9), (9, 3), (9, 9)}

    def test_awkward_singleton_pattern_set_never_gaps(self):
        # Over every type set with n <= 5, q <= 4, the (3,1)-only pattern set
        # produces no broken spectrum on class-structured hypergraphs.
        report = gap_witness_search(4, pset(4, (3, 1)), range(1, 6), range(1, 5))
        assert report.hits == () and report.unresolved == ()

    def test_mismatched_r_rejected(self):
        with pytest.raises(ValueError):
            gap_witness_search(3, pset(4, (3, 1)), [2], [2])

    def test_r4_three_one_grid_has_no_gap(self):
        # The paper's closing result at r=4, Q={(3,1)}: no Sigma-hypergraph
        # has a gap.  All 31 type sets on n, q <= 6, each point decided in 5 s.
        report = gap_witness_search(4, pset(4, (3, 1)), range(1, 7), range(1, 7), budget_s=5)
        assert report.hits == () and report.unresolved == ()

    def test_budget_overrun_is_unresolved(self):
        # A zero budget leaves every count unknown: neither a gap nor "no gap".
        sig = pset(4, (2, 1, 1))
        report = gap_witness_search(4, pset(4, (3, 1)), [5], [4], sigma_sets=[sig], budget_s=0.0)
        assert report.hits == ()
        assert report.unresolved == ({"n": 5, "q": 4, "Sigma": sig.to_json()},)


class TestRamseyCheck:
    def test_edge_two_colourings_of_k6_forced(self):
        no_mono = enumerate_partitions(3).without(monochromatic(3))
        report = ramsey_check(6, 2, 3, 2, no_mono)
        assert report.colourable is False and report.holds is True

    def test_k5_admits_a_colouring(self):
        no_mono = enumerate_partitions(3).without(monochromatic(3))
        report = ramsey_check(5, 2, 3, 2, no_mono)
        assert report.colourable is True and report.holds is False
        assert report.witness is not None and report.witness.k <= 2

    def test_smaller_allowed_set_stays_uncolourable(self):
        report = ramsey_check(6, 2, 3, 2, pset(3, (2, 1)))
        assert report.colourable is False

    def test_antitone_in_n(self):
        no_mono = enumerate_partitions(3).without(monochromatic(3))
        outcomes = [ramsey_check(n, 2, 3, 2, no_mono).colourable for n in (4, 5, 6)]
        assert outcomes == sorted(outcomes, reverse=True)  # True ... then False

    def test_monochromatic_pattern_rejected(self):
        with pytest.raises(ValueError, match="monochromatic"):
            ramsey_check(6, 2, 3, 2, enumerate_partitions(3))

    def test_overrun_is_unknown_not_uncolourable(self):
        report = ramsey_check(17, 2, 3, 3, pset(3, (2, 1), (1, 1, 1)), budget_s=0)
        assert report.colourable is None and report.holds is None and report.witness is None

    def test_wrong_uniformity_rejected(self):
        with pytest.raises(ValueError, match="bundle uniformity"):
            ramsey_check(6, 2, 3, 2, pset(4, (3, 1)))
