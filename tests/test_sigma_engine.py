import contextlib
import random
import sys
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice, permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from patcol import sigma_engine
from patcol.analysis import check_tight
from patcol.budget import BudgetExceeded, Deadline
from patcol.colouring import Colouring, exists_k_colouring, is_valid, spectrum
from patcol.hypergraph import SigmaHypergraph, build_sigma_explicit
from patcol.partitions import PatternSet, build_family, enumerate_partitions
from patcol.sigma_engine import (
    DistributionMatrix,
    _Search,
    _sub_multisets,
    cdmc,
    dist_valid,
    enumerate_valid_distributions,
    realizable_patterns,
    sigma_exists_k,
    sigma_search,
    sigma_spectrum,
)

from oracles import naive_draws_by_size


def pset(r, *parts):
    return PatternSet.of(r, parts)


class TestDistributionMatrix:
    def test_row_sums_validated(self):
        with pytest.raises(ValueError):
            DistributionMatrix.from_rows(2, 3, [{0: 2}, {0: 3}])

    def test_row_count_and_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="class rows"):
            DistributionMatrix.from_rows(2, 3, [{0: 3}])
        with pytest.raises(ValueError, match="non-negative"):
            DistributionMatrix.from_rows(1, 2, [{0: 3, 1: -1}])

    def test_canonical_under_colour_permutation(self):
        rows = [{0: 2, 1: 1}, {1: 2, 2: 1}]
        base = DistributionMatrix.from_rows(2, 3, rows)
        for perm in ((1, 0, 2), (2, 1, 0), (1, 2, 0), (0, 2, 1), (2, 0, 1)):
            permuted = [{perm[c]: v for c, v in row.items()} for row in rows]
            assert DistributionMatrix.from_rows(2, 3, permuted) == base

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_random_permutations_canonicalise_equal(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        n, q, k = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 5)
        rows = []
        for _ in range(n):
            row: dict[int, int] = {}
            for _ in range(q):
                c = rng.randrange(k)
                row[c] = row.get(c, 0) + 1
            rows.append(row)
        base = DistributionMatrix.from_rows(n, q, rows)
        perm = list(range(k))
        rng.shuffle(perm)
        permuted = [{perm[c]: v for c, v in row.items()} for row in rows]
        assert DistributionMatrix.from_rows(n, q, permuted) == base

    def test_cdmc_shape(self):
        s = SigmaHypergraph(3, 3, 2, pset(3, (2, 1)))
        m = cdmc(s)
        assert m.k == 3 and m.colour_totals() == (2, 2, 2)


class TestRealizablePatterns:
    def test_cdmc_realizes_exactly_the_realizable_types(self):
        types = pset(3, (2, 1), (3,))
        s = SigmaHypergraph(4, 3, 2, types)  # q=2 blocks the (3) type
        got = realizable_patterns(cdmc(s), types)
        assert set(got) == {(2, 1)}
        s2 = SigmaHypergraph(4, 3, 3, types)
        assert set(realizable_patterns(cdmc(s2), types)) == {(2, 1), (3,)}

    def test_both_classes_one_colour(self):
        d = DistributionMatrix.from_rows(2, 2, [{0: 2}, {0: 2}])
        assert set(realizable_patterns(d, pset(3, (2, 1)))) == {(3,)}

    def test_split_class(self):
        d = DistributionMatrix.from_rows(2, 2, [{0: 1, 1: 1}, {0: 2}])
        assert set(realizable_patterns(d, pset(3, (2, 1)))) == {(3,), (2, 1)}

    def test_patterns_inside_older_classes_count(self):
        # (3) is drawable only from classes 0 and 1, never with the last class.
        d = DistributionMatrix.from_rows(3, 2, [{0: 2}, {0: 2}, {1: 2}])
        types = pset(3, (2, 1))
        assert set(realizable_patterns(d, types)) == {(3,), (2, 1)}
        w = dist_valid(d, types, types).witness
        assert w.pattern == (3,) and w.part_classes == (1, 0) and w.picks == (((0, 2),), ((0, 1),))

    def test_matches_explicit_enumeration(self):
        # Realisable patterns and dist_valid verdicts agree with the patterns
        # of the explicit edges, and every dist_valid witness is checked
        # against the matrix alone.
        rng = random.Random(7)
        invalid = 0
        for _ in range(100):
            n, q = rng.randint(1, 3), rng.randint(1, 3)
            r = rng.choice([2, 3, 4])
            universe = sorted(enumerate_partitions(r))
            types = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
            allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
            s = SigmaHypergraph(n, r, q, types)
            h = build_sigma_explicit(s)
            k = rng.randint(1, n * q)
            cols = [rng.randrange(k) for _ in range(n * q)]
            for i in range(k):
                cols[i % (n * q)] = i
            if len(set(cols)) != k:
                continue
            c = Colouring.of(tuple(cols), k)
            rows = []
            for i in range(n):
                row: dict[int, int] = {}
                for v in s.class_vertices(i):
                    row[c.colours[v]] = row.get(c.colours[v], 0) + 1
                rows.append(row)
            d = DistributionMatrix.from_rows(n, q, rows)
            # Set of patterns over all edges under this vertex colouring.
            from patcol.colouring import pat

            explicit = {pat(e, c) for e in h.edges}
            assert set(realizable_patterns(d, types)) == explicit
            verdict = dist_valid(d, types, allowed)
            assert verdict.ok == is_valid(h, c, allowed).ok
            if not verdict.ok:
                invalid += 1
                w = verdict.witness
                assert len(set(w.part_classes)) == len(w.part_classes)
                assert w.edge_type in types
                assert sorted((sum(v for _, v in pick) for pick in w.picks), reverse=True) == list(w.edge_type)
                totals: dict[int, int] = {}
                for cls, pick in zip(w.part_classes, w.picks):
                    for colour, v in pick:
                        assert 0 < v <= d.counts[cls][colour]
                        totals[colour] = totals.get(colour, 0) + v
                assert tuple(sorted(totals.values(), reverse=True)) == w.pattern
                assert w.pattern not in allowed
        assert invalid >= 15

    def test_refining_a_colour_only_adds_splits(self):
        # Recolouring one vertex with a fresh colour can only split one count.
        rng = random.Random(11)
        types = pset(3, (2, 1), (1, 1, 1))
        s = SigmaHypergraph(3, 3, 3, types)
        h = build_sigma_explicit(s)
        from patcol.colouring import pat

        for _ in range(20):
            cols = [rng.randrange(2) for _ in range(9)]
            cols[0], cols[1] = 0, 1
            c = Colouring.of(tuple(cols), 2)
            v = rng.randrange(9)
            refined = list(cols)
            refined[v] = 2
            c2 = Colouring.of(tuple(refined), 3)
            pats1 = {pat(e, c) for e in h.edges}
            pats2 = {pat(e, c2) for e in h.edges}
            from patcol.partitions import expand_once

            allowed_new = pats1 | {p for base in pats1 for p in expand_once(base)}
            assert pats2 <= allowed_new


class TestDistValid:
    def test_cdmc_valid_iff_types_allowed(self):
        types = pset(3, (2, 1))
        s = SigmaHypergraph(6, 3, 5, types)
        assert dist_valid(cdmc(s), types, types).ok
        verdict = dist_valid(cdmc(s), types, pset(3, (3,)))
        assert not verdict.ok and verdict.witness.pattern == (2, 1)
        # A two-field NamedTuple is always truthy; the verdict's truth is ``ok``.
        assert bool(dist_valid(cdmc(s), types, types)) is True and bool(verdict) is False

    def test_two_classes_same_colour(self):
        d = DistributionMatrix.from_rows(2, 3, [{0: 3}, {0: 3}])
        types = pset(3, (2, 1))
        verdict = dist_valid(d, types, types)
        assert not verdict.ok
        assert verdict.witness.pattern == (3,)
        assert verdict.witness.edge_type == (2, 1)

    def test_witness_names_classes_and_picks(self):
        d = DistributionMatrix.from_rows(2, 3, [{0: 3}, {0: 3}])
        types = pset(3, (2, 1))
        w = dist_valid(d, types, types).witness
        assert sorted(w.part_classes) == [0, 1]
        assert sum(v for pick in w.picks for _, v in pick) == 3

    def test_pattern_sets_over_another_r_rejected(self):
        d = DistributionMatrix.from_rows(2, 2, [{0: 2}, {1: 2}])
        with pytest.raises(ValueError, match="r=4.*r=3"):
            dist_valid(d, pset(3, (2, 1)), pset(4, (3, 1), (2, 2)))


class TestDraws:
    def test_matches_sorted_product_in_order(self):
        # Witnesses depend on the draw order, so the order is checked, not just the set.
        for m in range(6):
            for counts in product(range(1, 5), repeat=m):
                row = tuple((2 * c + 1, v) for c, v in enumerate(counts))
                want = naive_draws_by_size(row)
                for a in range(sum(counts) + 2):
                    assert list(_sub_multisets(row, a)) == want.get(a, []), (row, a)


def _check_class_order_quotient(rng: random.Random, trials: int, n_max: int, q_min: int, q_max: int) -> tuple[int, int]:
    """Decision searches reach every capped orbit of the enumerated matrices.

    A matrix's capped form takes min(count, A) for A the largest part of a
    realizable type.  The searches reach exactly the capped forms in canonical
    class order, each once; double-lex order leaves some orbits with more than
    one such form.  Returns (witnesses checked, matrices the quotient dropped).
    """
    witnesses = dropped = 0
    for _ in range(trials):
        r = rng.choice([3, 4])
        n, q = rng.randint(1, n_max), rng.randint(q_min, q_max)
        universe = sorted(enumerate_partitions(r))
        types = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, 2))))
        allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, 3))))
        s = SigmaHypergraph(n, r, q, types)
        cap = max((a for sigma in s.realizable_types() for a in sigma), default=q)

        def capped(rows) -> tuple:
            # Columns sorted descending, as the engine labels colours.
            return tuple(zip(*sorted(zip(*[[min(v, cap) for v in row] for row in rows]), reverse=True)))

        def canonical_order(c: tuple) -> bool:
            keys = [sorted(filter(None, row), reverse=True) for row in c]
            return all(a > b or a == b and x >= y for a, b, x, y in zip(keys, keys[1:], c, c[1:]))

        def orbit(c: tuple) -> tuple:
            return min(capped(p) for p in permutations(c))

        for k in range(1, n * q + 1):
            every = list(enumerate_valid_distributions(s, allowed, k))
            searched: list[DistributionMatrix] = []
            sigma_search(s, allowed, {k}, lambda m: searched.append(m) and False)
            reached = [capped(m.counts) for m in searched]
            assert len(reached) == len(set(reached))
            assert set(reached) == {c for m in every if canonical_order(c := capped(m.counts))}
            assert {orbit(c) for c in reached} == {orbit(capped(m.counts)) for m in every}
            for m in searched:
                assert m.k == k and dist_valid(m, types, allowed).ok
                assert all(sum(v > cap for v in row) <= 1 for row in m.counts), (m, cap)
            dropped += len(every) - len(searched)
            w = sigma_exists_k(s, allowed, k)
            assert (w is None) == (not every), (r, n, q, sorted(types), sorted(allowed), k)
            if w is None:
                continue
            witnesses += 1
            assert w == searched[0] and DistributionMatrix.from_rows(n, q, w.rows()) == w
    return witnesses, dropped


class TestSigmaExistsK:
    def test_tight_instance_membership(self):
        q = pset(3, (2, 1))
        s = SigmaHypergraph(6, 3, 5, q)
        assert sigma_exists_k(s, q, 6) == cdmc(s)
        assert sigma_exists_k(s, q, 5) is None
        assert sigma_exists_k(s, q, 7) is None

    def test_single_vertex_classes_witness(self):
        q31 = pset(4, (3, 1))
        s = SigmaHypergraph(4, 4, 1, pset(4, (1, 1, 1, 1)))
        w = sigma_exists_k(s, q31, 2)
        assert w == DistributionMatrix.from_rows(4, 1, [{0: 1}, {0: 1}, {0: 1}, {1: 1}])

    def test_k_bounds(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        with pytest.raises(ValueError):
            sigma_exists_k(s, pset(3, (2, 1)), 0)
        with pytest.raises(ValueError):
            sigma_exists_k(s, pset(3, (2, 1)), 5)

    def test_empty_allowed_set_infeasible_when_edges_exist(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        empty = PatternSet.of(3, [])
        assert all(sigma_exists_k(s, empty, k) is None for k in range(1, 5))

    def test_no_realizable_types_means_everything_colourable(self):
        # (3) needs q >= 3, rainbow needs n >= 3: no edges at all.
        s = SigmaHypergraph(2, 3, 2, pset(3, (3,), (1, 1, 1)))
        empty = PatternSet.of(3, [])
        assert all(sigma_exists_k(s, empty, k) is not None for k in range(1, 5))

    def test_budget_raises(self):
        p4 = enumerate_partitions(4)
        s = SigmaHypergraph(10, 4, 10, p4)
        with pytest.raises(BudgetExceeded):
            sigma_exists_k(s, p4, 25, deadline=Deadline(0.0))

    def test_budget_overshoot_is_bounded(self):
        # H(12,3,12|{(2,1)}) under classical colourings is undecided at k=10
        # after 60 s; the deadline must stop it promptly, not at the end of
        # some long inner loop.
        s = SigmaHypergraph(12, 3, 12, pset(3, (2, 1)))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            sigma_exists_k(s, build_family("classical", 3), 10, deadline=Deadline(0.2))
        assert time.perf_counter() - start < 1.2

    def test_row_walk_checks_deadline(self):
        # Under class order, the multisets lex-above the last row's are read
        # and skipped; a run of them must still consult the deadline.  The
        # rows are capped at 4, and the 300 or so partitions of 60 into parts
        # of at most 3 that start with 3 all come before (3, 1, ..., 1).
        search = _Search(60, [(4,)], enumerate_partitions(4).members, Deadline(0.0))
        search.rows.append(((0, 3),) + tuple((c, 1) for c in range(1, 58)))
        with pytest.raises(BudgetExceeded):
            next(search.candidate_rows(58, 0, (3,) + (1,) * 57, 4))

    def test_dropped_multisets_have_dead_draws(self, monkeypatch):
        # Each capped multiset the row generator leaves out allows a draw, of
        # some part of some realizable type, that no choice of the edge's
        # other vertices' colours turns into an allowed pattern.
        walks = []
        real = sigma_engine.bounded_partitions
        monkeypatch.setattr(sigma_engine, "bounded_partitions", lambda *args: walks.append(args) or real(*args))
        rng = random.Random(17)
        dropped = 0
        for _ in range(150):
            r = rng.choice([3, 4, 5])
            universe = sorted(enumerate_partitions(r))
            s = SigmaHypergraph(rng.randint(1, 4), r, rng.randint(1, 6), PatternSet(r, frozenset(rng.sample(universe, 2))))
            allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, 3))))
            walks.clear()
            for k in range(1, min(s.vertex_count, 6) + 1):
                sigma_exists_k(s, allowed, k)
            lost = {
                lam for m, p, v, avoid, cap in walks for lam in set(real(m, p, v, (), cap)) - set(real(m, p, v, avoid, cap))
            }
            for lam in lost:
                row = tuple(enumerate(lam))
                assert any(
                    all(
                        tuple(sorted((Counter(dict(draw)) + Counter(others)).values(), reverse=True)) not in allowed
                        for others in combinations_with_replacement(range(len(lam) + r - a), r - a)
                    )
                    for sigma in s.realizable_types()
                    for a in sigma
                    for draw in naive_draws_by_size(row).get(a, [])
                ), (s.key(), sorted(allowed), lam)
            dropped += len(lost)
        assert dropped > 150

    def test_r6_tight_instance_decided(self):
        # H(12,6,26|{(5,1)}), the paper's tight instance at r=6: exactly 12 colours.
        s = SigmaHypergraph(12, 6, 26, pset(6, (5, 1)))
        assert sigma_exists_k(s, s.edge_types, 11, deadline=Deadline(30.0)) is None
        w = sigma_exists_k(s, s.edge_types, 12, deadline=Deadline(30.0))
        assert w is not None and dist_valid(w, s.edge_types, s.edge_types).ok

    def test_r7_tight_instance_decided(self):
        # H(14,7,37|{(6,1)}): 12 colours are too few.  Count multisets with a
        # part above every cap are never generated, which decides this in seconds.
        s = SigmaHypergraph(14, 7, 37, pset(7, (6, 1)))
        assert sigma_exists_k(s, s.edge_types, 12, deadline=Deadline(60.0)) is None

    def test_r5_sub_type_instance_decided(self):
        # H(10,5,17|{(3,1,1)}): a placed (3,1) sub-edge whose pattern no
        # allowed pattern dominates is cut as soon as its two classes are placed.
        s = SigmaHypergraph(10, 5, 17, pset(5, (3, 1, 1)))
        for k in (9, 11):
            assert sigma_exists_k(s, s.edge_types, k, deadline=Deadline(10.0)) is None

    def test_class_order_quotient_matches_enumeration(self):
        # Decisions search only canonical class orders; enumeration keeps
        # class order, so it is the oracle for which k are feasible and for
        # which matrices the decision search may reach.
        witnesses, dropped = _check_class_order_quotient(random.Random(31), 100, 3, 1, 3)
        assert witnesses > 250 and dropped > 1500

    def test_class_order_quotient_with_ties_in_first_part(self):
        # From q=4 on, two count multisets can share a largest part, so the
        # lex rule on whole multisets matters, not just on largest parts.
        witnesses, dropped = _check_class_order_quotient(random.Random(41), 20, 2, 4, 6)
        assert witnesses > 60 and dropped > 600

    def test_deterministic_witness(self):
        q = pset(4, (3, 1))
        s = SigmaHypergraph(4, 4, 3, pset(4, (1, 1, 1, 1)))
        assert sigma_exists_k(s, q, 3) == sigma_exists_k(s, q, 3)


class TestRowPrefixChecks:
    """The row generator tests each row prefix as it builds it (``candidate_rows``)."""

    @staticmethod
    def _yielded_rows(monkeypatch, check) -> list:
        rows = []
        real = _Search.candidate_rows

        def recording(self, *args):
            for row, *rest in real(self, *args):
                check(self, row)
                rows.append(row)
                yield (row, *rest)

        monkeypatch.setattr(_Search, "candidate_rows", recording)
        return rows

    def test_every_descended_row_passes_the_whole_row_check(self, monkeypatch):
        # A multi-colour draw is tested when its last colour gets its count,
        # and the ban caps rule out pure draws, so no row the unfiltered check
        # rejects is ever descended into, by decisions or by enumeration.
        # Each search stops after 100 rows, so the sweep is the same on any machine.
        class Enough(Exception):
            pass

        def check(search, row):
            assert search.rows[-1] == row and search.newest_row_violation() is None, search.rows
            if len(descended) - before >= 100:
                raise Enough

        descended = self._yielded_rows(monkeypatch, check)
        rng = random.Random(24)
        for _ in range(60):
            r = rng.randint(3, 5)
            universe = sorted(enumerate_partitions(r))
            types = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, 2))))
            s = SigmaHypergraph(rng.randint(1, 4), r, rng.randint(1, 7), types)
            allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, 3))))
            before = len(descended)
            with contextlib.suppress(Enough):
                sigma_search(s, allowed, set(range(1, s.vertex_count + 1)), lambda m: False)
            for k in range(1, min(s.vertex_count, 6) + 1):
                before = len(descended)
                with contextlib.suppress(Enough):
                    list(islice(enumerate_valid_distributions(s, allowed, k), 50))
        assert len(descended) > 10000

    def test_dead_rows_are_cut_at_a_prefix(self, monkeypatch):
        # Checking only finished rows, the generator yields 597 rows here, most
        # of them dead (such as ten ones over ten colours, dead at the second).
        rows = self._yielded_rows(monkeypatch, lambda search, row: None)
        q22 = pset(4, (2, 2))
        report = check_tight(SigmaHypergraph(8, 4, 10, q22), q22)
        assert report.verdict is True and len(rows) < 100


class TestPinnedSearchOrder:
    """Search order and witnesses, recorded from the engine and hard-coded.

    A change to how rows are generated must leave these unchanged.
    """

    def test_tight_witnesses(self):
        for n, r, q, sigma in ((10, 5, 17, (4, 1)), (8, 4, 10, (2, 2))):
            s = SigmaHypergraph(n, r, q, pset(r, sigma))
            assert sigma_exists_k(s, s.edge_types, n).counts == cdmc(s).counts

    def test_first_enumerated_matrices(self):
        # Uses fresh colours, and rows with equal count multisets.
        s = SigmaHypergraph(3, 3, 4, pset(3, (2, 1)))
        got = [m.counts for m in islice(enumerate_valid_distributions(s, pset(3, (2, 1), (1, 1, 1)), 5), 20)]
        assert got == [
            ((4, 0, 0, 0, 0), (0, 4, 0, 0, 0), (0, 0, 2, 1, 1)),
            ((4, 0, 0, 0, 0), (0, 3, 1, 0, 0), (0, 0, 0, 3, 1)),
            ((4, 0, 0, 0, 0), (0, 3, 1, 0, 0), (0, 0, 0, 2, 2)),
            ((4, 0, 0, 0, 0), (0, 3, 1, 0, 0), (0, 0, 1, 2, 1)),
            ((4, 0, 0, 0, 0), (0, 2, 2, 0, 0), (0, 0, 0, 3, 1)),
            ((4, 0, 0, 0, 0), (0, 2, 2, 0, 0), (0, 0, 0, 2, 2)),
            ((4, 0, 0, 0, 0), (0, 2, 1, 1, 0), (0, 0, 0, 0, 4)),
            ((4, 0, 0, 0, 0), (0, 2, 1, 1, 0), (0, 0, 1, 0, 3)),
            ((4, 0, 0, 0, 0), (0, 2, 1, 1, 0), (0, 0, 1, 1, 2)),
            ((4, 0, 0, 0, 0), (0, 1, 1, 1, 1), (0, 1, 1, 1, 1)),
            ((3, 1, 0, 0, 0), (0, 0, 4, 0, 0), (0, 0, 0, 3, 1)),
            ((3, 1, 0, 0, 0), (0, 0, 4, 0, 0), (0, 0, 0, 2, 2)),
            ((3, 1, 0, 0, 0), (0, 0, 4, 0, 0), (0, 1, 0, 2, 1)),
            ((3, 1, 0, 0, 0), (0, 1, 3, 0, 0), (0, 0, 0, 3, 1)),
            ((3, 1, 0, 0, 0), (0, 1, 3, 0, 0), (0, 0, 0, 2, 2)),
            ((3, 1, 0, 0, 0), (0, 1, 3, 0, 0), (0, 1, 0, 2, 1)),
            ((3, 1, 0, 0, 0), (0, 0, 3, 1, 0), (0, 0, 0, 0, 4)),
            ((3, 1, 0, 0, 0), (0, 0, 3, 1, 0), (0, 1, 0, 0, 3)),
            ((3, 1, 0, 0, 0), (0, 0, 3, 1, 0), (0, 0, 0, 1, 3)),
            ((3, 1, 0, 0, 0), (0, 0, 3, 1, 0), (0, 1, 0, 1, 2)),
        ]

    def test_capped_witnesses_take_slack_on_first_colour_holding_cap(self):
        # Decisions place rows capped at A = 4, and the capped row (4, 1)
        # gets its slack on the colour holding 4: (5, 1).  On the other
        # colour it would be (4, 2), which allows the draw (2, 2) outside Q.
        s = SigmaHypergraph(3, 4, 6, pset(4, (4,)))
        q = pset(4, (4,), (3, 1), (1, 1, 1, 1))
        assert sigma_exists_k(s, q, 4).counts == ((5, 1, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6))
        w = sigma_exists_k(s, q, 5)
        assert w.counts == ((5, 1, 0, 0, 0), (5, 0, 1, 0, 0), (0, 0, 0, 5, 1)) and dist_valid(w, s.edge_types, q).ok

    def test_three_class_dist_valid_witness(self):
        d = DistributionMatrix.from_rows(4, 3, [{0: 1, 1: 2}, {0: 2, 2: 1}, {1: 1, 2: 2}, {0: 3}])
        w = dist_valid(d, pset(3, (1, 1, 1)), pset(3, (2, 1))).witness
        assert (w.pattern, w.part_classes) == ((1, 1, 1), (2, 0, 1))
        assert w.picks == (((0, 1),), ((1, 1),), ((2, 1),))


def _every_pattern_set(r: int) -> list[PatternSet]:
    universe = sorted(enumerate_partitions(r))
    return [PatternSet(r, frozenset(c)) for size in range(1, len(universe) + 1) for c in combinations(universe, size)]


class TestAgreementWithExplicitEngine:
    def test_exhaustive_tiny_grid(self):
        # n <= 2, q <= 2, r <= 3: every type set, every allowed set, every k.
        for r in (2, 3):
            sets = _every_pattern_set(r)
            for n in (1, 2):
                for q in (1, 2):
                    for types in sets:
                        s = SigmaHypergraph(n, r, q, types)
                        h = build_sigma_explicit(s)
                        for allowed in sets:
                            for k in range(1, n * q + 1):
                                a = sigma_exists_k(s, allowed, k) is not None
                                b = exists_k_colouring(h, k, allowed) is not None
                                assert a == b, (n, r, q, sorted(types.members), sorted(allowed.members), k)

    def test_sub_type_grid(self):
        # n = 3, q <= 2, r in {3, 4}: a type of three or more parts has
        # sub-types over two classes, which the search places before the third.
        for r in (3, 4):
            sets = _every_pattern_set(r)
            for q in (1, 2):
                for types in sets:
                    if all(len(t) < 3 for t in types):
                        continue
                    s = SigmaHypergraph(3, r, q, types)
                    h = build_sigma_explicit(s)
                    for allowed in sets:
                        assert sigma_spectrum(s, allowed) == spectrum(h, allowed), (r, q, sorted(types), sorted(allowed))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        r = rng.choice([2, 3, 4])
        n, q = rng.randint(1, 3), rng.randint(1, 3)
        universe = sorted(enumerate_partitions(r))
        types = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
        allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
        s = SigmaHypergraph(n, r, q, types)
        h = build_sigma_explicit(s)
        for k in range(1, n * q + 1):
            assert (sigma_exists_k(s, allowed, k) is not None) == (
                exists_k_colouring(h, k, allowed) is not None
            )

    def test_within_class_shuffle_preserves_validity(self):
        # Validity depends only on the per-class colour counts.
        rng = random.Random(23)
        types = pset(3, (2, 1), (3,))
        s = SigmaHypergraph(3, 3, 3, types)
        h = build_sigma_explicit(s)
        allowed = pset(3, (2, 1), (3,))
        for _ in range(25):
            cols = [rng.randrange(3) for _ in range(9)]
            for i in range(3):
                cols[i * 3] = i
            c = Colouring.of(tuple(cols), 3)
            shuffled = list(cols)
            for i in range(3):
                block = shuffled[i * 3 : (i + 1) * 3]
                rng.shuffle(block)
                shuffled[i * 3 : (i + 1) * 3] = block
            c2 = Colouring.of(tuple(shuffled), 3)
            assert is_valid(h, c, allowed).ok == is_valid(h, c2, allowed).ok


class TestSpectrum:
    def test_tight_instance_spectrum(self):
        q = pset(3, (2, 1))
        spec = sigma_spectrum(SigmaHypergraph(6, 3, 5, q), q)
        assert spec.feasible == (6,) and not spec.unknown

    def test_deeper_than_the_default_recursion_limit(self):
        # The search recurses once per class; 1200 classes pass the default limit of 1000.
        limit = sys.getrecursionlimit()
        q = pset(3, (2, 1))
        spec = sigma_spectrum(SigmaHypergraph(1200, 3, 1, q), q, k_max=2)
        assert spec.feasible == (1, 2) and not spec.unknown
        assert sys.getrecursionlimit() == limit

    @pytest.mark.parametrize(
        "n,q,types,want",
        [
            (3, 3, [(3, 1)], {3}),
            (2, 2, [(2, 2)], {2}),
            (3, 2, [(2, 2)], set()),
            (3, 2, [(2, 1, 1)], set()),
            (4, 3, [(1, 1, 1, 1)], {2, 3, 4}),
            (2, 4, [(4,)], {2, 3, 4}),
        ],
    )
    def test_single_type_spectra(self, n, q, types, want):
        s = SigmaHypergraph(n, 4, q, PatternSet.of(4, types))
        spec = sigma_spectrum(s, pset(4, (3, 1)))
        assert set(spec.feasible) == want and not spec.unknown

    def test_row_width_bound_is_tight(self):
        # (1,1,1) is a dead draw of the part 3, so a row holds at most two
        # colours, and three rows reach six colours exactly.
        q21 = pset(3, (2, 1))
        s = SigmaHypergraph(3, 3, 3, pset(3, (3,)))
        spec = sigma_spectrum(s, q21)
        assert spec.feasible == (2, 3, 4, 5, 6) and spec == spectrum(build_sigma_explicit(s), q21)
        assert tuple(k for k in range(1, 10) if sigma_exists_k(s, q21, k) is not None) == spec.feasible

    def test_no_realizable_type_needs_no_search(self):
        # (4) needs a class of 4: no edge, every count feasible, even with no budget.
        # Both engines settle it in the spectrum layer, so they agree.
        s, q31 = SigmaHypergraph(10, 4, 3, pset(4, (4,))), pset(4, (3, 1))
        h = build_sigma_explicit(s)
        spec = sigma_spectrum(s, q31, budget_s=0.0)
        assert spec.feasible == tuple(range(1, 31)) and not spec.unknown
        assert spectrum(h, q31, budget_s=0.0) == spec
        for structure, run in ((s, sigma_spectrum), (h, spectrum)):
            with pytest.raises(ValueError):
                run(structure, pset(3, (2, 1)))
            with pytest.raises(ValueError):
                run(structure, q31, k_max=31)

    def test_disjoint_union_is_intersection_bounded(self):
        q31 = pset(4, (3, 1))
        for n, qs in [(2, 2), (3, 2), (2, 3)]:
            t1, t2 = pset(4, (2, 2)), pset(4, (3, 1))
            both = SigmaHypergraph(n, 4, qs, PatternSet.of(4, [*t1, *t2]))
            s1 = SigmaHypergraph(n, 4, qs, t1)
            s2 = SigmaHypergraph(n, 4, qs, t2)
            spec = set(sigma_spectrum(both, q31).feasible)
            assert spec <= set(sigma_spectrum(s1, q31).feasible) & set(sigma_spectrum(s2, q31).feasible)

    def test_one_pass_matches_per_k_decisions(self):
        # r in {3, 4}, n <= 3, q <= 3; Q={(3),(1,1,1)} has a gap on H(3,3,3).
        cases = [
            (3, [[2, 1]], [[2, 1]]),
            (3, [[2, 1], [3]], [[3], [2, 1]]),
            (3, [[3], [1, 1, 1]], [[3], [1, 1, 1]]),
            (3, [[1, 1, 1]], [[2, 1]]),
            (4, [[3, 1]], [[3, 1]]),
            (4, [[2, 2], [2, 1, 1]], [[3, 1], [2, 2]]),
            (4, [[1, 1, 1, 1]], [[3, 1]]),
        ]
        gaps = 0
        for r, types, q_set in cases:
            allowed = PatternSet.of(r, q_set)
            for n in (1, 2, 3):
                for q in (1, 2, 3):
                    s = SigmaHypergraph(n, r, q, PatternSet.of(r, types))
                    spec = sigma_spectrum(s, allowed)
                    per_k = tuple(k for k in range(1, n * q + 1) if sigma_exists_k(s, allowed, k) is not None)
                    assert spec.feasible == per_k and not spec.unknown, (r, types, q_set, n, q)
                    gaps += bool(spec.gaps)
        assert gaps > 0

    def test_class_symmetric_instances(self):
        # The explicit engine gives the same spectrum for H(12,3,3) on the
        # materialised instance, in a few seconds.
        q = pset(3, (3,), (1, 1, 1))
        spec = sigma_spectrum(SigmaHypergraph(12, 3, 3, q), q, budget_s=30)
        assert spec.feasible == (1, *range(12, 37, 2)) and not spec.unknown
        s = SigmaHypergraph(4, 4, 5, pset(4, (1, 1, 1, 1)))
        spec = sigma_spectrum(s, pset(4, (3, 1)), budget_s=30)
        assert spec.feasible == (2, 3, 4, 5, 6) and not spec.unknown

    def test_overrun_never_reports_infeasible(self):
        p4 = enumerate_partitions(4)
        spec = sigma_spectrum(SigmaHypergraph(10, 4, 10, p4), p4, k_max=30, budget_s=0.0)
        assert set(spec.feasible) | set(spec.unknown) == set(range(1, 31))
        assert not set(spec.feasible) & set(spec.unknown)

    def test_budget_marks_unknown(self):
        p4 = enumerate_partitions(4)
        s = SigmaHypergraph(10, 4, 10, p4)
        spec = sigma_spectrum(s, p4, k_max=30, budget_s=0.0)
        assert 25 in spec.unknown and 25 not in spec.feasible


class TestEnumerateDistributions:
    def test_tight_instance_unique(self):
        q = pset(3, (2, 1))
        s = SigmaHypergraph(6, 3, 5, q)
        assert list(enumerate_valid_distributions(s, q, 6)) == [cdmc(s)]

    def test_two_class_example_counts_both_shapes(self):
        # One class monochromatic with the other split, in either position:
        # colour relabelling cannot exchange the classes, so two matrices.
        s = SigmaHypergraph(2, 4, 2, pset(4, (2, 2)))
        mats = list(enumerate_valid_distributions(s, pset(4, (3, 1)), 2))
        assert len(mats) == 2
        assert {m.counts for m in mats} == {((2, 0), (1, 1)), ((1, 1), (2, 0))}

    def test_stream_is_deduplicated_and_valid(self):
        types = pset(3, (2, 1), (3,))
        s = SigmaHypergraph(2, 3, 3, types)
        allowed = pset(3, (3,), (2, 1))
        mats = list(enumerate_valid_distributions(s, allowed, 2))
        assert len(mats) == len(set(mats))
        for m in mats:
            assert dist_valid(m, types, allowed).ok
            assert m.k == 2

    def test_no_orbit_yielded_twice(self):
        # The search is canonical by construction; nothing deduplicates it.
        yielded = 0
        for r in (3, 4):
            universe = sorted(enumerate_partitions(r))
            for n in range(1, 4):
                for q in range(1, 4):
                    for types, q_set in (
                        (universe[:2], universe[1:3]),
                        (universe[-2:], universe),
                        (universe, universe[:-1]),
                    ):
                        s = SigmaHypergraph(n, r, q, PatternSet.of(r, types))
                        for k in range(1, min(6, n * q) + 1):
                            mats = [m.counts for m in enumerate_valid_distributions(s, PatternSet.of(r, q_set), k)]
                            assert len(mats) == len(set(mats)), (r, n, q, types, q_set, k)
                            yielded += len(mats)
        assert yielded > 2000

    def test_matches_brute_count_up_to_relabelling(self):
        rng = random.Random(5)
        from itertools import product

        for _ in range(15):
            n, q = rng.randint(1, 2), rng.randint(1, 3)
            r = rng.choice([2, 3])
            universe = sorted(enumerate_partitions(r))
            types = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
            allowed = PatternSet(r, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
            s = SigmaHypergraph(n, r, q, types)
            h = build_sigma_explicit(s)
            for k in range(1, n * q + 1):
                canon: set[DistributionMatrix] = set()
                for cols in product(range(k), repeat=n * q):
                    if len(set(cols)) != k:
                        continue
                    c = Colouring.of(cols, k)
                    if not is_valid(h, c, allowed).ok:
                        continue
                    rows = []
                    for i in range(n):
                        row: dict[int, int] = {}
                        for v in s.class_vertices(i):
                            row[cols[v]] = row.get(cols[v], 0) + 1
                        rows.append(row)
                    canon.add(DistributionMatrix.from_rows(n, q, rows))
                got = set(enumerate_valid_distributions(s, allowed, k))
                assert got == canon
