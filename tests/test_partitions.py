import random

import pytest
from hypothesis import given, strategies as st

from patcol.partitions import (
    PatternSet,
    as_partition,
    bounded_partitions,
    build_family,
    chain,
    classify_robust,
    dominates,
    enumerate_partitions,
    ex_closure,
    expand_once,
    iter_partitions,
    monochromatic,
    rainbow,
    rd_closure,
    reduce_once,
)

from oracles import naive_partitions, partition_count


def pset(r, *parts):
    return PatternSet.of(r, parts)


class TestPartitionBasics:
    def test_canonical_form(self):
        assert as_partition([1, 3, 1, 1]) == (3, 1, 1, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            as_partition([2, 0])
        with pytest.raises(ValueError):
            as_partition([])

    def test_rejects_bool_parts(self):
        with pytest.raises(ValueError):
            PatternSet.of(3, [[True, 2]])

    @pytest.mark.parametrize("parts", [["a", 2], [2.0, 1.0]])
    def test_rejects_non_integer_parts(self, parts):
        with pytest.raises(ValueError, match="must be integers"):
            PatternSet.of(3, [parts])

    @pytest.mark.parametrize("part", [5, None, 2.5])
    def test_rejects_non_iterable_part(self, part):
        with pytest.raises(ValueError, match="list of parts"):
            PatternSet.of(3, [part])

    def test_extremes(self):
        assert monochromatic(4) == (4,)
        assert rainbow(4) == (1, 1, 1, 1)

    @pytest.mark.parametrize(
        "make",
        [monochromatic, rainbow, lambda r: PatternSet.of(r, []), lambda r: build_family("classical", r)],
        ids=["monochromatic", "rainbow", "PatternSet.of", "build_family"],
    )
    def test_rejects_r_zero(self, make):
        with pytest.raises(ValueError, match="r must be positive"):
            make(0)


class TestEnumeration:
    def test_r3_by_hand(self):
        assert set(enumerate_partitions(3)) == {(3,), (2, 1), (1, 1, 1)}

    def test_r4_by_hand(self):
        assert set(enumerate_partitions(4)) == {(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)}

    def test_r6_count(self):
        assert len(enumerate_partitions(6)) == 11

    def test_order_is_lex_decreasing(self):
        listed = list(iter_partitions(5))
        assert listed == sorted(listed, reverse=True)
        assert listed[0] == (5,) and listed[-1] == (1, 1, 1, 1, 1)

    @pytest.mark.parametrize("r", range(1, 31))
    def test_count_matches_recurrence(self, r):
        assert len(enumerate_partitions(r)) == partition_count(r)

    def test_bounded_matches_filtered_oracle(self):
        # At most p parts, each at most v, lex-descending: the first-part
        # bound must not drop or reorder any partition.
        for m in range(1, 13):
            every = naive_partitions(m)
            for p in range(14):
                for v in range(14):
                    want = sorted((lam for lam in every if len(lam) <= p and lam[0] <= v), reverse=True)
                    assert list(bounded_partitions(m, p, v)) == want, (m, p, v)

    def test_bounded_avoid_matches_filtered_oracle(self):
        # Partitions dominating a member of avoid are never built; the rest
        # come in the same order as without avoid.
        rng = random.Random(5)
        small = [p for a in range(1, 7) for p in iter_partitions(a)]
        for m in range(13):
            for _ in range(20):
                avoid = rng.sample(small, rng.randint(1, 5))
                p, v = rng.randint(0, 13), rng.randint(0, 13)
                want = [lam for lam in bounded_partitions(m, p, v) if not any(dominates(lam, pi) for pi in avoid)]
                assert list(bounded_partitions(m, p, v, avoid)) == want, (m, p, v, avoid)

    def test_bounded_cap_matches_filtered_oracle(self):
        # With a cap, the partitions whose later parts are at most cap come in
        # the same order, each first part above cap written as cap; avoid,
        # whose parts fit under the cap too, acts on that capped form.
        rng = random.Random(7)
        small = [p for a in range(1, 7) for p in iter_partitions(a)]
        for m in range(13):
            for _ in range(20):
                p, v, cap = rng.randint(0, 13), rng.randint(0, 13), rng.randint(1, 7)
                avoid = rng.sample([pi for pi in small if pi[0] <= cap], rng.randint(0, 3))
                kept = [lam for lam in bounded_partitions(m, p, v) if all(x <= cap for x in lam[1:])]
                capped = [tuple(min(x, cap) for x in lam) for lam in kept]
                want = [c for c in capped if not any(dominates(c, pi) for pi in avoid)]
                assert list(bounded_partitions(m, p, v, avoid, cap)) == want, (m, p, v, avoid, cap)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0)
        with pytest.raises(ValueError):
            enumerate_partitions(-3)


class TestReduceExpand:
    def test_reduce_worked_example(self):
        assert reduce_once((3, 1, 1, 1)) == {(4, 1, 1), (3, 2, 1)}

    def test_reduce_single_part(self):
        assert reduce_once((6,)) == set()

    def test_reduce_two_parts(self):
        assert reduce_once((2, 1)) == {(3,)}

    def test_expand_worked_example(self):
        assert expand_once((3, 3)) == {(3, 2, 1)}

    def test_expand_all_ones(self):
        assert expand_once((1,) * 6) == set()

    def test_expand_equal_parts_collapse(self):
        assert expand_once((2, 2)) == {(2, 1, 1)}

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    def test_part_counts_shift_by_one(self, parts):
        sigma = as_partition(parts)
        for p in reduce_once(sigma):
            assert len(p) == len(sigma) - 1 and sum(p) == sum(sigma)
        for p in expand_once(sigma):
            assert len(p) == len(sigma) + 1 and sum(p) == sum(sigma)


class TestClosures:
    def test_rd_worked_example(self):
        got = rd_closure(pset(6, (3, 1, 1, 1)))
        assert set(got) == {(3, 1, 1, 1), (4, 1, 1), (3, 2, 1), (5, 1), (4, 2), (3, 3), (6,)}

    def test_ex_worked_example(self):
        got = ex_closure(pset(6, (3, 3)))
        assert set(got) == {(3, 3), (3, 2, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 1, 1, 1, 1), (1,) * 6}

    def test_fixed_points(self):
        assert set(rd_closure(pset(5, (5,)))) == {(5,)}
        assert set(ex_closure(pset(5, (1, 1, 1, 1, 1)))) == {(1, 1, 1, 1, 1)}

    def test_chain(self):
        assert set(chain(4)) == {(4,), (3, 1), (2, 1, 1), (1, 1, 1, 1)}

    def test_empty_input_rejected(self):
        empty = PatternSet.of(4, [])
        for op in (rd_closure, ex_closure, classify_robust):
            with pytest.raises(ValueError):
                op(empty)

    @given(st.integers(2, 7), st.data())
    def test_idempotent_and_extreme_members(self, r, data):
        universe = sorted(enumerate_partitions(r))
        seed = PatternSet(r, frozenset(data.draw(
            st.lists(st.sampled_from(universe), min_size=1, max_size=4))))
        rd = rd_closure(seed)
        ex = ex_closure(seed)
        assert rd_closure(rd).members == rd.members
        assert ex_closure(ex).members == ex.members
        assert monochromatic(r) in rd
        assert rainbow(r) in ex

    @given(st.integers(2, 6), st.data())
    def test_monotone(self, r, data):
        universe = sorted(enumerate_partitions(r))
        small = frozenset(data.draw(st.lists(st.sampled_from(universe), min_size=1, max_size=3)))
        extra = frozenset(data.draw(st.lists(st.sampled_from(universe), min_size=0, max_size=3)))
        x, y = PatternSet(r, small), PatternSet(r, small | extra)
        assert rd_closure(x).members <= rd_closure(y).members
        assert ex_closure(x).members <= ex_closure(y).members

    @pytest.mark.parametrize("r", range(2, 8))
    def test_expansion_implies_reverse_reduction(self, r):
        # Undoing a split (a -> a-1, 1) is a merge, so everything reachable by
        # expansion is reachable backwards by reduction.  The converse is
        # false from r=4 on: merges may join two parts both >= 2, which no
        # chain of splits can undo.
        for sigma in enumerate_partitions(r):
            for tau in enumerate_partitions(r):
                if tau in ex_closure(pset(r, sigma)).members:
                    assert sigma in rd_closure(pset(r, tau)).members

    def test_reduction_reverse_of_expansion_fails_at_r4(self):
        assert (4,) in rd_closure(pset(4, (2, 2))).members
        assert (2, 2) not in ex_closure(pset(4, (4,))).members


class TestRobustness:
    def test_single_middle_pattern_not_robust(self):
        rep = classify_robust(pset(4, (3, 1)))
        assert not rep.reduction_closed and not rep.expansion_closed and not rep.simply_closed
        assert not rep.robust

    def test_chain_is_simply_closed(self):
        rep = classify_robust(chain(4))
        assert rep.simply_closed and rep.robust

    @pytest.mark.parametrize("r", range(2, 7))
    def test_universe_closed_both_ways(self, r):
        rep = classify_robust(enumerate_partitions(r))
        assert rep.reduction_closed and rep.expansion_closed and rep.robust

    @pytest.mark.parametrize("r", range(2, 8))
    def test_universe_minus_mono_is_expansion_closed(self, r):
        q = enumerate_partitions(r).without(monochromatic(r))
        assert classify_robust(q).expansion_closed


class TestFamilies:
    def test_nmnr_r4(self):
        assert set(build_family("nmnr", 4)) == {(3, 1), (2, 2), (2, 1, 1)}

    def test_conflict_free_r4(self):
        assert set(build_family("conflict-free", 4)) == {(3, 1), (2, 1, 1), (1, 1, 1, 1)}

    def test_stably_bounded_r4(self):
        got = build_family("stably-bounded", 4, s=2, t=3, a=2, b=3)
        # Independent filter straight from the defining conditions.
        want = {
            p
            for p in enumerate_partitions(4)
            if 2 <= len(p) <= 3 and 2 <= p[0] <= 3
        }
        assert set(got) == want == {(3, 1), (2, 2), (2, 1, 1)}

    def test_classical_families(self):
        assert set(build_family("classical-graph", 3)) == {(1, 1, 1)}
        assert set(build_family("classical", 3)) == {(2, 1), (1, 1, 1)}
        assert set(build_family("no-rainbow", 3)) == {(3,), (2, 1)}
        assert build_family("no-monochromatic", 3).members == build_family("classical", 3).members

    def test_alpha_beta(self):
        got = build_family("alpha-beta", 4, alpha=2, beta=3)
        assert set(got) == {(3, 1), (2, 2), (2, 1, 1)}
        # Classical hypergraph colourings are the (2, r) case.
        assert build_family("alpha-beta", 4, alpha=2, beta=4).members == build_family("classical", 4).members

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_family("alpha-beta", 4, alpha=3, beta=2)
        with pytest.raises(ValueError):
            build_family("stably-bounded", 4, s=0, t=2, a=1, b=2)
        with pytest.raises(ValueError):
            build_family("no-such-family", 4)
        with pytest.raises(ValueError):
            build_family("alpha-beta", 4)


class TestPatternSet:
    def test_duplicate_and_sum_validation(self):
        ps = PatternSet.of(4, [(3, 1), (1, 3)])
        assert len(ps) == 1
        with pytest.raises(ValueError):
            PatternSet.of(4, [(3, 2)])

    def test_extremal_queries(self):
        ps = pset(6, (3, 2, 1), (4, 2))
        assert ps.largest_part() == 4
        assert ps.most_parts() == 3
        empty = PatternSet.of(6, [])
        with pytest.raises(ValueError):
            empty.largest_part()
        with pytest.raises(ValueError):
            empty.most_parts()

    def test_iteration_is_sorted(self):
        ps = enumerate_partitions(5)
        assert list(ps) == sorted(ps.members, reverse=True)

    def test_json_roundtrip(self):
        ps = pset(4, (2, 2), (3, 1))
        assert PatternSet.of(4, ps.to_json()).members == ps.members

    def test_mixed_r_rejected(self):
        with pytest.raises(ValueError):
            pset(4, (3, 1)).difference(pset(3, (2, 1)))
