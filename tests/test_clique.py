from itertools import combinations

import pytest

from patcol.clique import VertexCapExceeded, brute_force_clique, is_k_full, omega_sigma
from patcol.hypergraph import SigmaHypergraph, build_complete, build_sigma_explicit, make_hypergraph
from patcol.partitions import PatternSet, enumerate_partitions, monochromatic, rainbow


def pset(r, *parts):
    return PatternSet.of(r, parts)


class TestKFull:
    def test_pair_capacities_witness(self):
        w = is_k_full(pset(3, (2, 1)), 4, 2, 2)
        assert w is not None and w.b == (2, 2)
        assert w.patterns_used == ((2, 1),)

    def test_no_witness_at_five(self):
        assert is_k_full(pset(3, (2, 1)), 5, 3, 3) is None

    def test_rainbow_only_all_singleton_capacities(self):
        w = is_k_full(pset(3, (1, 1, 1)), 5, 5, 2)
        assert w is not None and w.b == (1, 1, 1, 1, 1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            is_k_full(PatternSet.of(3, []), 4, 2, 2)
        with pytest.raises(ValueError):
            is_k_full(pset(3, (2, 1)), 2, 2, 2)

    def test_downward_monotone(self):
        f = pset(4, (2, 2), (2, 1, 1), (3, 1))
        hits = [k for k in range(4, 12) if is_k_full(f, k, 6, 6) is not None]
        assert hits == list(range(4, max(hits) + 1)) if hits else True


class TestOmega:
    def test_desk_instance(self):
        s = SigmaHypergraph(3, 3, 3, pset(3, (2, 1)))
        res = omega_sigma(s)
        assert res.omega == 4 and res.witness.b == (2, 2)

    def test_rainbow_structure(self):
        s = SigmaHypergraph(5, 3, 2, pset(3, (1, 1, 1)))
        assert omega_sigma(s).omega == 5

    def test_hypothesis_bounds_enforced(self):
        with pytest.raises(ValueError, match="n="):
            omega_sigma(SigmaHypergraph(2, 3, 3, pset(3, (1, 1, 1))))
        with pytest.raises(ValueError, match="q="):
            omega_sigma(SigmaHypergraph(3, 3, 1, pset(3, (2, 1))))
        with pytest.raises(ValueError, match="non-empty"):
            omega_sigma(SigmaHypergraph(3, 3, 3, PatternSet.of(3, [])))

    def test_matches_brute_force_exhaustively_r3(self):
        universe = sorted(enumerate_partitions(3))
        sets = [
            PatternSet(3, frozenset(c))
            for size in range(1, len(universe) + 1)
            for c in combinations(universe, size)
        ]
        for n in range(1, 5):
            for q in range(1, 5):
                for types in sets:
                    if n < types.most_parts() or q < types.largest_part():
                        continue
                    s = SigmaHypergraph(n, 3, q, types)
                    got = omega_sigma(s).omega
                    want = brute_force_clique(build_sigma_explicit(s))
                    assert got == want, (n, q, sorted(types.members), got, want)

    def test_matches_brute_force_sampled_r4(self):
        for types in [pset(4, (2, 2)), pset(4, (3, 1), (2, 1, 1)), pset(4, (1, 1, 1, 1), (2, 2))]:
            s = SigmaHypergraph(4, 4, 4, types)
            assert omega_sigma(s).omega == brute_force_clique(build_sigma_explicit(s))

    def test_monotone_in_types(self):
        base = pset(3, (2, 1))
        bigger = pset(3, (2, 1), (3,))
        s1 = SigmaHypergraph(3, 3, 3, base)
        s2 = SigmaHypergraph(3, 3, 3, bigger)
        assert omega_sigma(s1).omega <= omega_sigma(s2).omega

    @pytest.mark.parametrize("r", [3, 4])
    def test_bounded_when_extremes_excluded(self, r):
        universe = sorted(enumerate_partitions(r))
        middle = [p for p in universe if p not in (monochromatic(r), rainbow(r))]
        bound = (r - 1) ** 2
        for size in range(1, len(middle) + 1):
            for c in combinations(middle, size):
                types = PatternSet(r, frozenset(c))
                s = SigmaHypergraph(max(3, types.most_parts()), r, max(3, types.largest_part()), types)
                assert omega_sigma(s).omega <= bound

    def test_uncapped_variant_can_exceed_class_structure(self):
        # Capacities are tied to the structure: the mono-only family's
        # cliques are single classes, so the answer is q, not the vertex count.
        types = pset(3, (3,))
        s = SigmaHypergraph(2, 3, 3, types)
        assert omega_sigma(s).omega == 3


class TestBruteForce:
    def test_complete(self):
        assert brute_force_clique(build_complete(6, 3)) == 6

    def test_edgeless_convention(self):
        assert brute_force_clique(make_hypergraph(3, 5, [])) == 2

    def test_desk_instance(self):
        s = SigmaHypergraph(3, 3, 3, pset(3, (2, 1)))
        assert brute_force_clique(build_sigma_explicit(s)) == 4

    def test_cap(self):
        with pytest.raises(VertexCapExceeded):
            brute_force_clique(build_complete(50, 3), vertex_cap=40)
