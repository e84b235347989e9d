import json
from collections import Counter
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from patcol.hypergraph import (
    EdgeCapExceeded,
    SigmaHypergraph,
    build_complete,
    build_grid,
    build_ramsey,
    build_sigma_explicit,
    edge_type,
    make_hypergraph,
    read_hypergraph,
    write_hypergraph,
)
from patcol.partitions import PatternSet, enumerate_partitions

from oracles import filter_sigma_edges


def pset(r, *parts):
    return PatternSet.of(r, parts)


class TestComplete:
    @pytest.mark.parametrize("n,r,edges", [(4, 3, 4), (9, 3, 84), (5, 5, 1)])
    def test_edge_counts(self, n, r, edges):
        h = build_complete(n, r)
        assert len(h.edges) == edges and h.vertex_count == n

    def test_rejects_n_below_r(self):
        with pytest.raises(ValueError):
            build_complete(2, 3)

    def test_edge_cap_refusal(self):
        assert len(build_complete(10, 3, edge_cap=120).edges) == 120
        with pytest.raises(EdgeCapExceeded):
            build_complete(10, 3, edge_cap=119)
        with pytest.raises(EdgeCapExceeded):
            build_complete(10**6, 3)  # refused before any edge is built


class TestSigmaExplicit:
    def test_small_counts(self):
        assert len(build_sigma_explicit(SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))).edges) == 4
        assert len(build_sigma_explicit(SigmaHypergraph(3, 3, 3, pset(3, (2, 1)))).edges) == 54
        assert len(build_sigma_explicit(SigmaHypergraph(4, 3, 2, pset(3, (1, 1, 1)))).edges) == 32

    def test_matches_subset_filter_exhaustively(self):
        # Every structure with n <= 4, r <= 4, q <= 3 and every type set.
        for r in (1, 2, 3, 4):
            universe = sorted(enumerate_partitions(r))
            type_sets = [
                PatternSet(r, frozenset(c))
                for size in range(1, len(universe) + 1)
                for c in combinations(universe, size)
            ]
            for n in (1, 2, 3, 4):
                for q in (1, 2, 3):
                    for ts in type_sets:
                        s = SigmaHypergraph(n, r, q, ts)
                        got = set(build_sigma_explicit(s).edges)
                        assert got == filter_sigma_edges(s), (n, r, q, sorted(ts.members))

    def test_disjoint_type_sets_partition_the_edges(self):
        s1 = SigmaHypergraph(3, 4, 3, pset(4, (3, 1)))
        s2 = SigmaHypergraph(3, 4, 3, pset(4, (2, 2), (2, 1, 1)))
        both = SigmaHypergraph(3, 4, 3, PatternSet.of(4, [*s1.edge_types, *s2.edge_types]))
        e1 = build_sigma_explicit(s1).edges
        e2 = build_sigma_explicit(s2).edges
        assert e1.isdisjoint(e2)
        assert build_sigma_explicit(both).edges == e1 | e2

    def test_unrealizable_types_flagged_and_skipped(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (3,), (1, 1, 1), (2, 1)))
        assert set(s.unrealizable_types()) == {(3,), (1, 1, 1)}  # q=2 blocks (3); n=2 blocks rainbow
        assert set(s.realizable_types()) == {(2, 1)}
        assert len(build_sigma_explicit(s).edges) == 4

    def test_edge_cap_refusal(self):
        s = SigmaHypergraph(8, 4, 8, enumerate_partitions(4))
        with pytest.raises(EdgeCapExceeded):
            build_sigma_explicit(s, edge_cap=1000)


class TestEdgeType:
    def test_examples(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        assert edge_type(s, (0, 1, 2)) == (2, 1)
        s2 = SigmaHypergraph(2, 3, 3, pset(3, (2, 1)))
        assert edge_type(s2, (0, 1, 2)) == (3,)
        s3 = SigmaHypergraph(3, 3, 2, pset(3, (2, 1)))
        assert edge_type(s3, (0, 2, 4)) == (1, 1, 1)

    def test_wrong_size_rejected(self):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        with pytest.raises(ValueError):
            edge_type(s, (0, 1))

    @pytest.mark.parametrize("v", [-1, 4])
    def test_class_of_out_of_range_rejected(self, v):
        s = SigmaHypergraph(2, 3, 2, pset(3, (2, 1)))
        with pytest.raises(ValueError, match=r"outside \[0, 4\)"):
            s.class_of(v)


class TestGrid:
    def test_paper_instance_shape(self):
        q31 = pset(4, (3, 1))
        h = build_grid(4, 2, 2, q31, q31, 4)
        assert h.vertex_count == 16
        # Regression constant, first obtained from the subset filter below.
        assert len(h.edges) == 96

    def test_edges_against_direct_filter(self):
        q31 = pset(4, (3, 1))
        h = build_grid(4, 2, 2, q31, q31, 4)

        def row(v):
            return (v // 2) // 2

        def col(v):
            return (v // 2) % 2

        expected = set()
        for sub in combinations(range(16), 4):
            rows, cols = {}, {}
            for v in sub:
                rows[row(v)] = rows.get(row(v), 0) + 1
                cols[col(v)] = cols.get(col(v), 0) + 1
            rp = tuple(sorted(rows.values(), reverse=True))
            cp = tuple(sorted(cols.values(), reverse=True))
            if rp == (3, 1) and cp == (3, 1):
                expected.add(sub)
        assert set(h.edges) == expected

    def test_membership_examples(self):
        q31 = pset(4, (3, 1))
        h = build_grid(4, 2, 2, q31, q31, 4)
        # Three vertices in row 0 (cells C00, C01) and one in row 1, columns 3+1.
        assert (0, 1, 2, 4) in h.edges
        # Row split (2,2) is not an edge.
        assert (0, 1, 4, 5) not in h.edges

    def test_full_patterns_equal_complete(self):
        p4 = enumerate_partitions(4)
        h = build_grid(2, 2, 2, p4, p4, 4)
        assert h.edges == build_complete(8, 4).edges

    def test_pattern_sets_over_another_r_rejected(self):
        q31, q21 = pset(4, (3, 1)), pset(3, (2, 1))
        for rp, cp in ((q21, q31), (q31, q21)):
            with pytest.raises(ValueError, match="partitions of r"):
                build_grid(4, 2, 2, rp, cp, 4)

    def test_edge_cap_refusal(self):
        q31 = pset(4, (3, 1))
        assert len(build_grid(4, 2, 2, q31, q31, 4, edge_cap=comb(16, 4)).edges) == 96
        with pytest.raises(EdgeCapExceeded, match="1820 subsets"):
            build_grid(4, 2, 2, q31, q31, 4, edge_cap=comb(16, 4) - 1)


class TestRamsey:
    @pytest.mark.parametrize(
        "n,r,p,vertices,edges,uniformity",
        [(6, 2, 3, 15, 20, 3), (5, 2, 3, 10, 10, 3), (6, 2, 4, 15, 15, 6)],
    )
    def test_shapes(self, n, r, p, vertices, edges, uniformity):
        h = build_ramsey(n, r, p)
        assert (h.vertex_count, len(h.edges), h.r) == (vertices, edges, uniformity)

    @pytest.mark.parametrize("n,r,p", [(6, 2, 3), (6, 2, 4), (6, 3, 4)])
    def test_vertex_degrees(self, n, r, p):
        h = build_ramsey(n, r, p)
        want = comb(n - r, p - r)
        assert Counter(v for e in h.edges for v in e) == dict.fromkeys(range(h.vertex_count), want)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_ramsey(6, 3, 3)
        with pytest.raises(ValueError):
            build_ramsey(3, 2, 4)

    def test_edge_cap_refusal(self):
        assert len(build_ramsey(8, 2, 3, edge_cap=56).edges) == 56
        with pytest.raises(EdgeCapExceeded):
            build_ramsey(8, 2, 3, edge_cap=55)


class TestFileIO:
    def test_roundtrip(self, tmp_path):
        h = build_complete(4, 3)
        path = str(tmp_path / "h.json")
        write_hypergraph(h, path)
        assert read_hypergraph(path) == h

    def test_canonical_bytes(self, tmp_path):
        h = build_sigma_explicit(SigmaHypergraph(2, 3, 2, pset(3, (2, 1))))
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_hypergraph(h, p1)
        write_hypergraph(read_hypergraph(p1), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()
        data = json.loads(Path(p1).read_text())
        assert data["edges"] == sorted(data["edges"])
        assert all(e == sorted(e) for e in data["edges"])

    def test_uniformity_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"r": 3, "vertices": 4, "edges": [[0, 1]]}')
        with pytest.raises(ValueError, match="edge #0"):
            read_hypergraph(str(path))

    def test_duplicate_edge_warns_and_dedupes(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"r": 3, "vertices": 4, "edges": [[0,1,2],[2,1,0]]}')
        with pytest.warns(UserWarning, match="duplicate"):
            h = read_hypergraph(str(path))
        assert len(h.edges) == 1

    def test_malformed_json_names_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"r": 3,\n "vertices": }')
        with pytest.raises(ValueError, match="line 2"):
            read_hypergraph(str(path))

    @pytest.mark.parametrize(
        "text",
        [
            '{"r": true, "vertices": 4, "edges": [[0]]}',
            '{"r": 3, "vertices": true, "edges": []}',
            '{"r": 3, "vertices": 4, "edges": [[0, true, 2]]}',
        ],
    )
    def test_bools_rejected(self, tmp_path, text):
        path = tmp_path / "bools.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="integers"):
            read_hypergraph(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text('{"r": 3, "edges": []}')
        with pytest.raises(ValueError, match="vertices"):
            read_hypergraph(str(path))


class TestValidation:
    def test_edge_outside_vertex_range(self):
        with pytest.raises(ValueError):
            make_hypergraph(2, 3, [(0, 5)])

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(ValueError):
            make_hypergraph(2, 3, [(1, 1)])

    def test_no_vertices_rejected(self):
        with pytest.raises(ValueError, match="vertex_count must be positive"):
            make_hypergraph(2, 0, [])
