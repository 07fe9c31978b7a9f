"""Graph assembly: layouts, edge classes, shared-degree normalization."""

import numpy as np
import pytest

from jobfit.errors import ConfigError
from jobfit.graph import (
    EdgeClass,
    NodeLayout,
    build_graph,
    edge_table,
)

from conftest import dense_operator, make_split, random_split


class TestNodeLayout:
    def test_dual_index_blocks(self):
        lay = NodeLayout(n=3, m=2, dual=True)
        assert lay.node_count == 10
        assert lay.cand_active(1) == 1
        assert lay.cand_passive(1) == 4
        assert lay.job_active(1) == 7
        assert lay.job_passive(1) == 9

    def test_single_layout_merges_roles(self):
        lay = NodeLayout(n=3, m=2, dual=False)
        assert lay.node_count == 5
        ids = np.arange(3)
        np.testing.assert_array_equal(lay.cand_active(ids), lay.cand_passive(ids))
        np.testing.assert_array_equal(lay.job_active(np.arange(2)), [3, 4])
        np.testing.assert_array_equal(lay.job_passive(np.arange(2)), [3, 4])


class TestHandWorkedExample:
    """One match between candidate 0 and job 0, n=2 m=1, self as_match.

    Node ids: c0a=0 c1a=1 c0p=2 c1p=3 j0a=4 j0p=5. Expected edges:
    match (0,5) and (2,4); self (0,2), (1,3), (4,5). Degrees [2,1,2,1,2,2],
    so every coefficient is 0.5 except the isolated candidate's self edge.
    """

    @pytest.fixture()
    def graph(self):
        return build_graph(make_split(matches=[(0, 0)]), n=2, m=1, self_edges="as_match")

    def test_edge_counts(self, graph):
        assert graph.edge_counts == {EdgeClass.MATCH: 2, EdgeClass.UNI: 0, EdgeClass.SELF: 3}

    def test_degrees(self, graph):
        np.testing.assert_array_equal(graph.degrees, [2, 1, 2, 1, 2, 2])

    def test_coefficients(self, graph):
        op = graph.operator(omega=1.0).toarray()
        expected = np.zeros((6, 6))
        for u, v, w in [(0, 5, 0.5), (2, 4, 0.5), (0, 2, 0.5), (1, 3, 1.0), (4, 5, 0.5)]:
            expected[u, v] = expected[v, u] = w
        np.testing.assert_allclose(op, expected, atol=0, rtol=0)

    def test_edge_table_rows(self, graph):
        rows = edge_table(graph)
        assert rows == [
            (0, 2, "self", 0.5),
            (0, 5, "match", 0.5),
            (1, 3, "self", 1.0),
            (2, 4, "match", 0.5),
            (4, 5, "self", 0.5),
        ]


class TestEdgeAssembly:
    def test_match_supersedes_overlapping_directed_edges(self):
        split = make_split(applies=[(0, 0), (1, 0)], reachouts=[(0, 0)], matches=[(0, 0)])
        graph = build_graph(split, n=2, m=1, self_edges="off")
        # apply(0,0) and reachout(0,0) collapse into the match's two edges
        assert graph.edge_counts[EdgeClass.MATCH] == 2
        assert graph.edge_counts[EdgeClass.UNI] == 1
        op = graph.operator(omega=0.0).toarray()
        assert op[1, 5] == 0.0  # uni edge vanishes at omega 0
        assert op[0, 5] > 0.0

    def test_duplicate_pairs_within_class_counted_once(self):
        split = make_split(applies=[(0, 0)], reachouts=[(0, 0)])
        dual = build_graph(split, n=1, m=1, self_edges="off")
        assert dual.edge_counts[EdgeClass.UNI] == 2  # distinct directions, distinct edges
        single = build_graph(split, n=1, m=1, self_edges="off", dual=False)
        assert single.edge_counts[EdgeClass.UNI] == 1  # same node pair, one edge

    def test_single_layout_never_has_self_edges(self):
        split = make_split(matches=[(0, 0)])
        graph = build_graph(split, n=2, m=2, self_edges="as_match", dual=False)
        assert graph.edge_counts[EdgeClass.SELF] == 0
        assert graph.self_edges == "off"

    def test_single_layout_hand_example(self):
        split = make_split(matches=[(0, 0)], applies=[(0, 1)], reachouts=[(1, 1)])
        graph = build_graph(split, n=2, m=2, self_edges="off", dual=False)
        # nodes: c0=0 c1=1 j0=2 j1=3; degrees 0:2 1:1 2:1 3:2
        np.testing.assert_array_equal(graph.degrees, [2, 1, 1, 2])
        op = graph.operator(omega=1.0).toarray()
        assert op[0, 2] == pytest.approx(1 / np.sqrt(2))
        assert op[0, 3] == pytest.approx(0.5)
        assert op[1, 3] == pytest.approx(1 / np.sqrt(2))

    def test_isolated_users_have_zero_rows(self):
        split = make_split(matches=[(0, 0)])
        graph = build_graph(split, n=3, m=2, self_edges="off")
        op = graph.operator(omega=1.0).toarray()
        lay = graph.layout
        for node in (lay.cand_active(1), lay.cand_passive(2), lay.job_active(1)):
            assert graph.degrees[node] == 0
            assert not op[int(node)].any()
        assert np.isfinite(op).all()

    def test_invalid_self_mode(self):
        with pytest.raises(ConfigError, match="self_edges"):
            build_graph(make_split(), n=1, m=1, self_edges="sometimes")


class TestOperator:
    def test_matches_dense_oracle(self, rng):
        for dual in (True, False):
            for self_mode in ("as_match", "as_uni", "off"):
                for omega in (0.0, 0.5, 1.0, 2.0):
                    n, m = 9, 7
                    split = random_split(rng, n, m, matches=6, applies=8, reachouts=8)
                    graph = build_graph(split, n, m, self_edges=self_mode, dual=dual)
                    got = graph.operator(omega).toarray()
                    want = dense_operator(split, n, m, self_mode=self_mode, omega=omega, dual=dual)
                    np.testing.assert_allclose(got, want, atol=1e-15)

    def test_symmetric(self, rng):
        split = random_split(rng, 8, 8, matches=5, applies=6, reachouts=6)
        graph = build_graph(split, 8, 8, self_edges="as_uni")
        op = graph.operator(omega=0.7)
        assert (op != op.T).nnz == 0

    def test_zero_diagonal(self, rng):
        split = random_split(rng, 8, 8, matches=5, applies=6, reachouts=6)
        for dual in (True, False):
            graph = build_graph(split, 8, 8, self_edges="as_match", dual=dual)
            assert graph.operator(omega=1.0).diagonal().sum() == 0.0

    def test_operator_cache_returns_same_matrix(self, rng):
        graph = build_graph(random_split(rng, 5, 5, 3, 3, 3), 5, 5)
        assert graph.operator(1.0) is graph.operator(1.0)
        assert graph.operator(0.5) is not graph.operator(1.0)


class TestEdgeTable:
    def test_rows_sorted_and_unique(self, rng):
        split = random_split(rng, 7, 7, 5, 6, 6)
        graph = build_graph(split, 7, 7, self_edges="as_uni")
        rows = edge_table(graph)
        assert rows == sorted(rows)
        assert len({(r[0], r[1]) for r in rows}) == len(rows)
        for src, dst, cls, coeff in rows:
            assert src < dst
            assert cls in {"match", "uni", "self"}
            assert coeff > 0
        total_edges = sum(graph.edge_counts.values())
        assert len(rows) == total_edges
