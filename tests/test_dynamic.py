"""Unit and property tests for the dynamic maximal-clique index."""

import random

import pytest

from repro.core import MSCE, AlphaK, DynamicSignedCliqueIndex
from repro.exceptions import GraphError, ParameterError
from repro.graphs import SignedGraph
from tests.conftest import make_random_signed_graph


def _fresh(graph, params):
    return {c.nodes for c in MSCE(graph, params).enumerate_all().cliques}


class TestBasicUpdates:
    def test_initial_state(self, paper_graph):
        index = DynamicSignedCliqueIndex(paper_graph, AlphaK(3, 1))
        assert [sorted(c.nodes) for c in index.cliques()] == [[1, 2, 3, 4, 5]]
        assert len(index) == 1

    def test_graph_is_copied(self, paper_graph):
        index = DynamicSignedCliqueIndex(paper_graph, AlphaK(3, 1))
        index.remove_node(1)
        assert paper_graph.has_node(1)

    def test_edge_addition_extends_clique(self):
        graph = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")], nodes=[4])
        params = AlphaK(2, 1)
        index = DynamicSignedCliqueIndex(graph, params)
        for other in (1, 2, 3):
            index.add_edge(4, other, "+")
        assert [sorted(c.nodes) for c in index.cliques()] == [[1, 2, 3, 4]]
        assert _fresh(index.graph, params) == {c.nodes for c in index.cliques()}

    def test_edge_removal_splits_clique(self, paper_graph):
        params = AlphaK(3, 1)
        index = DynamicSignedCliqueIndex(paper_graph, params)
        index.remove_edge(1, 2)
        assert _fresh(index.graph, params) == {c.nodes for c in index.cliques()}

    def test_sign_flip(self, paper_graph):
        params = AlphaK(3, 1)
        index = DynamicSignedCliqueIndex(paper_graph, params)
        index.set_sign(2, 3, "+")  # conflict resolved
        assert _fresh(index.graph, params) == {c.nodes for c in index.cliques()}
        index.set_sign(4, 5, "-")  # new conflict
        assert _fresh(index.graph, params) == {c.nodes for c in index.cliques()}

    def test_node_removal(self, paper_graph):
        params = AlphaK(3, 1)
        index = DynamicSignedCliqueIndex(paper_graph, params)
        index.remove_node(1)
        assert _fresh(index.graph, params) == {c.nodes for c in index.cliques()}
        with pytest.raises(GraphError):
            index.remove_node(1)

    def test_add_isolated_node(self, paper_graph):
        index = DynamicSignedCliqueIndex(paper_graph, AlphaK(3, 1))
        before = {c.nodes for c in index.cliques()}
        index.add_node("new")
        assert {c.nodes for c in index.cliques()} == before
        # At ceil(alpha * k) == 0 a new isolated node is itself a maximal
        # clique, for the index as for a fresh enumeration.
        triangle = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
        for params in (AlphaK(3, 0), AlphaK(0, 2)):
            index = DynamicSignedCliqueIndex(triangle, params)
            index.add_node(9)
            assert sorted(sorted(c.nodes) for c in index.cliques()) == [[1, 2, 3], [9]]
            assert {c.nodes for c in index.cliques()} == _fresh(index.graph, params)
            index.add_node(9)  # a known node changes nothing
            assert len(index) == 2

    def test_query_helpers(self, paper_graph):
        index = DynamicSignedCliqueIndex(paper_graph, AlphaK(3, 0))
        assert len(index.top_r(2)) == 2
        containing = index.cliques_containing(5)
        assert containing and all(5 in c.nodes for c in containing)

    @pytest.mark.parametrize("r", [0, -1])
    def test_non_positive_r_is_rejected(self, paper_graph, r):
        index = DynamicSignedCliqueIndex(paper_graph, AlphaK(3, 0))
        with pytest.raises(ParameterError):
            index.top_r(r)

    def test_apply_edits(self, paper_graph):
        params = AlphaK(3, 1)
        index = DynamicSignedCliqueIndex(paper_graph, params)
        index.apply_edits([
            ("flip", 2, 3, "+"),
            ("remove", 6, 8),
            ("add", 1, 6, "+"),
        ])
        assert index.updates_applied == 3
        assert _fresh(index.graph, params) == {c.nodes for c in index.cliques()}

    def test_unknown_edit_operation(self, paper_graph):
        index = DynamicSignedCliqueIndex(paper_graph, AlphaK(3, 1))
        with pytest.raises(GraphError):
            index.apply_edits([("teleport", 1, 2)])


class TestRandomEditScripts:
    def test_matches_fresh_enumeration_throughout(self):
        rng = random.Random(101)
        for trial in range(20):
            graph = make_random_signed_graph(rng, n_range=(5, 10))
            params = AlphaK(rng.choice([0, 1, 1.5, 2]), rng.choice([0, 1, 2]))
            index = DynamicSignedCliqueIndex(graph, params)
            nodes = sorted(graph.nodes())
            for _step in range(10):
                u, v = rng.sample(nodes, 2)
                if not index.graph.has_node(u) or not index.graph.has_node(v):
                    continue
                if index.graph.has_edge(u, v):
                    if rng.random() < 0.5:
                        index.remove_edge(u, v)
                    else:
                        index.set_sign(u, v, -index.graph.sign(u, v))
                else:
                    index.add_edge(u, v, rng.choice([1, -1]))
                assert _fresh(index.graph, params) == {
                    c.nodes for c in index.cliques()
                }, trial
