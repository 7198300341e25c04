"""Unit tests for k-core computations and the paper's ICore (Algorithm 1)."""

import random

import pytest

from repro.algorithms import (
    core_decomposition,
    core_numbers,
    has_k_core,
    icore,
    k_core,
    max_core_number,
    positive_core,
)
from repro.exceptions import ParameterError
from repro.graphs import SignedGraph
from tests.conftest import make_random_signed_graph


class TestCoreNumbers:
    def test_clique_core_numbers(self):
        clique = SignedGraph([(u, v, "+") for u in range(5) for v in range(u + 1, 5)])
        assert set(core_numbers(clique).values()) == {4}

    def test_path_core_numbers(self):
        path = SignedGraph([(0, 1, "+"), (1, 2, "-"), (2, 3, "+")])
        assert set(core_numbers(path).values()) == {1}

    def test_core_numbers_definition_on_random_graphs(self):
        # A node's core number c means: it survives peeling at c but not c+1.
        rng = random.Random(5)
        for _ in range(20):
            graph = make_random_signed_graph(rng)
            numbers = core_numbers(graph)
            for node, c in numbers.items():
                assert node in k_core(graph, c)
                assert node not in k_core(graph, c + 1)

    def test_positive_core_numbers(self, paper_graph):
        numbers = core_numbers(paper_graph, sign="positive")
        # v8 has only one positive neighbour (v6).
        assert numbers[8] == 1
        assert max(numbers.values()) == 3

    def test_empty_graph(self):
        assert core_numbers(SignedGraph()) == {}
        assert max_core_number(SignedGraph()) == 0

    def test_core_decomposition_partitions(self, paper_graph):
        shells = core_decomposition(paper_graph)
        total = sum(len(members) for members in shells.values())
        assert total == 8


class TestKCore:
    def test_paper_positive_3core(self, paper_graph):
        # Example 2: the maximal 3-core of G+ is {v1..v7}.
        assert positive_core(paper_graph, 3) == {1, 2, 3, 4, 5, 6, 7}

    def test_k_core_degrees_at_least_k(self):
        rng = random.Random(6)
        for _ in range(20):
            graph = make_random_signed_graph(rng)
            for k in range(4):
                members = k_core(graph, k)
                for node in members:
                    assert len(graph.neighbors(node) & members) >= k

    def test_maximality(self):
        # No node outside the k-core can be added back.
        rng = random.Random(7)
        graph = make_random_signed_graph(rng, n_range=(8, 12))
        members = k_core(graph, 3)
        for node in graph.nodes():
            if node in members:
                continue
            extended = members | {node}
            assert len(graph.neighbors(node) & extended) < 3 or not _is_core(
                graph, extended, 3
            )

    def test_within_scope(self, paper_graph):
        scoped = k_core(paper_graph, 2, within={1, 2, 3, 4})
        assert scoped == {1, 2, 3, 4}

    def test_invalid_sign_selector(self, paper_graph):
        with pytest.raises(ParameterError):
            k_core(paper_graph, 1, sign="sideways")

    def test_negative_tau_rejected(self, paper_graph):
        with pytest.raises(ParameterError):
            icore(paper_graph, tau=-1)


def _is_core(graph, members, k):
    return all(len(graph.neighbors(node) & members) >= k for node in members)


class TestICore:
    def test_fixed_node_survives_or_fails(self, paper_graph):
        flag, members = icore(paper_graph, fixed={1}, tau=3, sign="positive")
        assert flag and 1 in members

    def test_fixed_node_peeled_fails_fast(self, paper_graph):
        # v8 has positive degree 1; fixing it at tau=3 must fail.
        flag, members = icore(paper_graph, fixed={8}, tau=3, sign="positive")
        assert not flag and members == set()

    def test_fixed_node_outside_scope_fails(self, paper_graph):
        flag, members = icore(paper_graph, fixed={8}, tau=0, within={1, 2, 3})
        assert not flag

    def test_empty_core_reports_failure(self):
        graph = SignedGraph([(1, 2, "+")])
        flag, members = icore(graph, tau=5)
        assert not flag and members == set()

    def test_tau_zero_keeps_everything(self, paper_graph):
        flag, members = icore(paper_graph, tau=0)
        assert flag and members == paper_graph.node_set()

    def test_has_k_core(self, paper_graph):
        assert has_k_core(paper_graph, 3, sign="positive")
        assert not has_k_core(paper_graph, 5, sign="positive")
