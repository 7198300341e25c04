"""Unit tests for query-driven signed community search."""

import random

import pytest

from repro.core import (
    MSCE,
    AlphaK,
    best_signed_clique_for,
    query_candidate_space,
    query_search,
    signed_cliques_containing,
)
from repro.core.maxtest import is_maximal
from repro.exceptions import ParameterError
from tests.conftest import make_random_signed_graph


class TestPaperExampleQueries:
    def test_member_query(self, paper_graph):
        cliques = signed_cliques_containing(paper_graph, {1}, alpha=3, k=1)
        assert [sorted(c.nodes) for c in cliques] == [[1, 2, 3, 4, 5]]

    def test_pair_query(self, paper_graph):
        cliques = signed_cliques_containing(paper_graph, {2, 3}, alpha=3, k=1)
        assert [sorted(c.nodes) for c in cliques] == [[1, 2, 3, 4, 5]]

    def test_outside_mccore_query_is_empty(self, paper_graph):
        assert signed_cliques_containing(paper_graph, {8}, alpha=3, k=1) == []

    def test_non_adjacent_query_is_empty(self, paper_graph):
        # v1 and v8 share no edge: no clique can contain both.
        assert signed_cliques_containing(paper_graph, {1, 8}, alpha=3, k=0) == []

    def test_budget_violating_query_is_empty(self, paper_graph):
        # v2 and v3 are negative neighbours: any clique containing both
        # violates the k=0 budget.
        assert signed_cliques_containing(paper_graph, {2, 3}, alpha=3, k=0) == []

    def test_best_clique(self, paper_graph):
        best = best_signed_clique_for(paper_graph, {4}, alpha=3, k=1)
        assert best is not None and sorted(best.nodes) == [1, 2, 3, 4, 5]
        assert best_signed_clique_for(paper_graph, {8}, alpha=3, k=1) is None


class TestValidation:
    def test_empty_query_rejected(self, paper_graph):
        with pytest.raises(ParameterError):
            signed_cliques_containing(paper_graph, set(), alpha=2, k=1)

    def test_unknown_node_rejected(self, paper_graph):
        with pytest.raises(ParameterError):
            signed_cliques_containing(paper_graph, {42}, alpha=2, k=1)


class TestRunCaps:
    def test_max_results_truncates_the_seeded_search(self, paper_graph):
        params = AlphaK(3, 0)
        assert len(query_search(paper_graph, {5}, 3, 0).cliques) == 5
        capped = query_search(paper_graph, {5}, 3, 0, max_results=1)
        assert capped.truncated and not capped.interrupted
        assert len(capped.cliques) == 1
        (clique,) = capped.cliques
        assert 5 in clique.nodes
        assert is_maximal(paper_graph, set(clique.nodes), params)


class TestCandidateSpace:
    def test_space_covers_answers(self, paper_graph):
        params = AlphaK(3, 1)
        space = query_candidate_space(paper_graph, {1}, params)
        assert space is not None and {1, 2, 3, 4, 5} <= space

    def test_space_none_for_infeasible(self, paper_graph):
        params = AlphaK(3, 0)
        assert query_candidate_space(paper_graph, {2, 3}, params) is None
        assert query_candidate_space(paper_graph, {8}, AlphaK(3, 1)) is None


class TestCrossValidation:
    def test_matches_filtered_full_enumeration(self):
        rng = random.Random(91)
        for _ in range(60):
            graph = make_random_signed_graph(rng)
            alpha = rng.choice([0, 1, 1.5, 2])
            k = rng.choice([0, 1, 2])
            params = AlphaK(alpha, k)
            full = MSCE(graph, params).enumerate_all().cliques
            nodes = sorted(graph.nodes())
            queries = [
                {rng.choice(nodes)},
                {rng.choice(nodes), rng.choice(nodes)},
            ]
            for query in queries:
                expected = {c.nodes for c in full if query <= c.nodes}
                got = {
                    c.nodes
                    for c in signed_cliques_containing(graph, query, alpha, k)
                }
                assert got == expected, (sorted(query), alpha, k)

    def test_query_search_explores_less_than_full(self):
        rng = random.Random(92)
        graph = make_random_signed_graph(
            rng, n_range=(11, 13), edge_probability_range=(0.6, 0.9)
        )
        params = AlphaK(1.5, 1)
        full = MSCE(graph, params).enumerate_all()
        if not full.cliques:
            pytest.skip("no cliques in this draw")
        seed = next(iter(full.cliques[0].nodes))
        scoped = query_search(graph, {seed}, 1.5, 1)
        assert scoped.stats.recursions <= full.stats.recursions

    def test_stand_in_queries_are_globally_maximal(self):
        # On a Table-I stand-in the query search must return exactly the
        # full enumeration's cliques that hold the query (maximality is
        # global, so that filter is the oracle; the full enumeration is
        # pinned by tests/golden/search_reference.json), and the search
        # on the compiled slice must agree with the one over a shared
        # full compilation in cliques and stats.
        from repro.fastpath import compile_graph
        from repro.generators.datasets import load_dataset

        graph = load_dataset("slashdot").graph
        compiled = compile_graph(graph)
        full = MSCE(graph, AlphaK(4, 3)).enumerate_all().cliques
        members = sorted({node for clique in full[:6] for node in clique.nodes})
        rng = random.Random(94)
        queries = [{node} for node in rng.sample(members, 4)]
        queries.append(set(sorted(full[0].nodes)[:2]))
        for query in queries:
            expected = {c.nodes for c in full if query <= c.nodes}
            result = query_search(graph, query, 4, 3)
            assert {c.nodes for c in result.cliques} == expected, sorted(query)
            fast = query_search(graph, query, 4, 3, search_graph=compiled)
            assert [c.nodes for c in fast.cliques] == [c.nodes for c in result.cliques]
            assert fast.stats.as_dict() == result.stats.as_dict()

    def test_results_contain_query_and_are_verified(self):
        rng = random.Random(93)
        graph = make_random_signed_graph(rng, n_range=(8, 12))
        for clique in signed_cliques_containing(graph, {0}, 1, 1):
            assert 0 in clique.nodes
            clique.verify(graph)


class TestEngineQueries:
    """The engine searches a query on the compiled core of its point."""

    def test_query_outside_the_positive_core(self):
        from repro.algorithms.kcore import positive_core
        from repro.core.api import find_mccore
        from repro.serve import SignedCliqueEngine
        from tests.test_serve import planted_graph

        engine = SignedCliqueEngine(planted_graph())
        for step in range(2):
            current = engine.snapshot()
            core = positive_core(current, AlphaK(3, 2).positive_threshold)
            outside = sorted(current.node_set() - core, key=repr)
            inside = sorted(find_mccore(current, 3, 2), key=repr)
            assert outside and inside
            for query in ([outside[0]], [inside[0]], [outside[0], inside[0]]):
                result = engine.query_with_stats(query, 3, 2)
                reference = query_search(current, query, 3, 2)
                assert result.cliques == reference.cliques, (step, query)
                assert result.stats == reference.stats, (step, query)
            assert engine.query_with_stats([inside[0]], 3, 2).cliques
            u, v = inside[:2]
            engine.flip_sign(u, v, "-" if current.has_edge(u, v) and current.sign(u, v) > 0 else "+")

