"""Unit tests for the MSCE branch-and-bound enumerator (Algorithm 4)."""

import itertools
import random

import pytest

from repro.algorithms import maximal_cliques
from repro.core import MSCE, AlphaK, enumerate_signed_cliques
from repro.core.maxtest import is_maximal
from repro.core.parallel import SPLIT_COMPONENT
from repro.exceptions import ParameterError
from repro.fastpath.bitset import bit_count
from repro.fastpath.kernels import component_masks, reduce_mask
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph
from tests.conftest import make_random_signed_graph


def _components(searcher):
    """The reduced components a searcher's run plans frames for."""
    compiled = searcher.compiled
    return component_masks(compiled, reduce_mask(compiled, searcher.params, searcher.reduction))


class TestPaperExample:
    def test_unique_31_clique(self, paper_graph):
        result = MSCE(paper_graph, AlphaK(3, 1), audit=True).enumerate_all()
        assert [sorted(c.nodes) for c in result.cliques] == [[1, 2, 3, 4, 5]]
        assert result.stats.components == 1
        assert not result.timed_out and not result.truncated

    def test_30_cliques_match_example1(self, paper_graph):
        result = MSCE(paper_graph, AlphaK(3, 0), audit=True).enumerate_all()
        found = {frozenset(c.nodes) for c in result.cliques}
        # Example 1 lists the two 4-cliques; the literal Definition 2
        # additionally admits the smaller maximal positive cliques.
        assert frozenset({1, 2, 4, 5}) in found
        assert frozenset({1, 3, 4, 5}) in found


class TestDegenerateRegimes:
    def test_alpha_zero_k_dmax_equals_classic_cliques(self):
        # Section II: alpha=0, k=d-_max degenerates to classic maximal
        # clique enumeration.
        rng = random.Random(51)
        for _ in range(20):
            graph = make_random_signed_graph(rng)
            params = AlphaK(0, graph.max_negative_degree())
            ours = {c.nodes for c in MSCE(graph, params, audit=True).enumerate_all().cliques}
            classic = {frozenset(c) for c in maximal_cliques(graph, sign="all")}
            assert ours == classic

    def test_k_zero_equals_positive_cliques(self):
        # (alpha, 0)-cliques are exactly the maximal cliques of G+.
        rng = random.Random(52)
        for _ in range(20):
            graph = make_random_signed_graph(rng)
            params = AlphaK(3, 0)
            ours = {c.nodes for c in MSCE(graph, params, audit=True).enumerate_all().cliques}
            positive = {frozenset(c) for c in maximal_cliques(graph, sign="positive")}
            assert ours == positive


class TestSelectionStrategies:
    @pytest.mark.parametrize("selection", ["greedy", "random", "first"])
    def test_all_strategies_same_answer(self, paper_graph, selection):
        result = MSCE(paper_graph, AlphaK(3, 1), selection=selection, audit=True).enumerate_all()
        assert [sorted(c.nodes) for c in result.cliques] == [[1, 2, 3, 4, 5]]

    def test_random_strategy_deterministic_per_seed(self):
        rng = random.Random(53)
        graph = make_random_signed_graph(rng, n_range=(8, 12))
        params = AlphaK(1, 1)
        first = MSCE(graph, params, selection="random", seed=9).enumerate_all()
        second = MSCE(graph, params, selection="random", seed=9).enumerate_all()
        assert [c.nodes for c in first.cliques] == [c.nodes for c in second.cliques]

    def test_random_strategy_repeats_on_one_enumerator(self):
        # The draw hashes the seed and the frame, so a second run of the
        # same enumerator walks the same tree as the first.
        graph = load_dataset("slashdot").graph
        searcher = MSCE(graph, AlphaK(4, 3), selection="random", seed=3)
        first = searcher.enumerate_all()
        second = searcher.enumerate_all()
        assert first.stats.as_dict() == second.stats.as_dict()
        assert [c.nodes for c in first.cliques] == [c.nodes for c in second.cliques]

    def test_unknown_strategy_rejected(self, paper_graph):
        with pytest.raises(ParameterError):
            MSCE(paper_graph, AlphaK(3, 1), selection="psychic")


class TestRunControls:
    def test_max_results_truncates(self):
        rng = random.Random(54)
        graph = make_random_signed_graph(rng, n_range=(10, 12), edge_probability_range=(0.7, 0.9))
        params = AlphaK(1, 1)
        full = MSCE(graph, params).enumerate_all()
        if len(full.cliques) < 3:
            pytest.skip("graph too sparse for truncation test")
        capped = MSCE(graph, params, max_results=2).enumerate_all()
        assert len(capped.cliques) == 2
        assert capped.truncated and not capped.timed_out

    def test_max_results_ends_the_driven_run_truncated(self):
        """The cap stops the scheduler's run; it is no task failure to
        retry or quarantine, and every clique returned is maximal."""
        graph = load_dataset("slashdot").graph
        params = AlphaK(3, 3)
        capped = MSCE(graph, params, max_results=5, model="msce").enumerate_all()
        assert capped.truncated and not capped.interrupted
        assert capped.parallel is None
        assert len(capped.cliques) == 5
        for clique in capped.cliques:
            assert is_maximal(graph, set(clique.nodes), params)

    def test_audit_failure_in_a_scheduled_component_raises(self, monkeypatch):
        """An audit failure propagates out of a plain run, also from a
        component large enough to be root-decomposed into scheduler
        tasks (slashdot (4,3) reduces to one 133-node component); it is
        never quarantined into a partial answer."""
        from repro.models.alpha_k import AlphaKConstraint

        def failing_audit(self, graph, clique):
            raise AssertionError("audit rejected the clique")

        monkeypatch.setattr(AlphaKConstraint, "audit_check", failing_audit)
        graph = load_dataset("slashdot").graph
        searcher = MSCE(graph, AlphaK(4, 3), audit=True)
        assert max(bit_count(mask) for mask in _components(searcher)) >= SPLIT_COMPONENT
        with pytest.raises(AssertionError, match="audit rejected"):
            searcher.enumerate_all()
        with pytest.raises(AssertionError, match="audit rejected"):
            searcher.top_r(5)

    def test_time_limit_flag(self, paper_graph):
        result = MSCE(paper_graph, AlphaK(3, 1), time_limit=1e-9).enumerate_all()
        assert result.timed_out

    def test_result_iteration_protocol(self, paper_graph):
        result = MSCE(paper_graph, AlphaK(3, 1)).enumerate_all()
        assert len(result) == 1
        assert [c.size for c in result] == [5]


class TestPruningAblations:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"core_pruning": False},
            {"negative_pruning": False},
            {"clique_pruning": False},
            {"core_pruning": False, "negative_pruning": False, "clique_pruning": False},
        ],
    )
    def test_disabling_rules_keeps_answers(self, overrides):
        rng = random.Random(55)
        for _ in range(10):
            graph = make_random_signed_graph(rng, n_range=(4, 9))
            params = AlphaK(rng.choice([1, 2]), rng.choice([0, 1, 2]))
            reference = {c.nodes for c in MSCE(graph, params).enumerate_all().cliques}
            ablated = {
                c.nodes
                for c in MSCE(graph, params, audit=True, **overrides).enumerate_all().cliques
            }
            assert ablated == reference

    def test_rules_reduce_recursions(self):
        rng = random.Random(56)
        graph = make_random_signed_graph(rng, n_range=(11, 13), edge_probability_range=(0.6, 0.8))
        params = AlphaK(2, 1)
        with_rules = MSCE(graph, params).enumerate_all()
        without = MSCE(graph, params, core_pruning=False, negative_pruning=False).enumerate_all()
        assert with_rules.stats.recursions <= without.stats.recursions


class TestStats:
    def test_counters_populated(self):
        rng = random.Random(57)
        graph = make_random_signed_graph(rng, n_range=(10, 13), edge_probability_range=(0.6, 0.9))
        params = AlphaK(1.5, 1)
        result = MSCE(graph, params).enumerate_all()
        stats = result.stats.as_dict()
        assert stats["recursions"] >= 1
        assert stats["maximal_found"] == len(result.cliques)
        assert result.elapsed_seconds >= 0

    def test_paper_stats_shape(self, paper_graph):
        result = MSCE(paper_graph, AlphaK(3, 1)).enumerate_all()
        assert result.stats.early_terminations >= 1
        assert result.stats.maxtests >= 1


class TestConvenienceApi:
    def test_enumerate_signed_cliques(self, paper_graph):
        cliques = enumerate_signed_cliques(paper_graph, alpha=3, k=1)
        assert [sorted(c.nodes) for c in cliques] == [[1, 2, 3, 4, 5]]

    def test_isolated_graph(self):
        graph = SignedGraph(nodes=[1, 2, 3])
        assert enumerate_signed_cliques(graph, alpha=2, k=1) == []


class TestEnumerateSeeded:
    def test_full_space_empty_seed_equals_enumerate_all(self):
        rng = random.Random(58)
        for _ in range(20):
            graph = make_random_signed_graph(rng)
            params = AlphaK(rng.choice([1, 1.5, 2]), rng.choice([0, 1, 2]))
            full = {c.nodes for c in MSCE(graph, params).enumerate_all().cliques}
            seeded = {
                c.nodes
                for c in MSCE(graph, params)
                .enumerate_seeded(graph.node_set(), frozenset())
                .cliques
            }
            assert seeded == full

    def test_restricted_space_returns_global_maximal_only(self, paper_graph):
        params = AlphaK(3, 0)
        # {1, 2, 4, 5} is maximal; its subsets inside the space are not.
        result = MSCE(paper_graph, params).enumerate_seeded({1, 2, 4, 5}, frozenset())
        assert {frozenset(c.nodes) for c in result.cliques} == {frozenset({1, 2, 4, 5})}
        # A space holding only a non-maximal clique yields nothing.
        result = MSCE(paper_graph, params).enumerate_seeded({1, 2, 4}, frozenset())
        assert result.cliques == []

    def test_empty_space(self, paper_graph):
        result = MSCE(paper_graph, AlphaK(3, 1)).enumerate_seeded(set(), frozenset())
        assert result.cliques == [] and not result.timed_out


class TestMinSizeFloor:
    def test_min_size_filters_and_prunes(self):
        rng = random.Random(59)
        graph = make_random_signed_graph(rng, n_range=(10, 13))
        params = AlphaK(1, 1)
        full = MSCE(graph, params).enumerate_all()
        floored = MSCE(graph, params, min_size=4).enumerate_all()
        assert {c.nodes for c in floored.cliques} == {
            c.nodes for c in full.cliques if c.size >= 4
        }
        assert floored.stats.recursions <= full.stats.recursions

    def test_invalid_min_size(self, paper_graph):
        with pytest.raises(ParameterError):
            MSCE(paper_graph, AlphaK(3, 1), min_size=0)

    def test_api_exposes_min_size(self, paper_graph):
        cliques = enumerate_signed_cliques(paper_graph, alpha=3, k=0, min_size=4)
        assert all(c.size >= 4 for c in cliques)
        assert len(cliques) == 2
