"""Differential battery: warm-started top-r must be answer-invariant.

The soundness contract of :mod:`repro.heuristics` is that every
incumbent preloaded into the top-r size heap is a genuine maximal
reportable clique of the active model. Then ``heap[0]`` is always a
lower bound on the true r-th largest size, so the cutoff prune can
only discard subtrees the unseeded search would also have found
fruitless *later* — never a top-r answer. These tests prove the
contract differentially:

* seeded and unseeded runs are **bit-identical** (same cliques, same
  order, same edge counts) across worker counts {1, 2, 4}, kernel
  backends, constraint models and warm-start strategies;
* a seeded run never explores **more** of the search tree
  (``recursions`` is monotone; ``topr_prunes`` deliberately is not);
* every incumbent a strategy produces is feasible, reportable and
  maximal under the active model (hypothesis property);
* anything less than a valid incumbent set is rejected with
  ``ParameterError`` before the search starts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK, enumerate_grid, enumerate_parallel
from repro.core.api import top_r_signed_cliques
from repro.exceptions import ParameterError
from repro.fastpath import compile_graph
from repro.fastpath.backend import BACKENDS
from repro.graphs import SignedGraph
from repro.heuristics import (
    WARM_START_STRATEGIES,
    prepare_warm_start,
    validate_warm_start,
    warm_start_cliques,
)
from repro.models import make_constraint
from tests.conftest import PAPER_EDGES, make_random_signed_graph

MODELS_UNDER_TEST = ("msce", "balanced")

#: Per-model parameters: MSCE reads (alpha, k); the balanced model
#: reads k as the minimum side size (tau).
PARAMS = {"msce": AlphaK(2, 1), "balanced": AlphaK(1, 1)}


def _battery_graph(seed: int = 29, blobs: int = 3) -> SignedGraph:
    """Disjoint random blobs — forces real task shipping when split."""
    rng = random.Random(seed)
    graph = SignedGraph()
    offset = 0
    for _ in range(blobs):
        blob = make_random_signed_graph(
            rng,
            n_range=(10, 14),
            edge_probability_range=(0.4, 0.7),
            negative_probability_range=(0.1, 0.4),
        )
        for u, v, sign in blob.edges():
            graph.add_edge(u + offset, v + offset, sign)
        offset += 100
    return graph


def _rows(result):
    """Everything that must be bit-identical between seeded/unseeded."""
    return [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques]


# ---------------------------------------------------------------------------
# Parallel battery: workers x models x r, real task shipping
# ---------------------------------------------------------------------------


class TestParallelDifferential:
    @pytest.mark.parametrize("model", MODELS_UNDER_TEST)
    @pytest.mark.parametrize("r", (1, 3))
    def test_seeded_matches_unseeded_across_workers(self, model, r):
        graph = _battery_graph()
        params = PARAMS[model]
        kwargs = dict(small_component=2, split_component=8, model=model)
        reference = None
        for workers in (1, 2, 4):
            unseeded = enumerate_parallel(
                graph, params.alpha, params.k, workers=workers, top_r=r, **kwargs
            )
            seeded = enumerate_parallel(
                graph,
                params.alpha,
                params.k,
                workers=workers,
                top_r=r,
                warm_start="portfolio",
                **kwargs,
            )
            assert _rows(seeded) == _rows(unseeded)
            assert seeded.stats.recursions <= unseeded.stats.recursions
            assert seeded.stats.maximal_found == unseeded.stats.maximal_found
            assert seeded.parallel["seeded"]["strategy"] == "portfolio"
            assert "seeded" not in unseeded.parallel
            if reference is None:
                reference = _rows(unseeded)
            # The answer is also invariant across worker counts.
            assert _rows(unseeded) == reference

    def test_parallel_matches_sequential_seeded(self):
        graph = _battery_graph(seed=43)
        params = PARAMS["msce"]
        sequential = MSCE(graph, params, model="msce", compile=False).top_r(3)
        for workers in (1, 2):
            seeded = enumerate_parallel(
                graph,
                params.alpha,
                params.k,
                workers=workers,
                top_r=3,
                warm_start="spectral",
                small_component=2,
                split_component=8,
                model="msce",
            )
            assert _rows(seeded) == _rows(sequential)


# ---------------------------------------------------------------------------
# Sequential battery: backends x models x strategies
# ---------------------------------------------------------------------------


class TestSequentialDifferential:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("model", MODELS_UNDER_TEST)
    def test_backends_bit_identical(self, backend, model):
        graph = _battery_graph(seed=31, blobs=1)
        compiled = compile_graph(graph)
        params = PARAMS[model]
        for r in (1, 3):
            unseeded = MSCE(compiled, params, backend=backend, model=model).top_r(r)
            for strategy in WARM_START_STRATEGIES:
                seeded = MSCE(compiled, params, backend=backend, model=model).top_r(
                    r, warm_start=strategy
                )
                assert _rows(seeded) == _rows(unseeded)
                assert seeded.stats.recursions <= unseeded.stats.recursions
                assert seeded.parallel["seeded"]["strategy"] == strategy

    def test_paper_graph_exact_answer(self, paper_graph):
        # alpha=3, k=1: the unique maximal (3,1)-clique is {v1..v5}.
        for strategy in WARM_START_STRATEGIES:
            result = MSCE(paper_graph, AlphaK(3, 1)).top_r(1, warm_start=strategy)
            assert [set(c.nodes) for c in result.cliques] == [{1, 2, 3, 4, 5}]

    def test_explicit_incumbents_accepted(self, paper_graph):
        params = AlphaK(2, 1)
        truth = MSCE(paper_graph, params).top_r(3)
        # As SignedClique objects and as bare node collections.
        for warm in (truth.cliques, [set(c.nodes) for c in truth.cliques]):
            seeded = MSCE(paper_graph, params).top_r(3, warm_start=warm)
            assert _rows(seeded) == _rows(truth)
            assert seeded.stats.recursions <= truth.stats.recursions

    def test_api_wrapper_threads_warm_start(self, paper_graph):
        unseeded = top_r_signed_cliques(paper_graph, 2, 1, r=2)
        seeded = top_r_signed_cliques(paper_graph, 2, 1, r=2, warm_start="portfolio")
        assert [c.nodes for c in seeded] == [c.nodes for c in unseeded]

    def test_audit_mode_tolerates_refound_incumbents(self, paper_graph):
        params = AlphaK(2, 1)
        unseeded = MSCE(paper_graph, params).top_r(2)
        seeded = MSCE(paper_graph, params, audit=True).top_r(2, warm_start="portfolio")
        assert _rows(seeded) == _rows(unseeded)


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


class TestProperties:
    @given(seed=st.integers(0, 10**6), model=st.sampled_from(MODELS_UNDER_TEST))
    @settings(max_examples=25, deadline=None)
    def test_portfolio_incumbents_are_sound(self, seed, model):
        """Every incumbent is a distinct maximal reportable model clique."""
        graph = make_random_signed_graph(random.Random(seed))
        params = PARAMS[model]
        warm = warm_start_cliques(graph, params, 3, model=model)
        constraint = make_constraint(model, params)
        maxtest = constraint.make_maxtest("exact")
        seen = set()
        for clique in warm.cliques:
            assert clique.nodes not in seen
            seen.add(clique.nodes)
            members = set(clique.nodes)
            assert constraint.feasible(graph, members)
            assert constraint.reportable(graph, members)
            assert maxtest(graph, members, params)

    @given(
        seed=st.integers(0, 10**6),
        model=st.sampled_from(MODELS_UNDER_TEST),
        r=st.sampled_from((1, 2, 3)),
        strategy=st.sampled_from(WARM_START_STRATEGIES),
    )
    @settings(max_examples=30, deadline=None)
    def test_seeded_topr_is_answer_invariant(self, seed, model, r, strategy):
        graph = make_random_signed_graph(random.Random(seed))
        params = PARAMS[model]
        unseeded = MSCE(graph, params, model=model).top_r(r)
        seeded = MSCE(graph, params, model=model).top_r(r, warm_start=strategy)
        assert _rows(seeded) == _rows(unseeded)
        assert seeded.stats.recursions <= unseeded.stats.recursions


# ---------------------------------------------------------------------------
# Rejection: invalid warm starts never reach the search
# ---------------------------------------------------------------------------


class TestValidation:
    @pytest.fixture
    def graph(self):
        return SignedGraph(PAPER_EDGES)

    def test_unknown_strategy_rejected(self, graph):
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1)).top_r(2, warm_start="zap")

    def test_non_iterable_rejected(self, graph):
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1)).top_r(2, warm_start=42)

    def test_non_maximal_subset_rejected(self, graph):
        # {1, 2} is a valid (2,1)-clique but not maximal.
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1)).top_r(2, warm_start=[{1, 2}])

    def test_unknown_node_rejected(self, graph):
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1)).top_r(2, warm_start=[{1, 999}])

    def test_empty_incumbent_rejected(self, graph):
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1)).top_r(2, warm_start=[set()])

    def test_duplicate_incumbents_rejected(self, graph):
        truth = MSCE(graph, AlphaK(3, 1)).top_r(1).cliques
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(3, 1)).top_r(1, warm_start=[truth[0], truth[0]])

    def test_below_min_size_rejected(self, graph):
        truth = MSCE(graph, AlphaK(2, 1)).top_r(3).cliques
        small = min(truth, key=lambda c: c.size)
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1), min_size=small.size + 1).top_r(
                3, warm_start=[small]
            )

    def test_warm_start_with_max_results_rejected(self, graph):
        with pytest.raises(ParameterError):
            MSCE(graph, AlphaK(2, 1), max_results=5).top_r(2, warm_start="portfolio")

    def test_parallel_warm_start_requires_top_r(self, graph):
        with pytest.raises(ParameterError):
            enumerate_parallel(graph, 2, 1, workers=1, warm_start="portfolio")
        with pytest.raises(ParameterError, match="top_r"):
            enumerate_grid(graph, [AlphaK(2, 1)], warm_start="portfolio")
        # Incumbents belong to one point, so a grid cannot share them.
        with pytest.raises(ParameterError, match="single"):
            enumerate_grid(
                graph, [AlphaK(2, 1), AlphaK(3, 1)], top_r=2, warm_start="portfolio"
            )

    def test_wrong_model_incumbent_rejected(self, graph):
        # A maximal MSCE clique need not be balanced; validation runs
        # under the *active* model.
        msce_truth = MSCE(graph, AlphaK(2, 1)).top_r(1).cliques
        balanced = MSCE(graph, PARAMS["balanced"], model="balanced")
        probe = validate_warm_start  # direct API, clearer error surface
        if not make_constraint("balanced", PARAMS["balanced"]).feasible(
            graph, set(msce_truth[0].nodes)
        ):
            with pytest.raises(ParameterError):
                balanced.top_r(1, warm_start=msce_truth)

    def test_validate_warm_start_normalises(self, graph):
        params = AlphaK(3, 1)
        rows = validate_warm_start(graph, params, [{1, 2, 3, 4, 5}])
        assert len(rows) == 1
        assert rows[0].nodes == frozenset({1, 2, 3, 4, 5})
        assert rows[0].positive_edges == 9
        assert rows[0].negative_edges == 1

    def test_prepare_warm_start_none_is_none(self, graph):
        assert prepare_warm_start(graph, AlphaK(2, 1), 2, None) is None
