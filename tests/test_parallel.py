"""Tests for parallel enumeration: fan-out, root branching, stealing.

The determinism tests are the contract of the parallel enumerator: the
clique *list* (order included) and the aggregated ``SearchStats`` must
be bit-identical across worker counts and repeated runs, and
bit-identical to the sequential enumerator. The hypothesis test checks the underlying invariant that
makes merging dedup-free: root-branch decomposition *partitions* the
set of maximal cliques across tasks.
"""

import itertools
import multiprocessing
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK, enumerate_parallel
from repro.core.bbe import SearchStats, frame_draw
from repro.core.parallel import SMALL_COMPONENT
from repro.core.reduction import reduction_components
from repro.core.scheduler import DEFAULT_TASK_BUDGET, HELPER_START_BUDGETS
from repro.fastpath import compile_graph
from repro.fastpath.search import FrameSearch, decompose_root
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph
from tests.conftest import make_random_signed_graph


def _multi_component_graph(seed: int, components: int = 3) -> SignedGraph:
    """Several disjoint random blobs — the parallel-friendly regime."""
    rng = random.Random(seed)
    graph = SignedGraph()
    offset = 0
    for _ in range(components):
        blob = make_random_signed_graph(
            rng, n_range=(30, 40), edge_probability_range=(0.3, 0.5)
        )
        for u, v, sign in blob.edges():
            graph.add_edge(u + offset, v + offset, sign)
        offset += 100
    return graph


def _rows(result):
    """The clique rows (nodes, +edges, -edges) in result order."""
    return [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques]


def _fingerprint(result):
    """Everything that must be bit-identical across schedules."""
    return (_rows(result), result.stats.as_dict())


class TestParallelEnumeration:
    def test_matches_sequential_on_multi_component_graph(self):
        graph = _multi_component_graph(seed=7)
        params = AlphaK(2, 1)
        sequential = {c.nodes for c in MSCE(graph, params).enumerate_all().cliques}
        parallel = {c.nodes for c in enumerate_parallel(graph, 2, 1, workers=2)}
        assert parallel == sequential

    # Tests asserting absolute MSCE answers pin model="msce" so the
    # suite stays meaningful under a REPRO_MODEL=balanced environment
    # (the relative parallel-vs-sequential contracts are model-generic).
    def test_small_graph_runs_inline(self, paper_graph):
        result = enumerate_parallel(paper_graph, 3, 1, workers=4, model="msce")
        assert [sorted(c.nodes) for c in result] == [[1, 2, 3, 4, 5]]
        # Below SMALL_COMPONENT nothing ships to a worker process.
        assert result.parallel["tasks_seeded"] == 0
        assert result.parallel["inline_components"] == result.stats.components

    def test_workers_one_is_sequential(self, paper_graph):
        cliques = enumerate_parallel(paper_graph, 3, 1, workers=1, model="msce")
        assert len(cliques) == 1

    def test_results_sorted_and_counted(self):
        graph = _multi_component_graph(seed=9)
        cliques = enumerate_parallel(graph, 1.5, 1, workers=2)
        sizes = [c.size for c in cliques]
        assert sizes == sorted(sizes, reverse=True)
        for clique in cliques[:5]:
            rebuilt = sum(
                len(graph.positive_neighbors(n) & clique.nodes) for n in clique.nodes
            ) // 2
            assert clique.positive_edges == rebuilt

    def test_worker_path_matches_sequential_on_reduced_components(self):
        # Two reduced components above SMALL_COMPONENT, and a task budget
        # small enough that the parent forks its helper mid-search: the
        # real multi-process path (not the parent alone) is exercised.
        graph = _multi_component_graph(seed=7)
        params = AlphaK(2, 2)
        components = [set(c) for c in reduction_components(graph, params)]
        assert sum(len(c) >= SMALL_COMPONENT for c in components) >= 2
        sequential = MSCE(graph, params).enumerate_all()
        result = enumerate_parallel(graph, 2, 2, workers=2, task_budget=20)
        assert _fingerprint(result) == _fingerprint(sequential)
        assert result.parallel["helpers"] == 1
        assert result.parallel["helpers_started_after"] >= HELPER_START_BUDGETS * 20

    def test_accepts_compiled_graph(self):
        graph = _multi_component_graph(seed=7)
        compiled = compile_graph(graph)
        sequential = {c.nodes for c in MSCE(graph, AlphaK(2, 1)).enumerate_all().cliques}
        parallel = {c.nodes for c in enumerate_parallel(compiled, 2, 1, workers=2)}
        assert parallel == sequential

    def test_fully_reduced_graph(self):
        graph = _multi_component_graph(seed=5)
        result = enumerate_parallel(graph, 0.99, 50, workers=2, model="msce")
        assert len(result) == 0
        assert result.stats.components == 0


class TestParallelDeterminism:
    """Satellite 4: bit-identical cliques AND stats across schedules."""

    def test_greedy_identical_across_worker_counts_and_sequential(self):
        graph = _multi_component_graph(seed=13)
        sequential = MSCE(graph, AlphaK(1.5, 1)).enumerate_all()
        expected = _fingerprint(sequential)
        for workers in (1, 2, 4):
            result = enumerate_parallel(
                graph, 1.5, 1, workers=workers, small_component=8, split_component=24
            )
            assert _fingerprint(result) == expected

    def test_random_identical_across_worker_counts_and_repeats(self):
        graph = _multi_component_graph(seed=17)
        fingerprints = [
            _fingerprint(
                enumerate_parallel(
                    graph,
                    1.5,
                    1,
                    workers=workers,
                    selection="random",
                    seed=3,
                    small_component=8,
                    split_component=24,
                    task_budget=50,
                )
            )
            # workers=2 twice: repeated runs must match despite
            # timing-dependent work stealing.
            for workers in (1, 2, 2, 4)
        ]
        assert all(fp == fingerprints[0] for fp in fingerprints)

    def test_heavy_resplitting_changes_nothing(self):
        graph = _multi_component_graph(seed=19, components=1)
        sequential = MSCE(graph, AlphaK(1.5, 1)).enumerate_all()
        result = enumerate_parallel(
            graph, 1.5, 1, workers=2, split_component=16, task_budget=10
        )
        assert _fingerprint(result) == _fingerprint(sequential)
        assert result.parallel["frames_resplit"] > 0
        assert result.parallel["tasks_completed"] == (
            result.parallel["tasks_seeded"] + result.parallel["frames_resplit"]
        )

    def test_frame_draw_is_pure_and_in_range(self):
        reprs = [repr(n) for n in range(10)]
        draw = frame_draw(42, reprs)
        assert draw == frame_draw(42, reprs)
        assert 0 <= draw < len(reprs)
        assert frame_draw(43, reprs) != draw or True  # different seed may differ


@pytest.fixture
def started_processes(monkeypatch):
    """Every process the scheduler's fork context creates, in order."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the fork start method is unavailable")
    context = multiprocessing.get_context("fork")
    started = []
    real = context.Process

    def spy(*args, **kwargs):
        process = real(*args, **kwargs)
        started.append(process)
        return process

    monkeypatch.setattr(context, "Process", spy)
    return started


class TestHelperPlan:
    """The parent searches as worker 0 and forks helpers only once a
    search outgrows ``HELPER_START_BUDGETS * task_budget`` frames."""

    def test_stand_in_call_below_the_threshold_starts_no_process(self, started_processes):
        graph = load_dataset("slashdot").graph
        sequential = MSCE(graph, AlphaK(4, 3), model="msce").enumerate_all()
        assert sequential.stats.recursions < HELPER_START_BUDGETS * DEFAULT_TASK_BUDGET
        result = enumerate_parallel(graph, 4, 3, workers=2, model="msce")
        assert _fingerprint(result) == _fingerprint(sequential)
        assert started_processes == []
        assert result.parallel["helpers"] == 0
        assert result.parallel["helpers_started_after"] is None
        assert result.parallel["degraded"] is None
        assert result.parallel["tasks_completed"] > 0

    @pytest.mark.parametrize("workers", (2, 4))
    def test_above_the_threshold_forks_workers_minus_one_helpers(
        self, started_processes, workers
    ):
        graph = _multi_component_graph(seed=13)
        sequential = MSCE(graph, AlphaK(1.5, 1)).enumerate_all()
        assert sequential.stats.recursions > HELPER_START_BUDGETS * 20
        result = enumerate_parallel(
            graph, 1.5, 1, workers=workers, small_component=8, split_component=24, task_budget=20
        )
        assert _fingerprint(result) == _fingerprint(sequential)
        assert len(started_processes) == workers - 1
        assert result.parallel["helpers"] == workers - 1
        assert result.parallel["helpers_started_after"] >= HELPER_START_BUDGETS * 20
        # Parent-run and helper-run tasks alike land in the metrics.
        metrics = result.parallel["metrics"]
        assert metrics["counters"]["worker_tasks"] == result.parallel["tasks_completed"]


class TestExtract:
    def test_extract_matches_recompilation(self):
        rng = random.Random(31)
        for _ in range(10):
            graph = make_random_signed_graph(rng, n_range=(6, 14))
            compiled = compile_graph(graph)
            members = [n for n in graph.nodes() if rng.random() < 0.6]
            mask = compiled.mask_from_nodes(members)
            extracted = compiled.extract(mask)
            induced = SignedGraph(
                [
                    (u, v, sign)
                    for u, v, sign in graph.edges()
                    if u in set(members) and v in set(members)
                ],
                nodes=sorted(members),
            )
            expected = compile_graph(induced)
            assert extracted.nodes == expected.nodes
            for slot in ("xadj", "pxadj", "nxadj", "adj", "padj", "nadj", "signs"):
                assert list(getattr(extracted, slot)) == list(
                    getattr(expected, slot)
                ), slot


class TestRunFrames:
    def test_budget_offload_reaches_fixpoint_with_same_answer(self):
        graph = make_random_signed_graph(
            random.Random(37), n_range=(25, 30), edge_probability_range=(0.4, 0.6)
        )
        compiled = compile_graph(graph)
        params = AlphaK(1.5, 1)
        sequential = MSCE(compiled, params, reduction="none").enumerate_all()
        searcher = MSCE(compiled, params, reduction="none")
        frames = [(compiled.full_mask, 0)]
        nodes_seen = []
        counters = {}
        while frames:
            candidates, included = frames.pop()
            stats, found = SearchStats(), {}
            FrameSearch(searcher, stats, found, [], None, None).run(
                [(candidates, included, None)], budget=3, offload=frames.append
            )
            nodes_seen.extend(found)
            for key, value in stats.as_dict().items():
                counters[key] = counters.get(key, 0) + value
        assert sorted(map(sorted, nodes_seen)) == sorted(
            sorted(c.nodes) for c in sequential.cliques
        )
        assert len(nodes_seen) == len(sequential.cliques)  # no duplicates
        for key in ("recursions", "maxtests", "early_terminations"):
            assert counters[key] == getattr(sequential.stats, key)


def _battery_graph(seed: int = 29, blobs: int = 3) -> SignedGraph:
    """Disjoint small random blobs; with tiny split thresholds every
    blob ships as worker tasks or is root-branch decomposed."""
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


#: Per-model parameters: MSCE reads (alpha, k); the balanced model
#: reads k as the minimum side size.
TOP_R_PARAMS = {"msce": AlphaK(2, 1), "balanced": AlphaK(1, 1)}


@pytest.mark.parametrize("workers", (1, 2, 4))
@pytest.mark.parametrize("model", ("msce", "balanced"))
@pytest.mark.parametrize("r", (1, 3))
def test_parallel_top_r_matches_pure_search(workers, model, r):
    """Per-task cutoffs over shipped frames return the sequential top-r rows."""
    graph = _battery_graph()
    params = TOP_R_PARAMS[model]
    expected = MSCE(graph, params, model=model).top_r(r)
    result = enumerate_parallel(
        graph,
        params.alpha,
        params.k,
        workers=workers,
        top_r=r,
        small_component=2,
        split_component=8,
        model=model,
    )
    assert _rows(result) == _rows(expected)


# -- hypothesis: root-branch decomposition partitions the cliques ------------

graph_specs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.sampled_from([0, 0, 1, 1, 1, -1]),
            min_size=n * (n - 1) // 2,
            max_size=n * (n - 1) // 2,
        ),
    )
)

param_specs = st.tuples(
    st.sampled_from([0, 1, 1.5, 2]),
    st.integers(min_value=0, max_value=2),
)


def _build(spec) -> SignedGraph:
    n, signs = spec
    graph = SignedGraph(nodes=range(n))
    for (u, v), sign in zip(itertools.combinations(range(n), 2), signs):
        if sign:
            graph.add_edge(u, v, sign)
    return graph


@settings(max_examples=60, deadline=None)
@given(graph_specs, param_specs, st.integers(min_value=2, max_value=6))
def test_hypothesis_root_decomposition_partitions_cliques(spec, param_spec, max_tasks):
    """Every maximal clique lands in exactly one bucket: the spine walk
    or one of the root-branch tasks — no duplicates, no misses."""
    graph = _build(spec)
    alpha, k = param_spec
    params = AlphaK(alpha, k)
    compiled = compile_graph(graph)
    sequential = {
        c.nodes for c in MSCE(compiled, params, reduction="none").enumerate_all().cliques
    }
    searcher = MSCE(compiled, params, reduction="none")
    stats, found, heap = SearchStats(), {}, []
    spine = FrameSearch(searcher, stats, found, heap, None, None)
    tasks = decompose_root(spine, compiled.full_mask, max_tasks)
    assert len(tasks) <= max_tasks
    buckets = [set(found)]
    for candidates, included in tasks:
        task_found = {}
        FrameSearch(searcher, SearchStats(), task_found, [], None, None).run(
            [(candidates, included, None)]
        )
        buckets.append(set(task_found))
    union = set().union(*buckets)
    assert union == sequential  # no misses
    assert sum(len(b) for b in buckets) == len(union)  # no duplicates
