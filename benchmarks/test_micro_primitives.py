"""Micro-benchmarks of the algorithmic primitives (regression suite).

Not a paper exhibit — these pin the cost of the hot building blocks
(core peeling, ego-triangle initialisation, Bron–Kerbosch, maximality
testing) so refactors that regress the enumerator show up at the
primitive level first. The vectorized-vs-pure comparison at the bottom
additionally records a speedup table under
``benchmarks/results/micro_primitives.txt``.
"""

import random
import time

import pytest

from benchmarks.conftest import record_exhibits
from repro.algorithms import core_numbers, icore, maximal_cliques
from repro.algorithms.triangles import all_ego_triangle_degrees, triangle_count
from repro.core import AlphaK
from repro.core.maxtest import is_maximal
from repro.core.mcnew import mccore_new
from repro.experiments.harness import Exhibit, Series
from repro.experiments.registry import get_dataset
from repro.fastpath import compile_graph
from repro.graphs import SignedGraph


def test_icore_positive(benchmark):
    graph = get_dataset("slashdot").graph
    flag, members = benchmark(icore, graph, (), 12, None, "positive")
    assert flag and members


def test_core_numbers(benchmark):
    graph = get_dataset("slashdot").graph
    numbers = benchmark(core_numbers, graph)
    assert max(numbers.values()) > 0


def test_ego_triangle_initialisation(benchmark):
    graph = get_dataset("slashdot").graph
    deltas = benchmark(all_ego_triangle_degrees, graph)
    assert deltas


def test_mcnew_default_point(benchmark):
    graph = get_dataset("slashdot").graph
    survivors = benchmark(mccore_new, graph, AlphaK(4, 3))
    assert survivors


def test_bron_kerbosch_positive(benchmark):
    graph = get_dataset("flysign").graph

    def run():
        return sum(1 for _ in maximal_cliques(graph, sign="positive"))

    count = benchmark(run)
    assert count > 0


def test_exact_maxtest(benchmark):
    graph = get_dataset("slashdot").graph
    params = AlphaK(4, 3)
    from repro.core import MSCE

    clique = MSCE(graph, params).top_r(1).cliques[0]
    verdict = benchmark(is_maximal, graph, set(clique.nodes), params)
    assert verdict


# -- fastpath vs pure --------------------------------------------------------


@pytest.fixture(scope="module")
def large_random_graph() -> SignedGraph:
    """10k-node random signed graph, ~100k edges (sampled, not G(n, p))."""
    rng = random.Random(20180414)
    n, m = 10_000, 100_000
    edges = {}
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key not in edges:
            edges[key] = -1 if rng.random() < 0.25 else 1
    return SignedGraph(
        ((u, v, sign) for (u, v), sign in edges.items()), nodes=range(n)
    )


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fastpath_speedups_on_10k_graph(large_random_graph):
    """Record pure-vs-vectorized timings; assert the headline speedup gates.

    Two timings per kernel: the hashed-adjacency pure implementation and
    the numpy kernel of :mod:`repro.fastpath.vectorized` on the compiled
    graph, whose output must match. Gates: >=5x on core decomposition
    and triangle counting and >=3x on ego-triangle degrees, all vs pure.
    """
    import numpy as np

    from repro.fastpath import vectorized

    graph = large_random_graph
    compile_seconds = _best_of(lambda: compile_graph(graph), repeats=1)
    compiled = compile_graph(graph)

    pure = Series("pure_s")
    tier = Series("vectorized_s")
    tier_speedup = Series("vectorized_x")
    speedups = {}

    def record(label, pure_fn, tier_fn, repeats=3):
        assert tier_fn() == pure_fn(), f"{label}: vectorized output differs"
        pure_time = _best_of(pure_fn, repeats)
        tier_time = _best_of(tier_fn, repeats)
        pure.add(label, pure_time)
        tier.add(label, tier_time)
        tier_speedup.add(label, pure_time / tier_time)
        speedups[label] = pure_time / tier_time
        return speedups[label]

    core_x = record(
        "core-decomposition",
        lambda: core_numbers(graph),
        lambda: vectorized.core_numbers(compiled),
    )
    tri_x = record(
        "triangle-count",
        lambda: triangle_count(graph),
        lambda: vectorized.triangle_count(compiled),
    )
    ego_x = record(
        "ego-triangle-degrees",
        lambda: all_ego_triangle_degrees(graph),
        lambda: vectorized.ego_triangle_degrees(compiled),
    )

    # Candidate-set intersection: hashed set & set vs the packed batched
    # primitive (one fancy-indexed AND + row popcount).
    rng = random.Random(7)
    pairs = [
        (rng.randrange(compiled.n), rng.randrange(compiled.n)) for _ in range(2000)
    ]
    index = compiled.index
    neighbor_sets = {index[u]: graph.neighbor_keys(u) for u in graph.nodes()}
    rows_np = np.array([u for u, _ in pairs], dtype=np.int64)
    cols_np = np.array([v for _, v in pairs], dtype=np.int64)
    packed_rows = compiled.packed("all")

    record(
        "candidate-intersection",
        lambda: [len(neighbor_sets[u] & neighbor_sets[v]) for u, v in pairs],
        lambda: vectorized.pair_popcounts(
            packed_rows, packed_rows, rows_np, cols_np
        ).tolist(),
    )

    exhibit = Exhibit(
        title="Micro-primitives: pure Python vs vectorized kernels (10k nodes, 100k edges)",
        series=[pure, tier, tier_speedup],
        notes=[
            f"one-off compile_graph cost: {compile_seconds:.4g}s",
            "candidate-intersection row = 2000 random neighbourhood pairs",
        ],
    )
    record_exhibits(
        "micro_primitives",
        exhibit,
        extra={
            "speedups": speedups,
            "gates": {"vectorized": "core >= 5x, triangle >= 5x, ego >= 3x"},
        },
    )

    assert core_x >= 5.0, f"core-decomposition gate: {core_x:.2f}x < 5x"
    assert tri_x >= 5.0, f"triangle-count gate: {tri_x:.2f}x < 5x"
    assert ego_x >= 3.0, f"ego-triangle-degrees gate: {ego_x:.2f}x < 3x"


# -- observability: disabled-path overhead -----------------------------------


def test_disabled_observability_overhead_within_5_percent():
    """Null-observer instrumentation must cost <5% of enumeration time.

    With no observer installed the obs subsystem reduces to registry
    counter increments (SearchStats is registry-backed) plus no-op span
    context managers. This gate bounds that residual: per-operation cost
    of each primitive, times the operation counts of a real enumeration,
    must stay under 5% of that enumeration's wall time.
    """
    from repro.core import MSCE
    from repro.obs import runtime as obs
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.runtime import Observer

    previous = obs.install(Observer.disabled())
    try:
        graph = get_dataset("slashdot").graph
        params = AlphaK(4, 3)

        elapsed = _best_of(lambda: MSCE(graph, params).enumerate_all())
        result = MSCE(graph, params).enumerate_all()
        increments = sum(result.stats.as_dict().values())

        ops = 200_000
        counter = MetricsRegistry().counter("bench")

        def inc_loop():
            for _ in range(ops):
                counter.inc()

        def int_loop():
            total = 0
            for _ in range(ops):
                total += 1
            return total

        # Counter.inc() vs the bare `int += 1` the seed used: the delta is
        # what the registry-backed SearchStats adds per stat increment.
        per_increment = max(0.0, (_best_of(inc_loop) - _best_of(int_loop)) / ops)

        spans = 2_000
        def span_loop():
            for _ in range(spans):
                with obs.span("bench"):
                    pass

        per_span = _best_of(span_loop) / spans
        # Spans per run: root + enumerate + merge, plus reduce + mccore
        # per component.
        span_count = 3 + 2 * result.stats.components

        overhead = per_increment * increments + per_span * span_count
        fraction = overhead / elapsed
        stats_series = Series("seconds")
        stats_series.add("enumeration", elapsed)
        stats_series.add("instrumentation-residual", overhead)
        record_exhibits(
            "obs_disabled_overhead",
            Exhibit(
                title="Disabled-path observability overhead (slashdot, alpha=4 k=3)",
                series=[stats_series],
                notes=[
                    f"stat increments: {increments}, null spans: {span_count}",
                    f"overhead fraction: {fraction:.4%} (gate: <5%)",
                ],
            ),
        )
        assert fraction < 0.05, (
            f"disabled-path observability overhead {fraction:.2%} exceeds 5% gate"
        )
    finally:
        obs.install(previous)
