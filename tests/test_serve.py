"""Differential harness for the serving engine (``repro.serve``).

The engine's contract is *bit-identical transparency*: every answer it
serves — cold compute, memory hit, disk hit, post-eviction disk re-hit,
derived top-r, batched grid point, post-update recompute — must equal
the one-shot :mod:`repro.core.api` answer on a fresh copy of the current
graph, cliques AND stats. These tests pin that contract across cache
tiers, worker counts, request shapes, interleaved updates, and
concurrent clients.
"""

import json
import random
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import MSCE, AlphaK, enumerate_grid
from repro.core.api import (
    enumerate_signed_cliques,
    enumerate_with_stats,
    find_mccore,
    top_r_signed_cliques,
)
from repro.core.query import query_search
from repro.exceptions import GraphError, ParameterError
from repro.fastpath.search import FrameSearch
from repro.generators import CommunitySpec, gnp_signed, planted_partition_graph
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph
from repro.io import write_signed_edgelist
from repro.io.cache import entry_key, graph_fingerprint
from repro.obs import runtime as obs
from repro.obs.export import prometheus_text
from repro.serve import GridResult, MemoryLRU, SignedCliqueEngine, approximate_size
from tests.conftest import PAPER_EDGES

GRID = [(2.0, 1), (2.0, 2), (2.5, 2), (3.0, 1), (3.0, 2)]

#: Slashdot stand-in points whose ceil(alpha * k) differ (12, 10, 11,
#: 18): the grid searches each inside the union of their MCCores, and
#: the last point's MCCore is empty.
UNION_POINTS = [AlphaK(4, 3), AlphaK(5, 2), AlphaK(11, 1), AlphaK(6, 3)]


@lru_cache(maxsize=None)
def _slashdot():
    return load_dataset("slashdot").graph


@lru_cache(maxsize=None)
def _sequential(params, maxtest="exact", top_r=None):
    """The sequential reference answer for one slashdot point.

    ``MSCE`` compiles, reduces and extracts each point on its own, so it
    checks the grid's shared union extraction and re-indexing.
    """
    searcher = MSCE(_slashdot(), params, maxtest=maxtest)
    return searcher.enumerate_all() if top_r is None else searcher.top_r(top_r)


@pytest.fixture
def paper_graph():
    return SignedGraph(PAPER_EDGES)


@pytest.fixture
def random_graph():
    return gnp_signed(36, 0.3, negative_fraction=0.25, seed=11)


def planted_graph():
    """Three planted communities in a sparse background: positive cores
    of 47, 34 and 23 of the 60 nodes at thresholds 2, 3 and 6."""
    background = gnp_signed(60, 0.08, negative_fraction=0.3, seed=2)
    graph, _ = planted_partition_graph(
        background,
        [
            CommunitySpec(12, density=1.0),
            CommunitySpec(9, density=0.95),
            CommunitySpec(7, density=0.9),
        ],
        seed=2,
    )
    return graph


def assert_result_equal(result, reference, context=""):
    assert result.cliques == reference.cliques, f"cliques diverge {context}"
    assert result.stats == reference.stats, (
        f"stats diverge {context}: "
        f"{result.stats.as_dict()} != {reference.stats.as_dict()}"
    )


class TestMemoryLRU:
    def test_put_get_and_lru_eviction_order(self):
        lru = MemoryLRU(max_entries=2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh "a"; "b" is now LRU
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert lru.evictions == 1

    def test_byte_bound_evicts(self):
        payload = ["x" * 100] * 20
        size = approximate_size(payload)
        lru = MemoryLRU(max_entries=100, max_bytes=size + size // 2)
        lru.put("a", payload)
        lru.put("b", list(payload))
        assert "a" not in lru and "b" in lru
        assert lru.approximate_bytes <= lru.max_bytes

    def test_oversized_entry_never_sticks(self):
        lru = MemoryLRU(max_entries=4, max_bytes=64)
        lru.put("big", ["y" * 1000] * 10)
        assert len(lru) == 0 and lru.evictions == 1

    def test_replace_updates_bytes(self):
        lru = MemoryLRU(max_entries=4)
        lru.put("k", "small")
        before = lru.approximate_bytes
        lru.put("k", "a much much longer payload string" * 4)
        assert len(lru) == 1 and lru.approximate_bytes > before

    def test_stats_and_validation(self):
        lru = MemoryLRU(max_entries=1)
        lru.get("missing")
        lru.put("k", 1)
        lru.get("k")
        stats = lru.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1 and stats["puts"] == 1
        with pytest.raises(ValueError):
            MemoryLRU(max_entries=0)
        with pytest.raises(ValueError):
            MemoryLRU(max_bytes=0)

    def test_concurrent_puts_and_gets_stay_consistent(self):
        lru = MemoryLRU(max_entries=16)
        errors = []

        def worker(base):
            try:
                for i in range(200):
                    key = f"k{(base + i) % 24}"
                    lru.put(key, (base, i))
                    value = lru.get(key)
                    assert value is None or isinstance(value, tuple)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(lru) <= 16


class TestDifferentialOracle:
    """Engine answers == one-shot API answers, across every cache tier."""

    def test_enumerate_cold_warm_disk_and_evicted(self, random_graph, tmp_path):
        engine = SignedCliqueEngine(
            random_graph, cache_dir=tmp_path / "cache", cache_mem_entries=2
        )
        for alpha, k in GRID:
            reference = enumerate_with_stats(random_graph, alpha, k)
            cold = engine.enumerate_with_stats(alpha, k)
            assert_result_equal(cold, reference, f"cold ({alpha},{k})")
        # The 2-entry LRU has evicted early grid points: these now re-hit
        # the disk tier; late points hit memory. Both must replay exactly.
        assert engine.counters["evictions"] > 0
        for alpha, k in GRID:
            reference = enumerate_with_stats(random_graph, alpha, k)
            warm = engine.enumerate_with_stats(alpha, k)
            assert_result_equal(warm, reference, f"warm ({alpha},{k})")
        assert engine.counters["disk_hits"] > 0
        # the most recent point is still memory-resident
        engine.enumerate_with_stats(*GRID[-1])
        assert engine.counters["memory_hits"] > 0

    def test_memory_only_engine_recomputes_after_eviction(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph, cache_mem_entries=1)
        first = engine.enumerate_with_stats(2, 1)
        engine.enumerate_with_stats(3, 1)  # evicts (2, 1)
        again = engine.enumerate_with_stats(2, 1)
        assert_result_equal(again, first, "post-eviction recompute")
        assert engine.counters["computes"] >= 3

    def test_cliques_tier_and_derived_top_r(self, random_graph):
        engine = SignedCliqueEngine(random_graph)
        assert engine.enumerate(2, 2) == enumerate_signed_cliques(random_graph, 2, 2)
        for r in (1, 3, 100):
            assert engine.top_r(2, 2, r) == top_r_signed_cliques(random_graph, 2, 2, r)
        assert engine.counters["derived_hits"] >= 3

    def test_top_r_with_stats_matches_cutoff_search(self, random_graph):
        engine = SignedCliqueEngine(random_graph)
        result = engine.top_r_with_stats(2, 2, 3)
        reference = MSCE(random_graph, AlphaK(2, 2)).top_r(3)
        assert_result_equal(result, reference, "top-r cutoff")
        replay = engine.top_r_with_stats(2, 2, 3)
        assert_result_equal(replay, reference, "top-r cache replay")

    def test_query_matches_one_shot_search(self, random_graph):
        engine = SignedCliqueEngine(random_graph)
        survivors = find_mccore(random_graph, 2, 2)
        seeds = sorted(survivors, key=repr)[:3] or sorted(
            random_graph.nodes(), key=repr
        )[:1]
        for seed in seeds:
            result = engine.query_with_stats([seed], 2, 2)
            reference = query_search(random_graph, [seed], 2, 2)
            assert_result_equal(result, reference, f"query {seed!r}")
            # cached replay
            assert_result_equal(
                engine.query_with_stats([seed], 2, 2), reference, "query replay"
            )
        assert engine.best_clique_for(seeds, 2, 2) == (
            query_search(random_graph, seeds, 2, 2).cliques or [None]
        )[0]

    def test_query_validation_propagates(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        with pytest.raises(ParameterError):
            engine.query_with_stats([], 2, 1)
        with pytest.raises(ParameterError):
            engine.query_with_stats(["no-such-node"], 2, 1)

    def test_mccore_matches_api(self, random_graph):
        engine = SignedCliqueEngine(random_graph)
        for method in ("mcnew", "mcbasic", "positive-core"):
            assert engine.mccore(2, 2, method) == find_mccore(
                random_graph, 2, 2, method=method
            )

    def test_reduction_memo_shares_equal_ceilings(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        # ceil(2*2) == ceil(4*1) == ceil(1.3*3) == 4: one coring pass.
        engine.enumerate_with_stats(2, 2)
        engine.enumerate_with_stats(4, 1)
        engine.enumerate_with_stats(1.3, 3)
        assert engine.counters["reduce_computed"] == 1
        assert engine.counters["reduce_shared"] == 2
        assert engine.sharing_ratio == pytest.approx(2 / 3)
        # ...and the shared-coring answers still match one-shot calls.
        for alpha, k in ((2, 2), (4, 1), (1.3, 3)):
            assert engine.enumerate(alpha, k) == enumerate_signed_cliques(
                paper_graph, alpha, k
            )

    def test_engine_does_not_mutate_caller_graph(self, paper_graph):
        fingerprint = graph_fingerprint(paper_graph)
        engine = SignedCliqueEngine(paper_graph)
        engine.enumerate(2, 1)
        engine.add_edge("x1", "x2", "+")
        assert not paper_graph.has_node("x1")
        assert graph_fingerprint(paper_graph) == fingerprint


class TestRunGrid:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_grid_matches_sequential_per_point(self, random_graph, workers):
        engine = SignedCliqueEngine(random_graph)
        alphas, ks = [2.0, 2.5, 3.0], [1, 2]
        grid = engine.run_grid(alphas, ks, workers=workers)
        assert len(grid) == len(alphas) * len(ks)
        for params, result in grid.items():
            reference = enumerate_with_stats(random_graph, params.alpha, params.k)
            assert_result_equal(result, reference, f"grid{workers} {params}")
        assert grid.report["workers"] == workers
        assert grid.report["computed"] == len(grid)

    @pytest.mark.parametrize("maxtest", ["exact", "paper"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_union_extraction_matches_pure_per_point(self, workers, maxtest):
        grid = enumerate_grid(_slashdot(), UNION_POINTS, workers=workers, maxtest=maxtest)
        assert list(grid) == UNION_POINTS
        for params, result in grid.items():
            reference = _sequential(params, maxtest)
            assert_result_equal(result, reference, f"union{workers} {maxtest} {params}")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grid_top_r_matches_pure_per_point(self, workers):
        grid = enumerate_grid(_slashdot(), UNION_POINTS, workers=workers, top_r=10)
        for params, result in grid.items():
            # Under top-r only the cliques are pinned: each task prunes
            # against its own size heap, so counters follow the split.
            assert result.cliques == _sequential(params, top_r=10).cliques, params

    def test_grid_point_with_quarantined_frames_is_not_cached(self):
        """A grid point that lost a frame to quarantine is returned with
        its report but never stored: the next run computes it again."""
        from repro.testing import FaultPlan, injected

        engine = SignedCliqueEngine(_slashdot())
        with injected(FaultPlan(poison_tasks=frozenset({0}))):
            grid = engine.run_grid([4], [3], workers=1)
        (poisoned,) = grid.results.values()
        assert poisoned.parallel["quarantined_frames"] == 1
        again = engine.run_grid([4], [3], workers=1)
        assert again.report["computed"] == 1
        (result,) = again.results.values()
        assert_result_equal(result, _sequential(AlphaK(4, 3)), "after quarantine")

    def test_grid_result_lookup_api(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        grid = engine.run_grid([2, 3], [1])
        assert isinstance(grid, GridResult)
        assert grid[(2, 1)].cliques == grid[AlphaK(2, 1)].cliques
        assert (2, 1) in grid and (9, 9) not in grid
        assert list(grid) == [AlphaK(2, 1), AlphaK(3, 1)]

    def test_grid_reuses_cached_points(self, random_graph, tmp_path):
        engine = SignedCliqueEngine(random_graph, cache_dir=tmp_path / "c")
        engine.run_grid([2.0, 2.5], [2])
        grid = engine.run_grid([2.0, 2.5, 3.0], [2])
        assert grid.report["served_from_cache"] == 2
        assert grid.report["computed"] == 1
        for params, result in grid.items():
            reference = enumerate_with_stats(random_graph, params.alpha, params.k)
            assert_result_equal(result, reference, f"partial-warm {params}")

    def test_grid_served_across_engine_restart_via_disk(self, random_graph, tmp_path):
        cache = tmp_path / "persistent"
        SignedCliqueEngine(random_graph, cache_dir=cache).run_grid([2, 3], [2])
        engine = SignedCliqueEngine(random_graph, cache_dir=cache)
        grid = engine.run_grid([2, 3], [2])
        assert grid.report["served_from_cache"] == 2
        for params, result in grid.items():
            reference = enumerate_with_stats(random_graph, params.alpha, params.k)
            assert_result_equal(result, reference, f"restart {params}")

    @pytest.mark.parametrize("workers", [0, -1])
    def test_engine_rejects_workers_below_one(self, paper_graph, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            SignedCliqueEngine(paper_graph, workers=workers)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_grid_rejects_workers_below_one(self, paper_graph, workers):
        engine = SignedCliqueEngine(paper_graph, workers=2)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            engine.run_grid([2.0], [1], workers=workers)
        assert engine.counters["requests"] == 0

    def test_grid_deduplicates_equal_settings(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        grid = engine.run_grid([2, 2], [1, 1])
        assert len(grid) == 1


class TestUpdates:
    """Mutations invalidate; answers track the current graph."""

    def _random_edit(self, rng, engine):
        graph = engine.graph
        nodes = sorted(graph.nodes(), key=repr)
        u, v = rng.sample(nodes, 2)
        if graph.has_edge(u, v):
            if rng.random() < 0.5:
                engine.remove_edge(u, v)
            else:
                engine.flip_sign(u, v, rng.choice(["+", "-"]))
        else:
            engine.add_edge(u, v, rng.choice(["+", "-"]))

    def test_interleaved_updates_and_queries(self, random_graph, tmp_path):
        rng = random.Random(5)
        engine = SignedCliqueEngine(random_graph, cache_dir=tmp_path / "cache")
        for step in range(6):
            self._random_edit(rng, engine)
            snapshot = engine.snapshot()
            alpha, k = GRID[step % len(GRID)]
            # The edit dropped the cached answers: the cliques are a
            # recompute on the current graph...
            assert engine.enumerate(alpha, k) == enumerate_signed_cliques(
                snapshot, alpha, k
            ), f"cliques diverge at step {step} ({alpha},{k})"
            # ...and the stats request replays that recompute exactly.
            assert_result_equal(
                engine.enumerate_with_stats(alpha, k),
                enumerate_with_stats(snapshot, alpha, k),
                f"step {step} ({alpha},{k})",
            )
            assert engine.mccore(alpha, k) == find_mccore(snapshot, alpha, k)

    def test_edit_runs_no_search(self, random_graph, monkeypatch):
        engine = SignedCliqueEngine(random_graph)
        engine.enumerate_with_stats(2, 2)
        engine.enumerate(3, 1)
        searches = []

        def spy(method):
            def wrapper(*args, **kwargs):
                searches.append(method.__name__)
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(MSCE, "enumerate_seeded", spy(MSCE.enumerate_seeded))
        monkeypatch.setattr(FrameSearch, "run", spy(FrameSearch.run))
        u, v, sign = sorted(random_graph.edges())[0]
        engine.flip_sign(u, v, -sign)
        assert searches == []
        snapshot = engine.snapshot()
        reference = MSCE(snapshot, AlphaK(2, 2)).enumerate_all()
        assert_result_equal(engine.enumerate_with_stats(2, 2), reference, "after flip")
        reference = MSCE(snapshot, AlphaK(3, 1)).enumerate_all()
        assert engine.enumerate(3, 1) == reference.cliques
        assert_result_equal(engine.enumerate_with_stats(3, 1), reference, "enumerate's entry")

    def test_remove_node_and_add_node(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        engine.enumerate(2, 1)
        victim = sorted(paper_graph.nodes(), key=repr)[0]
        engine.remove_node(victim)
        snapshot = engine.snapshot()
        assert not snapshot.has_node(victim)
        assert engine.enumerate(2, 1) == enumerate_signed_cliques(snapshot, 2, 1)
        engine.add_node("fresh")
        snapshot = engine.snapshot()
        assert engine.enumerate(2, 1) == enumerate_signed_cliques(snapshot, 2, 1)
        with pytest.raises(GraphError):
            engine.remove_node("never-there")

    def test_apply_edits_batch(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        engine.enumerate(2, 1)
        engine.apply_edits(
            [("add", "a", "b", "+"), ("flip", "a", "b", "-"), ("remove", "a", "b")]
        )
        snapshot = engine.snapshot()
        assert not snapshot.has_edge("a", "b")
        assert engine.enumerate(2, 1) == enumerate_signed_cliques(snapshot, 2, 1)
        with pytest.raises(GraphError):
            engine.apply_edits([("frobnicate", 1, 2)])

    def test_update_invalidates_old_fingerprint_entries(self, paper_graph):
        engine = SignedCliqueEngine(paper_graph)
        engine.enumerate_with_stats(2, 1)
        old_keys = set(engine.memory.keys())
        assert old_keys
        engine.add_edge("n1", "n2", "+")
        assert not (old_keys & set(engine.memory.keys()))
        assert engine.counters["entries_invalidated"] >= len(old_keys)

    @settings(max_examples=15, deadline=None)
    @given(
        edits=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "flip"]),
                st.integers(min_value=0, max_value=11),
                st.integers(min_value=0, max_value=11),
                st.sampled_from(["+", "-"]),
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_dynamic_consistency_property(self, edits):
        """After ANY edit sequence, every cached answer matches a
        from-scratch enumeration of the final graph."""
        base = gnp_signed(12, 0.4, negative_fraction=0.3, seed=3)
        engine = SignedCliqueEngine(base)
        settings_used = [(2.0, 1), (2.0, 2), (3.0, 1)]
        for alpha, k in settings_used:
            engine.enumerate(alpha, k)  # warm the caches pre-edit
        for op, u, v, sign in edits:
            if u == v:
                continue
            graph = engine.graph
            try:
                if op == "add":
                    engine.add_edge(u, v, sign)
                elif op == "remove":
                    engine.remove_edge(u, v)
                else:
                    engine.flip_sign(u, v, sign)
            except GraphError:
                # duplicate add / missing remove: engine state unchanged
                assert graph is engine.graph
        final = engine.snapshot()
        for alpha, k in settings_used:
            assert engine.enumerate(alpha, k) == enumerate_signed_cliques(
                final, alpha, k
            ), (alpha, k, edits)


class TestConcurrencyHammer:
    """N threads of mixed requests == some sequential interleaving."""

    def test_hammer_matches_sequential_replay(self, tmp_path):
        graph = gnp_signed(24, 0.35, negative_fraction=0.25, seed=19)
        engine = SignedCliqueEngine(
            graph,
            cache_dir=tmp_path / "cache",
            cache_mem_entries=3,  # force evictions mid-hammer
            record_requests=True,
        )
        nodes = sorted(graph.nodes(), key=repr)
        errors = []
        barrier = threading.Barrier(4)

        def client(worker):
            rng = random.Random(worker)
            try:
                barrier.wait()
                for step in range(8):
                    choice = rng.random()
                    alpha, k = GRID[rng.randrange(len(GRID))]
                    if choice < 0.35:
                        engine.enumerate_with_stats(alpha, k)
                    elif choice < 0.55:
                        engine.top_r(alpha, k, 3)
                    elif choice < 0.75:
                        engine.query_with_stats([rng.choice(nodes)], alpha, k)
                    elif choice < 0.9:
                        engine.enumerate(alpha, k)
                    else:
                        u, v = rng.sample(nodes, 2)
                        if engine.graph.has_edge(u, v):
                            engine.flip_sign(u, v, rng.choice(["+", "-"]))
                        else:
                            engine.add_edge(u, v, "+")
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=client, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Replay the lock's serialisation order sequentially on a fresh
        # engine: the final graph and every answer must coincide.
        replay = SignedCliqueEngine(graph, record_requests=False)
        for op, args in engine.request_log:
            if op in ("add_edge", "flip_sign"):
                getattr(replay, op)(*args)
            elif op == "remove_edge":
                replay.remove_edge(*args)
        assert graph_fingerprint(replay.graph) == graph_fingerprint(engine.graph)
        final = engine.snapshot()
        for alpha, k in GRID:
            assert engine.enumerate(alpha, k) == enumerate_signed_cliques(
                final, alpha, k
            ), ("post-hammer", alpha, k)
            assert_result_equal(
                engine.enumerate_with_stats(alpha, k),
                enumerate_with_stats(final, alpha, k),
                f"post-hammer stats ({alpha},{k})",
            )

    def test_no_torn_entries_under_concurrent_readers(self):
        graph = gnp_signed(20, 0.35, negative_fraction=0.25, seed=23)
        engine = SignedCliqueEngine(graph, cache_mem_entries=2)
        reference = {
            (alpha, k): enumerate_with_stats(graph, alpha, k) for alpha, k in GRID
        }
        errors = []

        def reader(worker):
            rng = random.Random(100 + worker)
            try:
                for _ in range(10):
                    alpha, k = GRID[rng.randrange(len(GRID))]
                    assert_result_equal(
                        engine.enumerate_with_stats(alpha, k),
                        reference[(alpha, k)],
                        f"reader {worker}",
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(w,)) for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestObservability:
    def test_serve_counters_reach_prometheus_export(self, paper_graph):
        with obs.observing() as observer:
            engine = SignedCliqueEngine(paper_graph)
            engine.enumerate_with_stats(2, 1)
            engine.enumerate_with_stats(2, 1)
            engine.run_grid([2, 4], [1])
            engine.add_edge("p", "q", "+")
        text = prometheus_text(observer.registry)
        assert "repro_serve_requests_total" in text
        assert "repro_serve_memory_hits_total" in text
        assert "repro_serve_computes_total" in text
        assert "repro_serve_updates_total 1" in text
        # engine-local mirror agrees with the exported registry
        for line in text.splitlines():
            if line.startswith("repro_serve_requests_total"):
                assert int(line.split()[-1]) == engine.counters["requests"]

    def test_engine_emits_request_spans(self, paper_graph):
        with obs.observing() as observer:
            SignedCliqueEngine(paper_graph).enumerate(2, 1)
        assert "serve_request" in json.dumps(observer.tracer.to_dict())

    def test_cache_info_shape(self, paper_graph, tmp_path):
        engine = SignedCliqueEngine(paper_graph, cache_dir=tmp_path / "c")
        engine.enumerate(2, 1)
        info = engine.cache_info()
        assert info["memory"]["entries"] >= 1
        assert info["disk"] is not None
        assert info["counters"]["requests"] == 1
        assert 0.0 <= info["sharing_ratio"] <= 1.0
        assert set(info) == {
            "memory",
            "disk",
            "model",
            "counters",
            "sharing_ratio",
            "reduction_memo",
        }
        assert "SignedCliqueEngine" in repr(engine)

    def test_disk_tier_holds_results_only(self, random_graph, tmp_path):
        """Edits against a disk-backed engine leave no compiled-graph
        files behind, and a restarted engine answers from disk."""
        cache = tmp_path / "c"
        engine = SignedCliqueEngine(random_graph, cache_dir=cache)
        for u, v, sign in sorted(random_graph.edges())[:3]:
            engine.flip_sign(u, v, -sign)
            expected = engine.enumerate_with_stats(2, 2)
        assert not (cache / "graphs").exists()
        restarted = SignedCliqueEngine(engine.snapshot(), cache_dir=cache)
        assert_result_equal(restarted.enumerate_with_stats(2, 2), expected, "after restart")
        assert restarted.counters["computes"] == 0


class TestPerFloorCompile:
    """Each request compiles the positive core of its own floor.

    Every answer still equals a one-shot call on the current graph,
    before and after an edit: a grid over two ceilings (compiled at the
    smaller), then single points at each ceiling (compiled at their
    own), whose reductions must not reuse a mask of another compile.
    """

    GRID_ALPHAS, GRID_KS = (2.0, 3.0), (1,)  # ceilings 2 and 3
    SINGLES = (AlphaK(1, 2), AlphaK(1.5, 2))  # the same two ceilings

    def _check_against_one_shot(self, engine):
        graph = engine.snapshot()
        grid = engine.run_grid(self.GRID_ALPHAS, self.GRID_KS)
        assert grid.report["computed"] == 2
        for params, result in grid.items():
            assert_result_equal(result, MSCE(graph, params).enumerate_all(), f"grid {params}")
        assert set(engine._compiled_graphs) == {2}
        assert all(result.cliques for result in grid.results.values())
        for params in self.SINGLES:
            assert_result_equal(
                engine.enumerate_with_stats(params.alpha, params.k),
                MSCE(graph, params).enumerate_all(),
                f"single {params}",
            )
            assert_result_equal(
                engine.top_r_with_stats(params.alpha, params.k, 3),
                MSCE(graph, params).top_r(3),
                f"top-3 {params}",
            )
        assert set(engine._compiled_graphs) == {2, 3}
        assert engine.mccore(3, 1, "none") == graph.node_set()
        assert engine.mccore(3, 1) == find_mccore(graph, 3, 1)
        assert set(engine._compiled_graphs) == {0, 2, 3}

    def test_answers_equal_one_shot_calls_across_an_edit(self):
        graph = planted_graph()
        engine = SignedCliqueEngine(graph)
        self._check_against_one_shot(engine)
        u, v = sorted(find_mccore(graph, 3, 1), key=repr)[:2]
        engine.flip_sign(u, v, "-" if graph.has_edge(u, v) and graph.sign(u, v) > 0 else "+")
        assert not engine._compiled_graphs and not engine._reduction_masks
        self._check_against_one_shot(engine)


class TestDiskTierBound:
    def test_edits_delete_the_old_fingerprint_files(self, tmp_path):
        """The disk tier holds the current graph's entries only."""
        cache = tmp_path / "c"
        graph = planted_graph()
        engine = SignedCliqueEngine(graph, cache_dir=cache)
        edges = sorted(graph.edges())
        counts = []
        for u, v, sign in edges[:5]:
            engine.enumerate_with_stats(3, 1)
            engine.top_r_with_stats(3, 1, 3)
            counts.append(len(list(cache.glob("*.json"))))
            engine.flip_sign(u, v, -sign)
            assert not list(cache.glob("*.json"))
        assert counts == [2] * 5
        expected = engine.enumerate_with_stats(3, 1)
        expected_top = engine.top_r_with_stats(3, 1, 3)
        assert len(list(cache.glob("*.json"))) == len(engine.memory) == 2
        assert expected.cliques
        restarted = SignedCliqueEngine(engine.snapshot(), cache_dir=cache)
        assert_result_equal(restarted.enumerate_with_stats(3, 1), expected, "restart")
        assert_result_equal(restarted.top_r_with_stats(3, 1, 3), expected_top, "restart top")
        assert restarted.counters["disk_hits"] == 2
        assert restarted.counters["computes"] == 0

    def test_no_op_edit_keeps_the_current_files(self, random_graph, tmp_path):
        cache = tmp_path / "c"
        engine = SignedCliqueEngine(random_graph, cache_dir=cache)
        engine.enumerate_with_stats(2, 2)
        u, v, sign = sorted(random_graph.edges())[0]
        engine.flip_sign(u, v, sign)  # same sign: the graph is unchanged
        assert len(list(cache.glob("*.json"))) == 1


class TestEntryKeys:
    def test_memory_and_disk_share_key_namespace(self, paper_graph, tmp_path):
        engine = SignedCliqueEngine(paper_graph, cache_dir=tmp_path / "c")
        engine.enumerate_with_stats(2, 1)
        key = entry_key(graph_fingerprint(paper_graph), AlphaK(2, 1), "all")
        assert key in engine.memory
        assert (tmp_path / "c" / f"{key}.json").exists()


class TestTopRServing:
    """Compute == memory hit == disk hit == one-shot sequential search."""

    def test_all_tiers_replay_the_compute(self, random_graph, tmp_path):
        cache = tmp_path / "cache"
        params = AlphaK(2, 2)
        oracle = MSCE(random_graph, params).top_r(3)

        engine = SignedCliqueEngine(random_graph, cache_dir=cache)
        computed = engine.top_r_with_stats(2, 2, 3)
        assert_result_equal(computed, oracle, "compute")
        assert engine.counters["computes"] == 1

        memory = engine.top_r_with_stats(2, 2, 3)
        assert_result_equal(memory, oracle, "memory hit")
        assert engine.counters["computes"] == 1
        assert engine.counters["memory_hits"] == 1

        # Disk hit: a fresh engine on the same cache dir replays the
        # stored entry without computing.
        fresh = SignedCliqueEngine(random_graph, cache_dir=cache)
        disk = fresh.top_r_with_stats(2, 2, 3)
        assert_result_equal(disk, oracle, "disk hit")
        assert fresh.counters["computes"] == 0
        assert fresh.counters["disk_hits"] == 1

    @pytest.mark.parametrize("r", [0, -1])
    def test_non_positive_r_is_rejected_in_every_cache_state(self, paper_graph, r):
        engine = SignedCliqueEngine(paper_graph)
        for state in ("cold", "full answer cached"):
            with pytest.raises(ParameterError):
                engine.top_r(3, 1, r)
            with pytest.raises(ParameterError):
                engine.top_r_with_stats(3, 1, r)
            engine.enumerate(3, 1)
        assert engine.counters["computes"] == 1


class TestServeGridCli:
    def test_serve_grid_text_and_json(self, tmp_path, capsys):
        path = tmp_path / "paper.txt"
        write_signed_edgelist(SignedGraph(PAPER_EDGES), path)
        cache = tmp_path / "cache"
        assert (
            cli_main(
                [
                    "serve-grid",
                    str(path),
                    "--alphas",
                    "2",
                    "3",
                    "--ks",
                    "1",
                    "--cache-dir",
                    str(cache),
                    "--cache-mem-entries",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "alpha=2 k=1" in out and "computed 2" in out
        # warm run serves from the disk cache and reports it
        assert (
            cli_main(
                [
                    "serve-grid",
                    str(path),
                    "--alphas",
                    "2",
                    "3",
                    "--ks",
                    "1",
                    "--cache-dir",
                    str(cache),
                    "--json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["report"]["served_from_cache"] == 2
        assert payload["counters"]["disk_hits"] == 2
        assert len(payload["points"]) == 2


class TestEngineOnGenerators:
    def test_planted_partition_differential(self):
        background = gnp_signed(30, 0.1, negative_fraction=0.3, seed=2)
        graph, _ = planted_partition_graph(
            background,
            [CommunitySpec(6, density=1.0), CommunitySpec(5, density=0.9)],
            seed=2,
        )
        engine = SignedCliqueEngine(graph)
        for alpha, k in ((2, 1), (2, 2)):
            assert_result_equal(
                engine.enumerate_with_stats(alpha, k),
                enumerate_with_stats(graph, alpha, k),
                f"planted ({alpha},{k})",
            )
