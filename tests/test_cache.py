"""Tests for the disk-backed enumeration result cache."""

import pytest

import repro
from repro.core import MSCE, AlphaK
from repro.io.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cached_enumerate,
    graph_fingerprint,
)
from repro.generators.datasets import load_dataset
from repro.graphs import SignedGraph


class TestFingerprint:
    def test_order_independent(self, paper_graph):
        reordered = SignedGraph(sorted(paper_graph.edges(), key=repr, reverse=True))
        assert graph_fingerprint(paper_graph) == graph_fingerprint(reordered)

    def test_sensitive_to_edges_and_signs(self, paper_graph):
        base = graph_fingerprint(paper_graph)
        flipped = paper_graph.copy()
        flipped.set_sign(1, 2, "-")
        assert graph_fingerprint(flipped) != base
        removed = paper_graph.copy()
        removed.remove_edge(1, 2)
        assert graph_fingerprint(removed) != base

    def test_sensitive_to_isolated_nodes(self, paper_graph):
        base = graph_fingerprint(paper_graph)
        extended = paper_graph.copy()
        extended.add_node("ghost")
        assert graph_fingerprint(extended) != base

    def test_fingerprint_memoized_one_hash_per_version(self, paper_graph, monkeypatch):
        import hashlib as real_hashlib

        calls = []
        original = real_hashlib.sha256

        def counting_sha256(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr("repro.io.cache.hashlib.sha256", counting_sha256)
        graph = paper_graph.copy()
        first = graph_fingerprint(graph)
        assert len(calls) == 1
        # repeated fingerprints of the same graph version hash zero times
        for _ in range(5):
            assert graph_fingerprint(graph) == first
        assert len(calls) == 1
        # every mutation bumps the version and invalidates the memo...
        graph.set_sign(1, 2, "-")
        version = graph.version
        changed = graph_fingerprint(graph)
        assert changed != first and len(calls) == 2 and graph.version == version
        # ...exactly once per version, not per call
        assert graph_fingerprint(graph) == changed
        assert len(calls) == 2

    def test_version_counter_tracks_mutations(self, paper_graph):
        graph = paper_graph.copy()
        start = graph.version
        graph.add_node("new-node")
        graph.add_node("new-node")  # already present: no version bump
        assert graph.version == start + 1
        graph.set_sign("new-node", 1, "+")
        graph.remove_edge("new-node", 1)
        graph.remove_node("new-node")
        assert graph.version == start + 4

    def test_copy_carries_memoized_fingerprint(self, paper_graph):
        fingerprint = graph_fingerprint(paper_graph)
        clone = paper_graph.copy()
        assert clone._fingerprint == fingerprint
        assert graph_fingerprint(clone) == fingerprint


class TestResultCache:
    def test_put_get_round_trip(self, paper_graph, tmp_path):
        params = AlphaK(3, 1)
        cliques = MSCE(paper_graph, params).enumerate_all().cliques
        cache = ResultCache(tmp_path)
        assert cache.get(paper_graph, params) is None
        cache.put(paper_graph, params, cliques)
        loaded = cache.get(paper_graph, params)
        assert loaded is not None
        assert {c.nodes for c in loaded} == {c.nodes for c in cliques}
        assert loaded[0].positive_edges == cliques[0].positive_edges

    def test_kind_separates_entries(self, paper_graph, tmp_path):
        params = AlphaK(3, 1)
        cache = ResultCache(tmp_path)
        cache.put(paper_graph, params, [], kind="top5")
        assert cache.get(paper_graph, params, kind="top5") == []
        assert cache.get(paper_graph, params, kind="all") is None

    def test_corrupt_entry_is_a_miss(self, paper_graph, tmp_path):
        params = AlphaK(3, 1)
        cache = ResultCache(tmp_path)
        cache.put(paper_graph, params, [])
        for path in tmp_path.glob("*.json"):
            path.write_text("{not json")
        assert cache.get(paper_graph, params) is None

    def test_non_serialisable_labels_rejected(self, tmp_path):
        graph = SignedGraph([((1, 2), (3, 4), "+")])  # tuple labels
        params = AlphaK(1, 0)
        cliques = MSCE(graph, params).enumerate_all().cliques
        with pytest.raises(TypeError):
            ResultCache(tmp_path).put(graph, params, cliques)

    def test_key_carries_schema_and_package_version(self, paper_graph, tmp_path):
        params = AlphaK(3, 1)
        cache = ResultCache(tmp_path)
        cache.put(paper_graph, params, [])
        (entry,) = tmp_path.glob("*.json")
        assert f"-s{CACHE_SCHEMA_VERSION}-v{repro.__version__}-" in entry.name

    def test_schema_bump_invalidates_old_entries(self, paper_graph, tmp_path, monkeypatch):
        params = AlphaK(3, 1)
        cache = ResultCache(tmp_path)
        cache.put(paper_graph, params, [])
        assert cache.get(paper_graph, params) == []
        monkeypatch.setattr(
            "repro.io.cache.CACHE_SCHEMA_VERSION", CACHE_SCHEMA_VERSION + 1
        )
        assert cache.get(paper_graph, params) is None  # old entry never found

    def test_clear(self, paper_graph, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(paper_graph, AlphaK(3, 1), [])
        assert cache.clear() == 1
        assert cache.get(paper_graph, AlphaK(3, 1)) is None


class TestCachedEnumerate:
    def test_second_call_hits_disk(self, paper_graph, tmp_path):
        first = cached_enumerate(paper_graph, 3, 1, cache_dir=tmp_path)
        assert [sorted(c.nodes) for c in first] == [[1, 2, 3, 4, 5]]
        assert list(tmp_path.glob("*.json"))
        again = cached_enumerate(paper_graph, 3, 1, cache_dir=tmp_path)
        assert {c.nodes for c in again} == {c.nodes for c in first}

    def test_partial_results_not_cached(self, paper_graph, tmp_path):
        cached_enumerate(paper_graph, 3, 1, cache_dir=tmp_path, time_limit=1e-9)
        assert not list(tmp_path.glob("*.json"))

    def test_memory_interrupted_results_not_cached(self, tmp_path):
        graph = load_dataset("slashdot").graph
        partial = cached_enumerate(
            graph, 3, 3, cache_dir=tmp_path, max_memory_bytes=1, model="msce"
        )
        assert len(partial) < 578
        assert not list(tmp_path.glob("*.json"))
        full = cached_enumerate(graph, 3, 3, cache_dir=tmp_path, model="msce")
        assert len(full) == 578

    def test_graph_change_invalidates(self, paper_graph, tmp_path):
        cached_enumerate(paper_graph, 3, 1, cache_dir=tmp_path)
        changed = paper_graph.copy()
        changed.set_sign(2, 3, "+")
        fresh = cached_enumerate(changed, 3, 1, cache_dir=tmp_path)
        direct = MSCE(changed, AlphaK(3, 1)).enumerate_all().cliques
        assert {c.nodes for c in fresh} == {c.nodes for c in direct}
