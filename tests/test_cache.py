"""Tests for the disk-backed enumeration result cache."""

import hashlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro
from repro.core import MSCE, AlphaK
from repro.io.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    cached_enumerate,
    graph_fingerprint,
)
from repro.generators.datasets import load_dataset
from repro.exceptions import GraphError
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

    def test_fingerprint_memoized_constant_hashes_per_edit(self, paper_graph, monkeypatch):
        calls = []
        original = hashlib.sha256

        def counting_sha256(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        graph = paper_graph.copy()
        first = graph_fingerprint(graph)
        # the first call hashes every node and every edge once...
        assert len(calls) == graph.number_of_nodes() + graph.number_of_edges()
        # ...repeated calls on the same version hash nothing...
        calls.clear()
        for _ in range(5):
            assert graph_fingerprint(graph) == first
        assert not calls
        # ...and an edit hashes only what it changes: a flip removes one
        # edge line and adds another.
        version = graph.version
        graph.set_sign(1, 2, "-")
        assert len(calls) == 2 and graph.version == version + 2
        changed = graph_fingerprint(graph)
        assert changed != first and len(calls) == 2
        graph.add_node("new-node")
        assert len(calls) == 3
        assert graph_fingerprint(graph) == graph_fingerprint(_rebuilt(graph))

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
        assert clone._fingerprint_sum == paper_graph._fingerprint_sum
        assert graph_fingerprint(clone) == fingerprint

    def test_content_defined(self, paper_graph):
        """Same content, same value: history and construction do not enter."""
        graph = paper_graph.copy()
        graph_fingerprint(graph)  # start the running sum
        graph.add_edge("x", 1, "-")
        graph.remove_edge("x", 1)
        graph.remove_node("x")
        assert graph_fingerprint(graph) == graph_fingerprint(paper_graph)
        assert graph_fingerprint(SignedGraph()) == "0" * 64


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

    def test_discard_graph_deletes_one_graph_version(self, paper_graph, tmp_path):
        cache = ResultCache(tmp_path)
        other = paper_graph.copy()
        other.add_node("ghost")
        for graph in (paper_graph, other):
            cache.put(graph, AlphaK(3, 1), [])
            cache.put(graph, AlphaK(3, 1), [], kind="top5", model="balanced")
        assert cache.discard_graph(graph_fingerprint(paper_graph)) == 2
        assert cache.get(paper_graph, AlphaK(3, 1)) is None
        assert cache.get(other, AlphaK(3, 1)) == []
        assert len(list(tmp_path.glob("*.json"))) == 2

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


def _rebuilt(graph):
    """An independent graph with *graph*'s node and edge lists (no memo)."""
    return SignedGraph(list(graph.edges()), nodes=list(graph.nodes()))


_NODES = st.integers(0, 7)
_SIGNS = st.sampled_from([1, -1])
_EDITS = st.lists(
    st.one_of(
        st.tuples(st.just("add_edge"), _NODES, _NODES, _SIGNS),
        st.tuples(st.just("remove_edge"), _NODES, _NODES),
        st.tuples(st.just("set_sign"), _NODES, _NODES, _SIGNS),
        st.tuples(st.just("add_node"), _NODES),
        st.tuples(st.just("remove_node"), _NODES),
    ),
    max_size=40,
)


def _apply(graph, edit):
    """Apply *edit*; the edits the graph refuses raise and change nothing."""
    operation, *args = edit
    try:
        getattr(graph, operation)(*args)
    except GraphError:
        pass


class TestRunningFingerprint:
    """The O(1) running sum equals a full computation after every edit.

    Edits are drawn from node labels 0-7, so the sequences hit every
    no-op (re-adding an edge with its sign, ``set_sign`` to the current
    sign, ``add_node`` of a known node) and every refused edit
    (``add_edge`` with the opposite sign, removing an absent edge or
    node, self-loops). Each step is compared against a graph rebuilt
    from the edge and node lists, which starts without a running sum.
    """

    @settings(max_examples=100, deadline=None)
    @given(edits=_EDITS, start=st.lists(st.tuples(_NODES, _NODES, _SIGNS), max_size=12))
    def test_running_sum_matches_a_rebuilt_graph(self, edits, start):
        graph = SignedGraph()
        for u, v, sign in start:
            _apply(graph, ("set_sign", u, v, sign))
        graph_fingerprint(graph)
        for edit in edits:
            _apply(graph, edit)
            running = graph._fingerprint_sum
            assert running is not None
            assert format(running, "064x") == graph_fingerprint(_rebuilt(graph))

    @settings(max_examples=60, deadline=None)
    @given(
        edges=st.lists(st.tuples(_NODES, _NODES, _SIGNS), max_size=20),
        isolated=st.lists(st.integers(8, 11), max_size=3),
        data=st.data(),
    )
    def test_insertion_order_does_not_matter(self, edges, isolated, data):
        graph = SignedGraph(nodes=isolated)
        for u, v, sign in edges:
            _apply(graph, ("set_sign", u, v, sign))
        lines = list(graph.edges())
        shuffled = data.draw(st.permutations(lines))
        flipped = [(v, u, sign) for u, v, sign in shuffled]
        nodes = data.draw(st.permutations(list(graph.nodes())))
        other = SignedGraph(flipped, nodes=nodes)
        assert graph_fingerprint(other) == graph_fingerprint(graph)

    @settings(max_examples=100, deadline=None)
    @given(edits=_EDITS, edit=_EDITS.filter(bool).map(lambda edits: edits[0]))
    def test_edit_then_inverse_restores_the_value(self, edits, edit):
        graph = SignedGraph()
        graph_fingerprint(graph)
        for step in edits:
            _apply(graph, step)
        inverse = _inverse(graph, edit)
        assume(inverse is not None)
        before = graph_fingerprint(graph)
        snapshot = graph.copy()
        for operation, *args in [edit] + inverse:
            getattr(graph, operation)(*args)
        assert graph == snapshot
        assert graph_fingerprint(graph) == before


def _inverse(graph, edit):
    """The edits that undo *edit* on *graph*, or ``None`` if it is refused."""
    operation, *args = edit
    if operation == "add_node":
        return [] if args[0] in graph else [("remove_node", args[0])]
    if operation == "remove_node":
        node = args[0]
        if node not in graph:
            return None
        return [("add_node", node)] + [
            ("add_edge", node, other, graph.sign(node, other)) for other in graph.neighbors(node)
        ]
    u, v = args[0], args[1]
    if u == v:
        return None
    old = graph.sign(u, v) if graph.has_edge(u, v) else None
    if operation == "remove_edge":
        return None if old is None else [("add_edge", u, v, old)]
    if operation == "add_edge" and old not in (None, args[2]):
        return None
    if old is not None:
        return [("set_sign", u, v, old)]
    created = [("remove_node", node) for node in (u, v) if node not in graph]
    return [("remove_edge", u, v)] + created
