"""Tests for the storage tier: graph artifacts and spilling.

The contracts under test, in the order the module builds them up:

* the header/layout codec round-trips and rejects corrupt prefixes;
* ``CompiledGraph.save`` / ``CompiledGraph.mmap`` round-trip every
  array bit-identically, enforce read-only attachment, and verify
  stamped fingerprints;
* searches over a mmapped graph equal searches over the in-memory
  compilation on every available kernel backend;
* the spill oracle: a run under an absurdly small memory budget spills
  pending frames to disk yet reproduces the unbudgeted run's cliques
  *and* stats bit-for-bit, leaving no files behind.
"""

import gc
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK, enumerate_parallel
from repro.exceptions import ParameterError, StorageError
from repro.fastpath import storage
from repro.fastpath.backend import HAS_NUMPY, available_backends
from repro.fastpath.compiled import CompiledGraph, compile_graph
from repro.generators import gnp_signed
from repro.graphs import SignedGraph
from repro.io.cache import graph_fingerprint

ARRAY_SLOTS = ("xadj", "pxadj", "nxadj", "adj", "padj", "nadj", "signs")


def _search_graph(seed: int = 7, n: int = 60) -> SignedGraph:
    return gnp_signed(n, 0.3, negative_fraction=0.25, seed=seed)


def _many_component_graph(components: int = 120, n: int = 14) -> SignedGraph:
    """Many disjoint communities: the shape that fills the seed frontier.

    Within one component the branch-and-bound stack stays shallow, so
    spilling engages on the *frame* frontier — many components means
    many pending seed frames, which is exactly the out-of-core case.
    """
    graph = SignedGraph()
    for index in range(components):
        blob = gnp_signed(n, 0.5, negative_fraction=0.25, seed=index)
        for u, v, sign in blob.edges():
            graph.add_edge(f"{index}:{u}", f"{index}:{v}", sign)
    return graph


def _fingerprint(result):
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


# ----------------------------------------------------------------------
# Header / layout codec
# ----------------------------------------------------------------------
class TestHeaderCodec:
    dims = st.integers(min_value=0, max_value=2**40)

    @settings(max_examples=200, deadline=None)
    @given(
        flags=st.integers(min_value=0, max_value=7),
        n=dims,
        m_all=dims,
        m_pos=dims,
        m_neg=dims,
        nodes_len=dims,
        fingerprint=st.binary(min_size=32, max_size=32),
    )
    def test_encode_decode_roundtrip(
        self, flags, n, m_all, m_pos, m_neg, nodes_len, fingerprint
    ):
        header = storage.StorageHeader(
            storage.STORAGE_VERSION, flags, n, m_all, m_pos, m_neg, nodes_len, fingerprint
        )
        blob = storage.encode_header(header)
        assert len(blob) == storage.HEADER_BYTES
        assert storage.decode_header(blob) == header
        # The layout derived from the decoded header is internally
        # consistent: 8-aligned, non-overlapping, in declaration order.
        segments, total = storage.data_layout(header)
        cursor = storage.HEADER_BYTES
        for name, (offset, length) in segments.items():
            assert offset % 8 == 0
            assert offset >= cursor
            cursor = offset + length
        assert total == cursor

    def test_rejects_bad_magic(self):
        blob = b"NOTAMAGC" + b"\x00" * (storage.HEADER_BYTES - 8)
        with pytest.raises(StorageError, match="magic"):
            storage.decode_header(blob)

    def test_rejects_unknown_version(self):
        header = storage.StorageHeader(
            storage.STORAGE_VERSION, 0, 1, 0, 0, 0, 0, b"\x00" * 32
        )
        blob = bytearray(storage.encode_header(header))
        blob[8] = 0xFF  # version low byte
        with pytest.raises(StorageError, match="version"):
            storage.decode_header(bytes(blob))

    def test_rejects_truncated_prefix(self):
        with pytest.raises(StorageError, match="truncated"):
            storage.decode_header(b"RSGRAPH1")

    def test_rejects_negative_dimensions_on_encode(self):
        header = storage.StorageHeader(
            storage.STORAGE_VERSION, 0, -1, 0, 0, 0, 0, b"\x00" * 32
        )
        with pytest.raises(StorageError, match="negative"):
            storage.encode_header(header)


# ----------------------------------------------------------------------
# Save / mmap round trip
# ----------------------------------------------------------------------
class TestSaveMmapRoundTrip:
    def test_arrays_bit_identical(self, tmp_path):
        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        written = compiled.save(path)
        assert written == path.stat().st_size
        attached = CompiledGraph.mmap(path)
        try:
            assert attached.n == compiled.n
            assert attached.nodes == compiled.nodes
            for slot in ARRAY_SLOTS:
                assert list(getattr(attached, slot)) == list(
                    getattr(compiled, slot)
                ), slot
        finally:
            storage.release_views(attached)
            attached._storage.close()

    def test_mmap_is_zero_copy(self, tmp_path):
        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        compiled.save(path)
        attached = CompiledGraph.mmap(path)
        try:
            for slot in ARRAY_SLOTS:
                assert isinstance(getattr(attached, slot), memoryview), slot
        finally:
            storage.release_views(attached)
            attached._storage.close()

    def test_mmap_views_are_read_only(self, tmp_path):
        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        compiled.save(path)
        attached = CompiledGraph.mmap(path)
        try:
            with pytest.raises(TypeError):
                attached.xadj[0] = 1
            with pytest.raises(TypeError):
                attached.signs[0] = 0
        finally:
            storage.release_views(attached)
            attached._storage.close()

    def test_fingerprint_verified_on_attach(self, tmp_path):
        graph = _search_graph()
        compiled = compile_graph(graph)
        fingerprint = graph_fingerprint(graph)
        path = tmp_path / "g.graph"
        compiled.save(path, fingerprint=fingerprint)
        attached = CompiledGraph.mmap(path, expected_fingerprint=fingerprint)
        storage.release_views(attached)
        attached._storage.close()
        with pytest.raises(StorageError, match="fingerprint"):
            CompiledGraph.mmap(path, expected_fingerprint="ab" * 32)

    def test_unstamped_artifact_fails_fingerprint_check(self, tmp_path):
        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        compiled.save(path)  # no fingerprint stamped
        fingerprint = graph_fingerprint(_search_graph())
        with pytest.raises(StorageError, match="fingerprint"):
            CompiledGraph.mmap(path, expected_fingerprint=fingerprint)

    def test_truncated_file_is_rejected(self, tmp_path):
        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        total = compiled.save(path)
        with open(path, "r+b") as handle:
            handle.truncate(total - 16)
        with pytest.raises(StorageError, match="truncated"):
            CompiledGraph.mmap(path)

    def test_non_artifact_file_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-graph"
        path.write_bytes(b"\x00" * 512)
        with pytest.raises(StorageError, match="magic"):
            CompiledGraph.mmap(path)

    @pytest.mark.skipif(not HAS_NUMPY, reason="packed matrices need numpy")
    def test_packed_matrices_preseeded_and_identical(self, tmp_path):
        import numpy as np

        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        compiled.save(path, packed="always")
        attached = CompiledGraph.mmap(path)
        try:
            assert set(attached._packed) == set(storage.PACKED_SIGNS)
            for sign in storage.PACKED_SIGNS:
                assert np.array_equal(attached._packed[sign], compiled.packed(sign))
                with pytest.raises(ValueError):
                    attached._packed[sign][0, 0] = 1  # read-only frombuffer
        finally:
            storage.release_views(attached)
            attached._storage.close()

    def test_packed_none_stores_csr_only(self, tmp_path):
        compiled = compile_graph(_search_graph())
        path = tmp_path / "g.graph"
        compiled.save(path, packed="none")
        attached = CompiledGraph.mmap(path)
        try:
            assert attached._storage.header.flags == 0
            assert attached._packed == {}
        finally:
            storage.release_views(attached)
            attached._storage.close()

    def test_unknown_packed_mode_rejected(self, tmp_path):
        compiled = compile_graph(_search_graph())
        with pytest.raises(ParameterError, match="packed"):
            compiled.save(tmp_path / "g.graph", packed="sometimes")

    def test_save_is_atomic_no_temp_residue(self, tmp_path):
        compiled = compile_graph(_search_graph())
        compiled.save(tmp_path / "g.graph")
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {"g.graph"}

    @pytest.mark.parametrize("backend", available_backends())
    def test_search_over_mmapped_graph_matches_compiled(self, tmp_path, backend):
        graph = _search_graph()
        compiled = compile_graph(graph)
        expected = _fingerprint(
            MSCE(compiled, AlphaK(2, 2), backend=backend).enumerate_all()
        )
        path = tmp_path / "g.graph"
        compiled.save(path)
        attached = CompiledGraph.mmap(path)
        try:
            result = MSCE(attached, AlphaK(2, 2), backend=backend).enumerate_all()
            assert _fingerprint(result) == expected
        finally:
            storage.release_views(attached)
            attached._storage.close()

    def test_empty_graph_round_trips(self, tmp_path):
        compiled = compile_graph(SignedGraph())
        path = tmp_path / "empty.graph"
        compiled.save(path)
        attached = CompiledGraph.mmap(path)
        try:
            assert attached.n == 0
            assert list(attached.xadj) == [0]
        finally:
            storage.release_views(attached)
            attached._storage.close()


# ----------------------------------------------------------------------
# Frame store / spill frontier
# ----------------------------------------------------------------------
class TestFrameStore:
    def test_lifo_batch_round_trip(self):
        store = storage.FrameStore()
        try:
            first = [(0b1011, 0b1), (0b100, 0b10)]
            second = [(1 << 200 | 5, 1 << 128), (0, 0)]
            assert store.push_batch(first) == 2
            assert store.push_batch(second) == 2
            assert store.pending == 4
            assert store.pop_batch() == second
            assert store.pop_batch() == first
            assert store.pop_batch() == []
        finally:
            store.close()

    def test_truncate_on_pop_bounds_file_size(self):
        store = storage.FrameStore()
        try:
            for _ in range(8):
                store.push_batch([(1 << 512, 1 << 512)])
                store.pop_batch()
            # The file never accumulates popped batches.
            assert os.path.getsize(store.path) == 0
            assert store.spilled_frames == 8
        finally:
            store.close()

    def test_drain_returns_everything(self):
        store = storage.FrameStore()
        try:
            store.push_batch([(1, 2)])
            store.push_batch([(3, 4), (5, 6)])
            assert store.drain() == [(3, 4), (5, 6), (1, 2)]
            assert store.pending == 0
        finally:
            store.close()

    def test_close_removes_file_and_is_idempotent(self):
        store = storage.FrameStore()
        path = store.path
        store.close()
        store.close()
        assert not os.path.exists(path)

    @settings(max_examples=50, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 300),
                st.integers(min_value=0, max_value=1 << 300),
            ),
            max_size=20,
        )
    )
    def test_any_mask_pair_round_trips(self, frames):
        store = storage.FrameStore()
        try:
            store.push_batch(frames)
            assert store.pop_batch() == (frames or [])
        finally:
            store.close()


class TestSpillFrontier:
    def test_high_water_derived_from_budget(self):
        frontier = storage.SpillFrontier(1, n=64)
        try:
            assert frontier.high_water == storage.MIN_HIGH_WATER
        finally:
            frontier.close()
        big = storage.SpillFrontier(1 << 40, n=64)
        try:
            assert big.high_water == storage.MAX_HIGH_WATER
        finally:
            big.close()

    def test_should_spill_above_high_water(self):
        frontier = storage.SpillFrontier(1, n=8)
        try:
            assert not frontier.should_spill(frontier.high_water)
            assert frontier.should_spill(frontier.high_water + 1)
        finally:
            frontier.close()

    def test_spill_refill_round_trip(self):
        frontier = storage.SpillFrontier(1, n=8)
        try:
            frames = [(0b111, 0b1), (0b1010, 0b10)]
            assert frontier.spill(frames) == 2
            assert frontier.pending == 2
            assert frontier.refill() == frames
            assert frontier.pending == 0
            assert frontier.spilled_frames == 2
            assert frontier.spill_bytes > 0
        finally:
            frontier.close()


# ----------------------------------------------------------------------
# The spill oracle
# ----------------------------------------------------------------------
class TestSpillOracle:
    def test_budgeted_run_spills_and_matches_unbudgeted(self, monkeypatch):
        """Acceptance: a graph whose frontier dwarfs the budget completes
        under a 1-byte soft budget with bit-identical cliques and stats,
        spilling pending frames to disk along the way."""
        graph = _many_component_graph()
        with monkeypatch.context() as env:
            # The reference must be unbudgeted even when the suite runs
            # under REPRO_MEMORY_BUDGET.
            env.delenv("REPRO_MEMORY_BUDGET", raising=False)
            expected = enumerate_parallel(graph, 1.5, 1, workers=1)
        budgeted = enumerate_parallel(
            graph, 1.5, 1, workers=1, memory_budget_bytes=1
        )
        assert _fingerprint(budgeted) == _fingerprint(expected)
        assert not budgeted.interrupted
        assert budgeted.parallel["memory_budget_bytes"] == 1
        assert budgeted.parallel["spilled_frames"] > 0
        assert budgeted.parallel["spill_bytes"] > 0
        assert expected.parallel["spilled_frames"] == 0

    def test_budget_env_variable_enables_spilling(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMORY_BUDGET", "1")
        graph = _many_component_graph(components=40)
        result = enumerate_parallel(graph, 1.5, 1, workers=1)
        assert result.parallel["memory_budget_bytes"] == 1
        assert result.parallel["spilled_frames"] > 0

    def test_spill_dir_is_honoured_and_cleaned(self, tmp_path):
        graph = _many_component_graph(components=40)
        result = enumerate_parallel(
            graph, 1.5, 1, workers=1, memory_budget_bytes=1, spill_dir=str(tmp_path)
        )
        assert result.parallel["spilled_frames"] > 0
        assert list(tmp_path.iterdir()) == []  # spill file removed on close

    def test_no_temp_residue_after_budgeted_run(self):
        graph = _many_component_graph(components=40)
        tmp_dir = tempfile.gettempdir()
        before = set(os.listdir(tmp_dir))
        enumerate_parallel(graph, 1.5, 1, workers=1, memory_budget_bytes=1)
        gc.collect()
        leaked = {
            name
            for name in set(os.listdir(tmp_dir)) - before
            if name.startswith((storage.MMAP_PREFIX, storage.SPILL_PREFIX))
        }
        assert not leaked

    def test_generous_budget_never_spills(self):
        graph = _search_graph(seed=5, n=80)
        result = enumerate_parallel(
            graph, 1.5, 1, workers=1, memory_budget_bytes=1 << 40
        )
        assert result.parallel["memory_budget_bytes"] == 1 << 40
        assert result.parallel["spilled_frames"] == 0

    def test_budgeted_multi_worker_run_matches(self):
        graph = _many_component_graph(components=30)
        expected = enumerate_parallel(graph, 1.5, 1, workers=1)
        budgeted = enumerate_parallel(
            graph, 1.5, 1, workers=2, memory_budget_bytes=1
        )
        assert _fingerprint(budgeted) == _fingerprint(expected)
