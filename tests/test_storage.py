"""Tests for the storage tier: graph artifacts.

The contracts under test, in the order the module builds them up:

* the header/layout codec round-trips and rejects corrupt prefixes;
* ``CompiledGraph.save`` / ``CompiledGraph.mmap`` round-trip every
  array bit-identically, enforce read-only attachment, and verify
  stamped fingerprints;
* searches over a mmapped graph equal searches over the in-memory
  compilation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MSCE, AlphaK
from repro.core.reduction import reduce_graph
from repro.exceptions import ParameterError, StorageError
from repro.fastpath import storage
from repro.fastpath.compiled import CompiledGraph, compile_graph
from repro.generators import gnp_signed
from repro.graphs import SignedGraph
from repro.io.cache import graph_fingerprint

ARRAY_SLOTS = ("xadj", "pxadj", "nxadj", "adj", "padj", "nadj", "signs")


def _search_graph(seed: int = 7, n: int = 60) -> SignedGraph:
    return gnp_signed(n, 0.3, negative_fraction=0.25, seed=seed)


def _fingerprint(result):
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


def _graph_space_reducer(target, point, method):
    return target.mask_from_nodes(reduce_graph(target.source, point, method=method))


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

    @pytest.mark.parametrize("reduction", ["python", "vectorized"])
    def test_search_over_mmapped_graph_matches_compiled(self, tmp_path, reduction):
        # ``vectorized`` reduces with the numpy kernels on the mapped
        # arrays; ``python`` reduces with the set-based implementations
        # on the SignedGraph rebuilt from them.
        reducer = _graph_space_reducer if reduction == "python" else None
        graph = _search_graph()
        compiled = compile_graph(graph)
        expected = _fingerprint(MSCE(compiled, AlphaK(2, 2)).enumerate_all())
        path = tmp_path / "g.graph"
        compiled.save(path)
        attached = CompiledGraph.mmap(path)
        try:
            result = MSCE(attached, AlphaK(2, 2), reducer=reducer).enumerate_all()
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
