"""Versioned on-disk storage for :class:`CompiledGraph` artifacts.

Built for graphs that should not be paid for in RAM or in pickle bytes.
:func:`save_compiled` writes a compiled graph to a single file in a
versioned, **little-endian** layout: a fixed 88-byte header (:data:`MAGIC`, version, flags, the CSR dimensions, an optional
graph fingerprint) followed by 8-aligned segments holding the six CSR
arrays, the aligned edge signs, the pickled node list, and — when
flagged — the packed-``uint64`` adjacency matrices of
:mod:`repro.fastpath.packed`. :func:`mmap_compiled` re-attaches the file
as a read-only ``mmap`` and rebuilds a :class:`CompiledGraph` whose
array slots are ``memoryview`` casts straight into the mapping — **zero
pickle bytes and zero array copies** — durable and shareable across
unrelated processes via the filesystem, whose file-backed pages the OS
shares between every attached process and evicts under pressure.
Because the mapping is ``ACCESS_READ``, any attempt to assign through
the views raises — compiled graphs are immutable and the storage tier
enforces it.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import sys
import tempfile
import weakref
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError, StorageError
from repro.fastpath.compiled import CompiledGraph
from repro.fastpath.packed import n_words

#: First 8 bytes of every graph artifact ("Repro Signed Graph", layout 1).
MAGIC = b"RSGRAPH1"

#: On-disk layout revision; bump when the header or segment order changes.
STORAGE_VERSION = 1

#: Header: magic, version, flags, reserved, n, m_all, m_pos, m_neg,
#: nodes_len, raw fingerprint (32 bytes, zero when unknown). 88 bytes,
#: 8-aligned, explicitly little-endian and padding-free.
_HEADER = struct.Struct("<8sHHIqqqqq32s")
HEADER_BYTES = _HEADER.size

#: Sign classes a packed adjacency matrix may be stored for, in segment
#: order, and their presence bits in the header ``flags`` field.
PACKED_SIGNS = ("all", "positive", "negative")
PACKED_FLAGS = {"all": 1, "positive": 2, "negative": 4}

#: ``packed="auto"`` stores the matrices only below this node count —
#: the O(n^2/8) matrices are meant for reduced search graphs, and above
#: this the CSR alone is the sensible artifact.
PACKED_NODE_LIMIT = 4096

_ALIGN = 8

#: Filename prefix of in-progress artifact saves (leak checks in the
#: fault-injection tests grep the tempdir for it).
MMAP_PREFIX = "repro-mmap-"


def _aligned(offset: int) -> int:
    """Round *offset* up to the next 8-byte boundary (int64 segments)."""
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _check_byteorder() -> None:
    if sys.byteorder != "little":  # pragma: no cover - no big-endian CI leg
        raise StorageError(
            "graph artifacts are little-endian on disk and attached "
            "zero-copy; this host is big-endian"
        )


class StorageHeader(NamedTuple):
    """Decoded artifact header — the pure value the layout derives from."""

    version: int
    flags: int
    n: int
    m_all: int
    m_pos: int
    m_neg: int
    nodes_len: int
    fingerprint: bytes  # 32 raw bytes, all-zero when unknown

    def packed_signs(self) -> Tuple[str, ...]:
        """The sign classes whose packed matrices the artifact carries."""
        return tuple(s for s in PACKED_SIGNS if self.flags & PACKED_FLAGS[s])


def encode_header(header: StorageHeader) -> bytes:
    """Serialise *header* to the fixed :data:`HEADER_BYTES` prefix."""
    for name, value in zip(("n", "m_all", "m_pos", "m_neg", "nodes_len"),
                           header[2:7]):
        if value < 0:
            raise StorageError(f"negative header field {name}={value}")
    if len(header.fingerprint) != 32:
        raise StorageError(
            f"fingerprint must be 32 raw bytes, got {len(header.fingerprint)}"
        )
    return _HEADER.pack(
        MAGIC,
        header.version,
        header.flags,
        0,
        header.n,
        header.m_all,
        header.m_pos,
        header.m_neg,
        header.nodes_len,
        header.fingerprint,
    )


def decode_header(data: bytes) -> StorageHeader:
    """Parse and validate an artifact prefix (inverse of :func:`encode_header`)."""
    if len(data) < HEADER_BYTES:
        raise StorageError(
            f"truncated artifact: {len(data)} bytes, header needs {HEADER_BYTES}"
        )
    magic, version, flags, _reserved, n, m_all, m_pos, m_neg, nodes_len, fp = (
        _HEADER.unpack(bytes(data[:HEADER_BYTES]))
    )
    if magic != MAGIC:
        raise StorageError(f"not a graph artifact (magic {magic!r})")
    if version != STORAGE_VERSION:
        raise StorageError(
            f"unsupported artifact version {version} (this build reads "
            f"{STORAGE_VERSION})"
        )
    if min(n, m_all, m_pos, m_neg, nodes_len) < 0:
        raise StorageError("corrupt artifact header: negative dimension")
    return StorageHeader(version, flags, n, m_all, m_pos, m_neg, nodes_len, fp)


def data_layout(header: StorageHeader) -> Tuple[Dict[str, Tuple[int, int]], int]:
    """Return ``(segments, total_bytes)`` for an artifact with *header*.

    ``segments`` maps segment name to its absolute ``(offset, length)``;
    every offset is 8-aligned so ``memoryview.cast("q")`` is safe. The
    fixed segments mirror ``shared._layout`` order — xadj/pxadj/nxadj,
    adj/padj/nadj, signs, nodes pickle — followed by one
    ``packed_<sign>`` matrix per flag bit, in :data:`PACKED_SIGNS` order.
    """
    n = header.n
    lengths: List[Tuple[str, int]] = [
        ("xadj", (n + 1) * 8),
        ("pxadj", (n + 1) * 8),
        ("nxadj", (n + 1) * 8),
        ("adj", header.m_all * 8),
        ("padj", header.m_pos * 8),
        ("nadj", header.m_neg * 8),
        ("signs", header.m_all),
        ("nodes", header.nodes_len),
    ]
    row_bytes = n_words(n) * 8
    for sign in header.packed_signs():
        lengths.append((f"packed_{sign}", n * row_bytes))
    segments: Dict[str, Tuple[int, int]] = {}
    offset = HEADER_BYTES
    for name, length in lengths:
        offset = _aligned(offset)
        segments[name] = (offset, length)
        offset += length
    return segments, offset


def _resolve_packed_flags(compiled: CompiledGraph, packed) -> int:
    """Map the ``packed=`` knob to header flag bits."""
    if packed in (False, "none"):
        return 0
    if packed not in (True, "always", "auto"):
        raise ParameterError(
            f"unknown packed mode {packed!r}; expected 'auto', 'always' or 'none'"
        )
    if packed == "auto" and not (0 < compiled.n <= PACKED_NODE_LIMIT):
        return 0
    return sum(PACKED_FLAGS.values())


def _fingerprint_bytes(fingerprint: Optional[str]) -> bytes:
    if fingerprint is None:
        return b"\x00" * 32
    try:
        raw = bytes.fromhex(fingerprint)
    except ValueError as exc:
        raise StorageError(f"fingerprint must be a hex digest: {exc}") from exc
    if len(raw) != 32:
        raise StorageError(
            f"fingerprint must be a 64-hex-char SHA-256 digest, got {len(raw)} bytes"
        )
    return raw


def save_compiled(
    compiled: CompiledGraph,
    path,
    packed: object = "auto",
    fingerprint: Optional[str] = None,
) -> int:
    """Write *compiled* to *path* as a graph artifact; return its size.

    ``packed`` controls the optional packed-``uint64`` matrices:
    ``"auto"`` (default) stores all three sign classes when
    ``n <= PACKED_NODE_LIMIT``; ``"always"`` stores them regardless of
    size; ``"none"`` stores only the CSR. ``fingerprint`` is the graph's SHA-256 hex digest
    (:func:`repro.io.cache.graph_fingerprint`); when given it is stamped
    into the header so :func:`mmap_compiled` can verify identity without
    rehashing the file.

    The write is atomic: a sibling temp file is populated and
    ``os.replace``\\ d over *path*, so a crashed save never leaves a
    half-written artifact behind (the temp file itself is crash-guarded).
    """
    _check_byteorder()
    path = os.fspath(path)
    nodes_blob = pickle.dumps(compiled.nodes, protocol=pickle.HIGHEST_PROTOCOL)
    flags = _resolve_packed_flags(compiled, packed)
    header = StorageHeader(
        STORAGE_VERSION,
        flags,
        compiled.n,
        len(compiled.adj),
        len(compiled.padj),
        len(compiled.nadj),
        len(nodes_blob),
        _fingerprint_bytes(fingerprint),
    )
    segments, total = data_layout(header)
    payloads: Dict[str, object] = {
        "xadj": compiled.xadj,
        "pxadj": compiled.pxadj,
        "nxadj": compiled.nxadj,
        "adj": compiled.adj,
        "padj": compiled.padj,
        "nadj": compiled.nadj,
        "signs": compiled.signs,
        "nodes": nodes_blob,
    }
    for sign in header.packed_signs():
        payloads[f"packed_{sign}"] = np.ascontiguousarray(
            compiled.packed(sign)
        ).tobytes()
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(prefix=MMAP_PREFIX, dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(encode_header(header))
            for name, (offset, length) in segments.items():
                if not length:
                    continue
                handle.seek(offset)
                payload = payloads[name]
                handle.write(
                    payload if isinstance(payload, bytes) else _as_bytes(payload)
                )
            handle.truncate(total)
        os.replace(tmp_path, path)
    except BaseException:
        _remove_file(tmp_path, os.getpid())
        raise
    return total


def _as_bytes(payload) -> bytes:
    """Raw little-endian bytes of an ``array`` / ``memoryview`` payload."""
    return payload.tobytes() if hasattr(payload, "tobytes") else bytes(payload)


class GraphStore:
    """An open, read-only mapping of one graph artifact.

    Owns the file handle and the ``mmap``; the :class:`CompiledGraph`
    built by :func:`mmap_compiled` keeps a reference in its ``_storage``
    slot, so the mapping lives exactly as long as any view into it. A
    ``weakref.finalize`` closes the mapping at collection; the file on
    disk is never deleted here — artifacts are durable.
    """

    __slots__ = ("path", "header", "nbytes", "_file", "_mmap", "_finalizer",
                 "__weakref__")

    def __init__(self, path):
        _check_byteorder()
        self.path = os.fspath(path)
        try:
            self._file = open(self.path, "rb")
            size = os.fstat(self._file.fileno()).st_size
            if size < HEADER_BYTES:
                raise StorageError(
                    f"truncated artifact {self.path!r}: {size} bytes"
                )
            self._mmap = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except OSError as exc:
            raise StorageError(f"cannot map {self.path!r}: {exc}") from exc
        self.header = decode_header(self._mmap[:HEADER_BYTES])
        _segments, total = data_layout(self.header)
        if size < total:
            raise StorageError(
                f"truncated artifact {self.path!r}: {size} bytes, "
                f"layout needs {total}"
            )
        self.nbytes = size
        self._finalizer = weakref.finalize(
            self, _close_store, self._mmap, self._file
        )

    @property
    def buffer(self) -> memoryview:
        """A read-only memoryview over the whole mapping."""
        return memoryview(self._mmap)

    def close(self) -> None:
        """Close the mapping (safe to call twice; views must be gone)."""
        self._finalizer()

    def __repr__(self) -> str:
        return (
            f"GraphStore(path={self.path!r}, n={self.header.n}, "
            f"bytes={self.nbytes})"
        )


def _close_store(mapping: mmap.mmap, handle) -> None:
    """Finalizer: close the mmap and file, tolerating exported views."""
    try:
        mapping.close()
    except (BufferError, ValueError):  # pragma: no cover - views still live
        pass
    try:
        handle.close()
    except Exception:  # pragma: no cover - best-effort crash path
        pass


def mmap_compiled(path, expected_fingerprint: Optional[str] = None) -> CompiledGraph:
    """Re-attach a saved artifact as a zero-copy :class:`CompiledGraph`.

    The six CSR arrays and the sign array become read-only
    ``memoryview`` casts into the file mapping (mutating through them
    raises), and any stored packed matrices are pre-seeded into the
    graph's ``_packed`` cache as read-only ``np.frombuffer`` views —
    nothing is copied but the pickled node list. With
    *expected_fingerprint*, the header's stamped digest must match
    (artifacts saved without one fail the check), so a cache can trust
    the artifact names the graph it thinks it does.
    """
    store = GraphStore(path)
    header = store.header
    if expected_fingerprint is not None:
        expected = _fingerprint_bytes(expected_fingerprint)
        if header.fingerprint != expected:
            store.close()
            raise StorageError(
                f"artifact {store.path!r} fingerprint mismatch: graph changed "
                "or artifact was saved without a fingerprint"
            )
    segments, _total = data_layout(header)
    buf = store.buffer

    def segment(name: str) -> memoryview:
        offset, length = segments[name]
        return buf[offset : offset + length]

    graph = CompiledGraph.__new__(CompiledGraph)
    nodes_offset, nodes_len = segments["nodes"]
    graph.nodes = pickle.loads(bytes(buf[nodes_offset : nodes_offset + nodes_len]))
    graph.n = header.n
    graph.xadj = segment("xadj").cast("q")
    graph.pxadj = segment("pxadj").cast("q")
    graph.nxadj = segment("nxadj").cast("q")
    graph.adj = segment("adj").cast("q")
    graph.padj = segment("padj").cast("q")
    graph.nadj = segment("nadj").cast("q")
    graph.signs = segment("signs").cast("b")
    graph._index = None
    graph._source = None
    graph._masks = {}
    graph._oriented = {}
    graph._repr_rank = None
    graph._packed = {}
    graph._storage = store
    packed_signs = header.packed_signs()
    if packed_signs:
        words = n_words(header.n)
        for sign in packed_signs:
            offset, length = segments[f"packed_{sign}"]
            graph._packed[sign] = np.frombuffer(
                buf, dtype=np.uint64, count=length >> 3, offset=offset
            ).reshape(header.n, words)
    return graph


def release_views(graph: CompiledGraph) -> None:
    """Release a mapped graph's memoryview exports (idempotent).

    ``mmap.close()`` refuses while casts are exported, so detach paths
    drop them first. Plain in-memory graphs
    (``array`` slots) pass through untouched.
    """
    graph._packed.clear()
    for slot in ("xadj", "pxadj", "nxadj", "adj", "padj", "nadj", "signs"):
        view = getattr(graph, slot, None)
        if isinstance(view, memoryview):
            try:
                view.release()
            except (AttributeError, ValueError):  # pragma: no cover - defensive
                pass


def _remove_file(path: str, owner_pid: int) -> None:
    """Unlink *path* if it still exists and we are the owning process."""
    if os.getpid() != owner_pid:
        return
    try:
        os.unlink(path)
    except OSError:
        pass
