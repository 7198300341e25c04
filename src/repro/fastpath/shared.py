"""Zero-copy shipping of a :class:`CompiledGraph` to worker processes.

The parallel enumerator used to pickle one compiled subgraph per task.
That is wasteful twice over when many tasks search the *same* graph:
the arrays are serialised per task, and every worker re-materialises a
private copy per task. :class:`SharedCompiledGraph` instead publishes
the graph **once** and ships only the frame bitmasks per task: all six
CSR arrays (combined / positive / negative ``xadj``+``adj``), the
aligned edge signs, and the pickled node list are packed into one
``multiprocessing.shared_memory`` block; each worker attaches and
reconstructs a read-only :class:`CompiledGraph` whose array slots are
``memoryview`` casts straight into the shared pages.

Lifecycle (see also ``docs/ALGORITHMS.md``):

* **create** — the parent calls :meth:`SharedCompiledGraph.create`,
  which publishes the payload and returns a handle owning the segment;
* **attach** — workers call :meth:`SharedCompiledGraph.attach` with the
  handle's :attr:`meta` tuple (picklable, a few dozen bytes) and cache
  the resulting view for the life of the process;
* **unlink** — only the creating parent calls :meth:`unlink` (in a
  ``finally``), after the workers have drained; workers merely drop
  their views and :meth:`close`. POSIX keeps shm segments alive until
  the last mapping is gone, so a parent unlink never yanks pages from
  a still-attached worker.

Node labels are arbitrary hashables, so the node list itself crosses
the boundary as one pickle inside the payload — the only per-worker
copy, made once per process, not per task.
"""

from __future__ import annotations

import os
import pickle
import weakref
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

from repro.exceptions import SharedMemoryError
from repro.fastpath.compiled import CompiledGraph
from repro.fastpath import storage as storage_mod
from repro.testing import faults

#: Picklable description of a published graph: (segment name, node
#: count, combined/positive/negative adjacency lengths, node-pickle
#: length).
SharedGraphMeta = Tuple[str, int, int, int, int, int]

_ALIGN = 8


def _aligned(offset: int) -> int:
    """Round *offset* up to the next 8-byte boundary (int64 segments)."""
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _layout(n: int, m_all: int, m_pos: int, m_neg: int, nodes_len: int) -> Tuple[List[Tuple[int, int]], int]:
    """Return ``(segments, total)``: byte (offset, length) per segment.

    Segment order: xadj, pxadj, nxadj (each ``n + 1`` int64), adj, padj,
    nadj (int64), signs (int8, aligned with adj), nodes pickle. Every
    segment starts 8-aligned so ``memoryview.cast("q")`` is safe.
    """
    lengths = [
        (n + 1) * 8,  # xadj
        (n + 1) * 8,  # pxadj
        (n + 1) * 8,  # nxadj
        m_all * 8,  # adj
        m_pos * 8,  # padj
        m_neg * 8,  # nadj
        m_all,  # signs
        nodes_len,  # pickled node list
    ]
    segments: List[Tuple[int, int]] = []
    offset = 0
    for length in lengths:
        offset = _aligned(offset)
        segments.append((offset, length))
        offset += length
    return segments, offset


class SharedCompiledGraph:
    """A :class:`CompiledGraph` published once for many processes.

    Build with :meth:`create` (parent, owns the segment) or
    :meth:`attach` (worker, borrows it). :attr:`graph` returns the
    reconstructed zero-copy view; :attr:`nbytes` is the payload size —
    what the benchmark reports as the once-per-run payload that
    replaces per-task subgraph pickles.
    """

    def __init__(
        self,
        meta: SharedGraphMeta,
        owner: bool,
        shm: shared_memory.SharedMemory,
    ):
        self.meta = meta
        self._shm = shm
        self._owner = owner
        self._graph: Optional[CompiledGraph] = None
        #: Crash guard (owner only): release the segment at garbage
        #: collection or interpreter exit if the owner never reached its
        #: explicit ``unlink()`` — e.g. an unhandled exception between
        #: ``create()`` and the ``finally`` in ``enumerate_grid``.
        #: Pid-checked, so forked workers that inherit the finalizer
        #: registry never fire it.
        self._finalizer: Optional[weakref.finalize] = None
        if owner:
            self._finalizer = weakref.finalize(
                self, _emergency_unlink, shm, os.getpid()
            )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, compiled: CompiledGraph) -> "SharedCompiledGraph":
        """Publish *compiled* once in a fresh shared-memory block.

        A tiny or missing ``/dev/shm`` raises
        :class:`~repro.exceptions.SharedMemoryError`, which the parallel
        enumerator's degradation ladder turns into an inline run.
        """
        nodes_blob = pickle.dumps(compiled.nodes, protocol=pickle.HIGHEST_PROTOCOL)
        n = compiled.n
        m_all = len(compiled.adj)
        m_pos = len(compiled.padj)
        m_neg = len(compiled.nadj)
        segments, total = _layout(n, m_all, m_pos, m_neg, len(nodes_blob))
        try:
            faults.check_shm_create()
            shm = shared_memory.SharedMemory(create=True, size=max(total, 1))
        except (OSError, faults.InjectedFault) as exc:
            raise SharedMemoryError(
                f"could not allocate a {total}-byte shared-memory segment: {exc}"
            ) from exc
        payloads = (
            compiled.xadj,
            compiled.pxadj,
            compiled.nxadj,
            compiled.adj,
            compiled.padj,
            compiled.nadj,
            compiled.signs,
            nodes_blob,
        )
        buf = shm.buf
        for (offset, length), payload in zip(segments, payloads):
            if length:
                buf[offset : offset + length] = (
                    payload if isinstance(payload, bytes) else payload.tobytes()
                )
        meta = (shm.name, n, m_all, m_pos, m_neg, len(nodes_blob))
        return cls(meta, owner=True, shm=shm)

    @classmethod
    def attach(cls, meta: SharedGraphMeta) -> "SharedCompiledGraph":
        """Open an existing segment by its :attr:`meta` (worker side)."""
        return cls(meta, owner=False, shm=shared_memory.SharedMemory(name=meta[0]))

    # ------------------------------------------------------------------
    # The zero-copy view
    # ------------------------------------------------------------------
    @property
    def graph(self) -> CompiledGraph:
        """The :class:`CompiledGraph` view into the payload (built once).

        The six CSR arrays and the sign array are ``memoryview`` casts
        into the shared pages — indexing them reads shared memory
        directly. Only the node list (a pickle of arbitrary objects) and
        the lazily-built masks / orders live in process-local memory.
        """
        if self._graph is None:
            _name, n, m_all, m_pos, m_neg, nodes_len = self.meta
            segments, _total = _layout(n, m_all, m_pos, m_neg, nodes_len)
            buf = self._shm.buf

            def int64(index: int):
                offset, length = segments[index]
                return buf[offset : offset + length].cast("q")

            graph = CompiledGraph.__new__(CompiledGraph)
            graph.nodes = pickle.loads(
                bytes(buf[segments[7][0] : segments[7][0] + nodes_len])
            )
            graph.n = n
            graph.xadj = int64(0)
            graph.pxadj = int64(1)
            graph.nxadj = int64(2)
            graph.adj = int64(3)
            graph.padj = int64(4)
            graph.nadj = int64(5)
            signs_offset, signs_len = segments[6]
            graph.signs = buf[signs_offset : signs_offset + signs_len].cast("b")
            graph._index = None
            graph._source = None
            graph._masks = {}
            graph._oriented = {}
            graph._repr_rank = None
            graph._packed = {}
            graph._storage = None
            self._graph = graph
        return self._graph

    @property
    def name(self) -> str:
        """The shared-memory segment name."""
        return self.meta[0]

    @property
    def nbytes(self) -> int:
        """Size of the published payload in bytes."""
        return self._shm.size

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's view and mapping (safe to call twice).

        The exported ``memoryview`` casts must be released before the
        mapping can go away, so the graph view is discarded first.
        """
        if self._graph is not None:
            graph = self._graph
            self._graph = None
            storage_mod.release_views(graph)
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - exports still alive elsewhere
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; after workers drained)."""
        if not self._owner:
            return
        if self._finalizer is not None:
            # Explicit unlink supersedes the crash guard.
            self._finalizer.detach()
            self._finalizer = None
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:
        return (
            f"SharedCompiledGraph(name={self.name!r}, n={self.meta[1]}, "
            f"bytes={self.nbytes}, owner={self._owner})"
        )


def _emergency_unlink(shm: shared_memory.SharedMemory, owner_pid: int) -> None:
    """Crash-path cleanup: unlink a segment its owner never released.

    Runs via ``weakref.finalize`` when the owning handle is collected or
    the interpreter exits. The pid check keeps forked worker processes
    (which inherit the parent's finalizer registry) from yanking the
    segment out from under the still-running parent.
    """
    if os.getpid() != owner_pid:
        return
    try:
        shm.close()
    except Exception:  # pragma: no cover - best-effort crash path
        pass
    try:
        shm.unlink()
    except Exception:  # pragma: no cover - best-effort crash path
        pass
