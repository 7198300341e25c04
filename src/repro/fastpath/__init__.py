"""Compact CSR "fastpath" kernels for the signed clique pipeline.

Every stage of the paper's pipeline — ceil(alpha*k)-core pruning
(Lemma 1), MCNew's ego-triangle peeling (Algorithm 3) and MSCE's
per-subspace ICore calls (Algorithm 4) — is defined over
:class:`~repro.graphs.signed_graph.SignedGraph`'s per-node hashed
adjacency sets. That representation is flexible (nodes are arbitrary
hashables) but pays a hash lookup per adjacency probe, which dominates
the running time of every benchmark exhibit.

This package provides the flat alternative:

* :class:`~repro.fastpath.compiled.CompiledGraph` — a read-only
  compilation of a ``SignedGraph`` into CSR (compressed sparse row)
  integer arrays with separate positive / negative / combined adjacency,
  a stable node<->index mapping, degeneracy-ordered directed edges for
  triangle kernels, and lazily-built per-node adjacency bitmasks;
* :class:`~repro.fastpath.bitset.IntBitset` — a set-of-small-ints over a
  single Python integer, so candidate-set intersection is one C-level
  AND instead of a hashed set intersection;
* :mod:`~repro.fastpath.kernels` — array/bitset ports of the hot
  kernels: bucket-queue core decomposition, ICore with fixed nodes,
  MCNew / MCBasic, orientation-based triangle counting and connected
  components;
* :mod:`~repro.fastpath.search` — MSCE's branch-and-bound component
  search, the repo's one search loop, built around explicit resumable
  frames (:class:`~repro.fastpath.search.FrameSearch`) so the parallel
  enumerator can split, budget and offload subtrees;
* :mod:`~repro.fastpath.storage` — the durable storage tier: a
  versioned little-endian artifact layout written by
  :meth:`CompiledGraph.save <repro.fastpath.compiled.CompiledGraph.save>`
  and re-attached zero-copy by :meth:`CompiledGraph.mmap
  <repro.fastpath.compiled.CompiledGraph.mmap>`;
* :mod:`~repro.fastpath.backend` — the kernel-tier resolver
  (:func:`~repro.fastpath.backend.resolve_backend`): ``python`` is the
  pure-Python oracle, ``vectorized`` the numpy packed-uint64 port
  (:mod:`~repro.fastpath.packed` / :mod:`~repro.fastpath.vectorized`)
  that degrades silently to ``python`` when numpy is missing. Both
  tiers return bit-identical cliques and stats; only the wall clock
  changes.

:class:`~repro.core.bbe.MSCE` runs on this path by default, compiling
``SignedGraph`` input itself. To share one compilation across calls,
:func:`compile_graph` once, then hand the compiled graph anywhere a
``SignedGraph`` is accepted —
:class:`~repro.core.bbe.MSCE`, :func:`~repro.core.mcnew.mccore_new`,
:func:`~repro.core.mcbasic.mccore_basic`,
:func:`~repro.algorithms.kcore.core_numbers`, ... The kernels' results
are bit-identical to the pure-Python kernels (the cross-validation
suite in ``tests/test_fastpath.py`` enforces this); pass
``compile=False`` to the kernel entry points (not to ``MSCE``, whose
search runs only here) to force the pure kernels for ablations.
"""

from repro.fastpath.backend import (
    BACKENDS,
    available_backends,
    default_backend,
    resolve_backend,
)
from repro.fastpath.bitset import IntBitset, bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph, as_compiled, compile_graph, source_graph
from repro.fastpath.storage import GraphStore, mmap_compiled, save_compiled

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "as_compiled",
    "source_graph",
    "GraphStore",
    "save_compiled",
    "mmap_compiled",
    "IntBitset",
    "bit_count",
    "iter_bits",
    "BACKENDS",
    "available_backends",
    "default_backend",
    "resolve_backend",
]
