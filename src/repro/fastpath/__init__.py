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
  a stable node<->index mapping and lazily-built per-node adjacency
  bitmasks;
* :mod:`~repro.fastpath.bitset` — set algebra over node masks held in
  single Python integers, so candidate-set intersection is one C-level
  AND instead of a hashed set intersection;
* :mod:`~repro.fastpath.vectorized` — numpy ports of the two
  whole-graph kernels of Algorithm 4's pipeline over packed ``uint64``
  bitsets (:mod:`~repro.fastpath.packed`): the positive-core peel of
  Lemma 1 and MCNew's ego-triangle peel;
* :mod:`~repro.fastpath.kernels` — CSR and big-int mask kernels: ICore
  on small masks, MCBasic, the negative budget, connected components
  and :func:`reduce_mask <repro.fastpath.kernels.reduce_mask>`, the
  reduction entry point;
* :mod:`~repro.fastpath.search` — MSCE's branch-and-bound component
  search, the repo's one search loop, built around explicit resumable
  frames (:class:`~repro.fastpath.search.FrameSearch`) so the parallel
  enumerator can split, budget and offload subtrees.

:class:`~repro.core.bbe.MSCE` runs on this path, compiling
``SignedGraph`` input itself. To share one compilation across calls,
:func:`compile_graph` once and hand the compiled graph to
:class:`~repro.core.bbe.MSCE` or the parallel enumerators. The kernels
are called by name, on masks over compiled indices; the graph-space
functions (:func:`~repro.core.mcnew.mccore_new`,
:func:`~repro.algorithms.kcore.icore`, ...) take a ``SignedGraph`` only
and are the references ``tests/test_fastpath.py`` holds each kernel to.
"""

from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph, as_compiled, compile_graph, source_graph

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "as_compiled",
    "source_graph",
    "bit_count",
    "iter_bits",
]
