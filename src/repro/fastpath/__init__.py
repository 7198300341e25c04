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
* :mod:`~repro.fastpath.vectorized` — numpy ports of the whole-graph
  kernels over packed ``uint64`` bitsets (:mod:`~repro.fastpath.packed`):
  core numbers, the positive-core peel, MCNew and triangle counts;
* :mod:`~repro.fastpath.kernels` — CSR and big-int mask kernels: the
  bucket-queue degeneracy order, ICore on small masks, MCBasic, the
  negative budget, connected components and :func:`reduce_mask
  <repro.fastpath.kernels.reduce_mask>`, the reduction entry point;
* :mod:`~repro.fastpath.search` — MSCE's branch-and-bound component
  search, the repo's one search loop, built around explicit resumable
  frames (:class:`~repro.fastpath.search.FrameSearch`) so the parallel
  enumerator can split, budget and offload subtrees.

:class:`~repro.core.bbe.MSCE` runs on this path by default, compiling
``SignedGraph`` input itself. To share one compilation across calls,
:func:`compile_graph` once, then hand the compiled graph anywhere a
``SignedGraph`` is accepted —
:class:`~repro.core.bbe.MSCE`, :func:`~repro.core.mcnew.mccore_new`,
:func:`~repro.core.mcbasic.mccore_basic`,
:func:`~repro.algorithms.kcore.core_numbers`, ... The kernels' results
are identical to the pure-Python kernels (the cross-validation suite
in ``tests/test_fastpath.py`` enforces this); pass
:attr:`CompiledGraph.source <repro.fastpath.compiled.CompiledGraph.source>`
to a kernel entry point to run its pure kernel instead.
"""

from repro.fastpath.bitset import IntBitset, bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph, as_compiled, compile_graph, source_graph

__all__ = [
    "CompiledGraph",
    "compile_graph",
    "as_compiled",
    "source_graph",
    "IntBitset",
    "bit_count",
    "iter_bits",
]
