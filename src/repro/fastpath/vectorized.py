"""numpy kernels over packed-``uint64`` bitsets: whole-graph reductions.

These are the two kernels the pipeline runs on a whole compiled graph:
the positive-core peel of Lemma 1 (:func:`icore`) and MCNew's
ego-triangle peel (:func:`mccore_new_mask`). Each is a
*result-identical* port of a graph-space reference
(:func:`repro.algorithms.kcore.icore`, :func:`repro.core.mcnew.mccore_new`);
``tests/test_fastpath.py`` holds each kernel to its reference by name
across the generator suite. The ports trade the sequential peel loops
for **wave peeling**: instead of popping one violator at a time off a
queue, every current violator is removed in one numpy step and degrees
are recomputed with a ``bincount`` over the gathered CSR
neighbourhoods. That changes the *order* of removal but not the
*result*:

* the maximal tau-core is unique (the constraint "degree >= tau within
  the survivors" is monotone), so :func:`icore` converges to exactly
  the set a queue peel produces, including the fixed-node failure
  condition (``fixed ⊄ core``);
* the MC-core of MCNew is the greatest fixpoint of a monotone
  constraint system over (alive nodes, directed surviving-ego edges),
  so :func:`mccore_new_mask` — which only ever removes constraint
  violators — lands on the identical node mask.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.fastpath import packed
from repro.fastpath.compiled import CompiledGraph

if TYPE_CHECKING:  # imported lazily at runtime to keep repro.core acyclic
    from repro.core.params import AlphaK

#: Bytes per gather buffer of a popcount batch: the batch takes as many
#: ``n_words`` rows as fit, instead of materialising an (m, n_words)
#: matrix. Past a few thousand rows a larger batch buys no speed, only
#: peak memory.
_CHUNK_BYTES = 1 << 20


def _csr(compiled: CompiledGraph, sign: str) -> Tuple[np.ndarray, np.ndarray]:
    """The sign-class CSR pair as zero-copy int64 numpy views."""
    xadj, adj = compiled.csr(sign)
    return packed.as_int64(xadj), packed.as_int64(adj)


def _gather(xadj: np.ndarray, adj: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Concatenate the CSR rows of the *idx* nodes (vectorized)."""
    starts = xadj[idx]
    counts = xadj[idx + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64)
    offsets += np.repeat(starts - ends + counts, counts)
    return adj[offsets]


def pair_popcounts(
    left: np.ndarray, right: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """``popcount(left[rows[i]] & right[cols[i]])`` per pair, batched.

    The batched candidate-intersection primitive: one fancy-indexed AND
    plus a row popcount per chunk, never an O(pairs x words) resident
    matrix. The two gather buffers are allocated once and reused across
    chunks — refaulting fresh pages per chunk dominated the runtime of
    the first version of this loop.
    """
    pairs = rows.shape[0]
    out = np.empty(pairs, dtype=np.int64)
    if pairs == 0:
        return out
    chunk = max(1, _CHUNK_BYTES // (8 * max(1, left.shape[1])))
    span = min(chunk, pairs)
    buf_left = np.empty((span, left.shape[1]), dtype=np.uint64)
    buf_right = np.empty_like(buf_left)
    for start in range(0, pairs, chunk):
        stop = min(start + chunk, pairs)
        size = stop - start
        np.take(left, rows[start:stop], axis=0, out=buf_left[:size])
        np.take(right, cols[start:stop], axis=0, out=buf_right[:size])
        np.bitwise_and(buf_left[:size], buf_right[:size], out=buf_left[:size])
        out[start:stop] = packed.popcount_rows(buf_left[:size])
    return out


# ----------------------------------------------------------------------
# ICore
# ----------------------------------------------------------------------
def icore(
    compiled: CompiledGraph,
    fixed_mask: int,
    tau: int,
    within_mask: Optional[int] = None,
    sign: str = "all",
) -> Tuple[bool, int]:
    """Port of Algorithm 1 (:func:`repro.algorithms.kcore.icore`).

    Computes the (unique) maximal tau-core of the induced subgraph by
    wave peeling, then applies ICore's failure conditions: a fixed
    node outside the survivors, or an empty core, yields ``(False, 0)``.
    """
    if tau < 0:
        raise ParameterError(f"tau must be non-negative, got {tau}")
    n = compiled.n
    members = compiled.full_mask if within_mask is None else within_mask
    if fixed_mask & ~members:
        return False, 0
    if members == 0:
        return False, 0
    xadj, adj = _csr(compiled, sign)
    alive = packed.unpack_bool(packed.pack_mask(members, n), n)
    if within_mask is None or members == compiled.full_mask:
        degree = np.diff(xadj).copy()
    else:
        idx = np.flatnonzero(alive)
        counts = xadj[idx + 1] - xadj[idx]
        sources = np.repeat(idx, counts)
        neighbours = _gather(xadj, adj, idx)
        inside = alive[neighbours]
        degree = np.bincount(sources[inside], minlength=n)
    frontier = alive & (degree < tau)
    while True:
        idx = np.flatnonzero(frontier)
        if idx.size == 0:
            break
        alive[idx] = False
        neighbours = _gather(xadj, adj, idx)
        if neighbours.size:
            degree -= np.bincount(neighbours, minlength=n)
        frontier = alive & (degree < tau)
    mask = packed.unpack_mask(packed.pack_bool(alive))
    if mask == 0 or fixed_mask & ~mask:
        return False, 0
    return True, mask


# ----------------------------------------------------------------------
# MCNew peeling
# ----------------------------------------------------------------------
def mccore_new_mask(compiled: CompiledGraph, params: "AlphaK") -> int:
    """Port of Algorithm 3 (:func:`repro.core.mcnew.mccore_new`), mask result.

    State is the ``(n, n_words)`` surviving-ego matrix ``OUT`` (row *u*
    = the positive neighbours of *u* whose edge still survives) plus
    the alive vector; a second packed matrix holds the sign-blind
    adjacency rows. Each round
    recomputes every surviving directed edge's Lemma-4 delta
    ``popcount(OUT[u] & N_all(v))`` in one batched popcount, clears the
    violating edge bits, and kills nodes whose surviving positive degree
    dropped below the threshold; the loop stops at the (unique) greatest
    fixpoint the paper's queue also reaches.
    """
    threshold = params.positive_threshold
    if threshold == 0:
        return compiled.full_mask
    tau = threshold - 1
    flag, alive_mask = icore(compiled, 0, threshold, None, sign="positive")
    if not flag:
        return 0
    n = compiled.n
    alive = packed.unpack_bool(packed.pack_mask(alive_mask, n), n)
    alive_words = packed.pack_mask(alive_mask, n)
    pxadj, padj = _csr(compiled, "positive")
    # Both (n, n_words) matrices live only for this call: the search
    # never reads them, so the compiled graph does not keep them.
    ego = packed.pack_csr(n, pxadj, padj)
    ego &= alive_words[np.newaxis, :]
    ego[~alive] = 0
    all_rows = packed.pack_csr(n, *_csr(compiled, "all"))

    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(pxadj))
    heads = padj
    inside = alive[tails] & alive[heads]
    tails, heads = tails[inside], heads[inside]

    while True:
        present = packed.test_bit(ego, tails, heads)
        tails, heads = tails[present], heads[present]
        delta = pair_popcounts(ego, all_rows, tails, heads)
        bad = delta < tau
        degree = packed.popcount_rows(ego)
        dead = alive & (degree < threshold)
        if not bad.any() and not dead.any():
            break
        packed.clear_bits(ego, tails[bad], heads[bad])
        if dead.any():
            alive &= ~dead
            ego[dead] = 0
            alive_words = packed.pack_bool(alive)
            ego &= alive_words[np.newaxis, :]
    return packed.unpack_mask(packed.pack_bool(alive))
