"""numpy kernels over packed-``uint64`` bitsets: whole-graph reductions.

These are the kernels the pipeline runs on a whole compiled graph:
core numbers, the positive-core peel, MCNew and the triangle counts.
Each is a *result-identical* port of a graph-space oracle
(:mod:`repro.algorithms.kcore`, :mod:`repro.algorithms.triangles`,
:mod:`repro.core.mcnew`); ``tests/test_fastpath.py`` pins the
equivalence across the generator suite. The ports trade the sequential
peel loops for **wave peeling**: instead of popping one violator at a
time off a queue, every current violator is removed in one numpy step
and degrees are recomputed with a ``bincount`` over the gathered CSR
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

Core *numbers* are likewise unique per node, but the wave peel's order
is not a valid bucket-queue tie-break, so degeneracy *orders* (used by
:meth:`CompiledGraph.oriented`) always come from the bucket queue of
:func:`repro.fastpath.kernels.core_numbers_csr`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.fastpath import packed
from repro.fastpath.compiled import CompiledGraph
from repro.graphs.signed_graph import Node

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


def _wedge_counts(
    bit_rows: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    xadj: np.ndarray,
    adj: np.ndarray,
) -> np.ndarray:
    """``popcount(bit_rows[tails[i]] & row(heads[i]))`` via wedge probes.

    Result-identical to :func:`pair_popcounts` against the packed form
    of the ``(xadj, adj)`` CSR, but each wedge ``(u, v, w)`` — edge
    ``(u, v)`` times neighbour ``w`` of ``v`` — probes a *single bit* of
    ``bit_rows[u]`` instead of ANDing two full ``n_words`` rows. For
    sparse rows (the common case: average degree << n) this moves one
    word per set bit rather than ``n_words`` words per pair, which is
    what the triangle benchmarks gate on.
    """
    probe_w = _gather(xadj, adj, heads)
    counts = xadj[heads + 1] - xadj[heads]
    if probe_w.size == 0:
        return np.zeros(tails.shape[0], dtype=np.int64)
    probe_u = np.repeat(tails, counts)
    bits = packed.test_bit(bit_rows, probe_u, probe_w)
    # Segmented sum per edge, restricted to non-empty segments: reduceat
    # sums [index[i], index[i+1]), so an empty segment's start must not
    # appear in the index list at all — clipping it in-range would steal
    # the last element of the preceding segment.
    starts = np.zeros(tails.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    sums = np.zeros(tails.shape[0], dtype=np.int64)
    occupied = counts > 0
    sums[occupied] = np.add.reduceat(bits, starts[occupied], dtype=np.int64)
    return sums


# ----------------------------------------------------------------------
# Core decomposition
# ----------------------------------------------------------------------
def core_values(n: int, xadj: np.ndarray, adj: np.ndarray) -> List[int]:
    """Core numbers by wave peeling (no order; see module docstring)."""
    if n == 0:
        return []
    degree = np.diff(xadj).copy()
    alive = np.ones(n, dtype=bool)
    core = np.zeros(n, dtype=np.int64)
    remaining = n
    k = 0
    while remaining:
        k = max(k, int(degree[alive].min()))
        frontier = alive & (degree <= k)
        while True:
            idx = np.flatnonzero(frontier)
            if idx.size == 0:
                break
            core[idx] = k
            alive[idx] = False
            remaining -= idx.size
            neighbours = _gather(xadj, adj, idx)
            if neighbours.size:
                degree -= np.bincount(neighbours, minlength=n)
            frontier = alive & (degree <= k)
        k += 1
    return core.tolist()


def core_numbers(compiled: CompiledGraph, sign: str = "all") -> Dict[Node, int]:
    """Port of :func:`repro.algorithms.kcore.core_numbers` (one sign class)."""
    xadj, adj = _csr(compiled, sign)
    core = core_values(compiled.n, xadj, adj)
    nodes = compiled.nodes
    return {nodes[i]: core[i] for i in range(compiled.n)}


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
    the alive vector. Each round
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
    ego = np.bitwise_and(compiled.packed("positive"), alive_words[np.newaxis, :])
    ego[~alive] = 0
    all_rows = compiled.packed("all")

    pxadj, padj = _csr(compiled, "positive")
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


# ----------------------------------------------------------------------
# Triangles
# ----------------------------------------------------------------------
def _oriented_arrays(
    compiled: CompiledGraph, sign: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(oxadj, tails, heads, packed_rows)`` of the degeneracy DAG.

    Orients every undirected edge from the lower to the higher
    degeneracy rank (the total order of
    :meth:`CompiledGraph.oriented`), as flat edge arrays plus the
    packed out-neighbour matrix. Cached on the compiled graph next to
    the packed sign-class matrices.
    """
    key = "oriented:" + sign
    cached = compiled._packed.get(key)
    if cached is None:
        n = compiled.n
        order, _rows = compiled.oriented(sign)
        rank = np.empty(n, dtype=np.int64)
        rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
        xadj, adj = _csr(compiled, sign)
        tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(xadj))
        keep = rank[tails] < rank[adj]
        tails, heads = tails[keep], adj[keep]
        oxadj = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=oxadj[1:])
        cached = (oxadj, tails, heads, packed.pack_edges(n, tails, heads))
        compiled._packed[key] = cached
    return cached


def triangle_count(compiled: CompiledGraph, sign: str = "all") -> int:
    """Port of :func:`repro.algorithms.triangles.triangle_count` (one sign class).

    Every triangle is counted exactly once at its source edge — for any
    acyclic orientation, ``sum(|out(u) & out(v)|)`` over directed edges
    ``(u, v)`` — so probing the degeneracy DAG's packed out-rows with
    :func:`_wedge_counts` counts every triangle exactly once.
    """
    if compiled.n == 0:
        return 0
    oxadj, tails, heads, rows = _oriented_arrays(compiled, sign)
    if tails.size == 0:
        return 0
    return int(_wedge_counts(rows, tails, heads, oxadj, heads).sum())


def ego_triangle_degrees(
    compiled: CompiledGraph, within: Optional[Set[Node]] = None
) -> Dict[Tuple[Node, Node], int]:
    """Port of :func:`repro.algorithms.triangles.all_ego_triangle_degrees`.

    The Lemma-4 delta of a directed positive edge ``(u, v)`` is
    ``|OUT[u] & N_all(v)|`` with ``OUT[u]`` the member-restricted
    positive ego row; each delta is assembled by probing ``OUT`` bits
    over the wedges ``w in N_all(v)`` (*unrestricted*),
    one word per wedge instead of a full-row AND per edge.
    """
    n = compiled.n
    member_mask = (
        compiled.full_mask if within is None else compiled.mask_from_nodes(within)
    )
    if n == 0 or member_mask == 0:
        return {}
    pxadj, padj = _csr(compiled, "positive")
    tails = np.repeat(np.arange(n, dtype=np.int64), np.diff(pxadj))
    heads = padj
    restricted = member_mask != compiled.full_mask
    if restricted:
        member = packed.unpack_bool(packed.pack_mask(member_mask, n), n)
        inside = member[tails] & member[heads]
        tails, heads = tails[inside], heads[inside]
    # Probe the *positive* side: wedges (u, v, w) with w over pos(u) —
    # tails are CSR-sorted, so the row gathers walk padj sequentially —
    # testing w against the packed unrestricted all-row of v; the member
    # restriction of OUT[u] becomes a filter on the probed w instead.
    probe_w = _gather(pxadj, padj, tails)
    counts = pxadj[tails + 1] - pxadj[tails]
    if probe_w.size == 0:
        sums = np.zeros(tails.shape[0], dtype=np.int64)
    else:
        probe_v = np.repeat(heads, counts)
        bits = packed.test_bit(compiled.packed("all"), probe_v, probe_w)
        if restricted:
            bits &= member[probe_w]
        # Non-empty segments only (see _wedge_counts); every tail here
        # has positive degree >= 1, but keep the same safe pattern.
        starts = np.zeros(tails.shape[0], dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        sums = np.zeros(tails.shape[0], dtype=np.int64)
        occupied = counts > 0
        sums[occupied] = np.add.reduceat(bits, starts[occupied], dtype=np.int64)
    nodes = compiled.nodes
    if restricted:
        pairs = list(
            zip(
                map(nodes.__getitem__, tails.tolist()),
                map(nodes.__getitem__, heads.tolist()),
            )
        )
    else:
        # The unrestricted key list depends only on the positive CSR —
        # cache it beside the packed matrices; building 2m node-pair
        # tuples is a fixed cost comparable to the probe work itself.
        pairs = compiled._packed.get("ego_pairs")
        if pairs is None:
            pairs = list(
                zip(
                    map(nodes.__getitem__, tails.tolist()),
                    map(nodes.__getitem__, heads.tolist()),
                )
            )
            compiled._packed["ego_pairs"] = pairs
    return dict(zip(pairs, sums.tolist()))
