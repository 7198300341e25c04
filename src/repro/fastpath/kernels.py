"""Array/bitset ports of the pipeline's hot kernels.

Each kernel here is a semantics-preserving port of a pure-Python
counterpart (named in each docstring); the cross-validation suite in
``tests/test_fastpath.py`` asserts the outputs are identical across the
generator suite. Two data layouts are used:

* **CSR scans** (core decomposition, triangle counting, components):
  flat integer arrays, no per-probe hashing, O(m) extra memory;
* **bitmask peeling** (ICore, MCNew, MCBasic, the BBE helpers): per-node
  adjacency bitmasks from :meth:`CompiledGraph.masks`, so a candidate
  set is one big integer and "degree within the set" is a single
  C-level AND plus popcount.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro.exceptions import ParameterError
from repro.fastpath.backend import BACKEND_PYTHON, BACKEND_VECTORIZED, resolve_backend
from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph
from repro.graphs.signed_graph import Node

if TYPE_CHECKING:  # imported lazily at runtime to keep repro.core acyclic
    from repro.core.params import AlphaK

# ----------------------------------------------------------------------
# Core decomposition (port of repro.algorithms.kcore.core_numbers)
# ----------------------------------------------------------------------


def core_numbers_csr(n: int, xadj, adj) -> Tuple[List[int], List[int]]:
    """Matula–Beck bucket peeling over a CSR pair.

    Returns ``(core, order)``: the core number of every index plus the
    peel order (a degeneracy order, smallest remaining degree first).
    This is the flat-array port of the dict/set bucket implementation in
    :func:`repro.algorithms.kcore.core_numbers`; the swap-based bucket
    queue does O(1) work per peeled edge with zero hashing.
    """
    if n == 0:
        return [], []
    degree = [xadj[i + 1] - xadj[i] for i in range(n)]
    max_degree = max(degree)
    # bucket_start[d] = first slot of the nodes of current degree d in `vert`.
    bucket_start = [0] * (max_degree + 2)
    for d in degree:
        bucket_start[d + 1] += 1
    for d in range(1, max_degree + 2):
        bucket_start[d] += bucket_start[d - 1]
    vert = [0] * n
    position = [0] * n
    fill = bucket_start[:-1]
    for v in range(n):
        slot = fill[degree[v]]
        vert[slot] = v
        position[v] = slot
        fill[degree[v]] += 1

    core = degree[:]
    for slot in range(n):
        v = vert[slot]
        dv = core[v]
        for t in range(xadj[v], xadj[v + 1]):
            u = adj[t]
            du = core[u]
            if du > dv:
                # Swap u with the first node of its bucket, shrink the
                # bucket from the left, and decrement u's degree.
                pu = position[u]
                pw = bucket_start[du]
                w = vert[pw]
                if u != w:
                    vert[pu] = w
                    position[w] = pu
                    vert[pw] = u
                    position[u] = pw
                bucket_start[du] += 1
                core[u] = du - 1
    return core, vert


def core_numbers_fast(
    compiled: CompiledGraph, sign: str = "all", backend: Optional[str] = None
) -> Dict[Node, int]:
    """Fastpath port of :func:`repro.algorithms.kcore.core_numbers`.

    *backend* selects the kernel tier (see
    :func:`repro.fastpath.backend.resolve_backend`); every tier returns
    the identical core-number dict.
    """
    resolved = resolve_backend(backend)
    if resolved == BACKEND_VECTORIZED:
        from repro.fastpath import vectorized

        return vectorized.core_numbers(compiled, sign)
    xadj, adj = compiled.csr(sign)
    core, _order = core_numbers_csr(compiled.n, xadj, adj)
    nodes = compiled.nodes
    return {nodes[i]: core[i] for i in range(compiled.n)}


# ----------------------------------------------------------------------
# ICore (port of repro.algorithms.kcore.icore)
# ----------------------------------------------------------------------


def icore_fast(
    compiled: CompiledGraph,
    fixed_mask: int,
    tau: int,
    within_mask: Optional[int] = None,
    sign: str = "all",
    backend: Optional[str] = None,
) -> Tuple[bool, int]:
    """Bitmask port of Algorithm 1 (:func:`repro.algorithms.kcore.icore`).

    *fixed_mask* plays the paper's ``I``: the moment peeling would drop
    a fixed node the call fails with ``(False, 0)``. Returns the maximal
    tau-core of the *sign*-class subgraph induced by *within_mask* (the
    whole graph when ``None``) otherwise. The maximal tau-core is
    unique, so the wave-peeled vectorized tier returns the
    identical ``(flag, mask)``.
    """
    resolved = resolve_backend(backend)
    if resolved != BACKEND_PYTHON:
        from repro.fastpath import vectorized

        return vectorized.icore(compiled, fixed_mask, tau, within_mask, sign)
    if tau < 0:
        raise ParameterError(f"tau must be non-negative, got {tau}")
    masks = compiled.masks(sign)
    members = compiled.full_mask if within_mask is None else within_mask
    if fixed_mask & ~members:
        return False, 0

    degrees: Dict[int, int] = {}
    queue: deque = deque()
    queued = 0
    for i in iter_bits(members):
        d = bit_count(masks[i] & members)
        degrees[i] = d
        if d < tau:
            if (fixed_mask >> i) & 1:
                return False, 0
            queue.append(i)
            queued |= 1 << i

    while queue:
        i = queue.popleft()
        members &= ~(1 << i)
        for j in iter_bits(masks[i] & members & ~queued):
            d = degrees[j] - 1
            degrees[j] = d
            if d < tau:
                if (fixed_mask >> j) & 1:
                    return False, 0
                queue.append(j)
                queued |= 1 << j

    if not members:
        return False, 0
    return True, members


def budget_violators(neg_masks: List[int], members: int, scope: int, budget: int) -> int:
    """Nodes of *scope* that cannot join *members* within the negative budget.

    Node ``v`` violates iff ``members | {v}`` breaks the negative-edge
    constraint: ``v`` has more than *budget* negative neighbours in
    *members*, or a negative neighbour in *members* that already has
    *budget* of them. Both tests run over whole masks instead of one
    candidate at a time:

    * members already at the budget are OR-ed into one ``blocked``
      mask of their negative rows;
    * ``levels[j]`` is a bit-sliced saturating counter — the scope
      nodes with at least ``j + 1`` negative neighbours among the
      members seen so far — so ``levels[budget]`` is the over-budget
      set after O(|members| * budget) big-int operations.

    Negative adjacency is symmetric, so ``v`` is a negative neighbour of
    member ``m`` iff bit ``v`` of ``neg_masks[m]`` is set.
    """
    levels = [0] * (budget + 1)
    count = budget < bit_count(members)  # else no node can exceed it
    blocked = 0
    rest = members
    while rest:  # iter_bits, inlined: this runs once per branch
        low = rest & -rest
        rest ^= low
        row = neg_masks[low.bit_length() - 1]
        if bit_count(row & members) >= budget:
            blocked |= row
        if count:
            row &= scope
            if row:
                for j in range(budget, 0, -1):
                    levels[j] |= levels[j - 1] & row
                levels[0] |= row
    return (levels[budget] | blocked) & scope


def k_core_fast(
    compiled: CompiledGraph,
    k: int,
    within_mask: Optional[int] = None,
    sign: str = "all",
    backend: Optional[str] = None,
) -> int:
    """Bitmask port of :func:`repro.algorithms.kcore.k_core` (mask result)."""
    _flag, mask = icore_fast(compiled, 0, k, within_mask, sign, backend=backend)
    return mask


def mask_has_core(masks: List[int], member_mask: int, tau: int) -> bool:
    """Does the subgraph induced by *member_mask* contain a tau-core?

    The primitive behind MCBasic's ego-network test, over adjacency
    bitmasks *masks* (combined sign class for ego networks).
    """
    if tau <= 0:
        return member_mask != 0
    members = member_mask
    degrees: Dict[int, int] = {}
    stack: List[int] = []
    for i in iter_bits(members):
        d = bit_count(masks[i] & members)
        degrees[i] = d
        if d < tau:
            stack.append(i)
    while stack:
        i = stack.pop()
        if not (members >> i) & 1:
            continue
        members &= ~(1 << i)
        for j in iter_bits(masks[i] & members):
            d = degrees[j] - 1
            degrees[j] = d
            if d == tau - 1:  # crossed the threshold just now
                stack.append(j)
    return members != 0


# ----------------------------------------------------------------------
# MCCore (ports of repro.core.mcbasic / repro.core.mcnew)
# ----------------------------------------------------------------------


def mccore_basic_fast(compiled: CompiledGraph, params: AlphaK) -> Set[Node]:
    """Bitmask port of Algorithm 2 (:func:`repro.core.mcbasic.mccore_basic`)."""
    return compiled.nodes_from_mask(mccore_basic_mask(compiled, params))


def mccore_basic_mask(
    compiled: CompiledGraph, params: AlphaK, backend: Optional[str] = None
) -> int:
    """Mask-returning core of :func:`mccore_basic_fast`.

    MCBasic is the paper's superseded baseline (kept for ablations), so
    only its initial positive-core peel dispatches on *backend*; the
    per-node ego-core probes always run the tier-0 loop.
    """
    threshold = params.positive_threshold
    if threshold == 0:
        return compiled.full_mask
    core_order = threshold - 1

    flag, alive = icore_fast(compiled, 0, threshold, None, sign="positive", backend=backend)
    if not flag:
        return 0
    pos_masks = compiled.masks("positive")
    adj_masks = compiled.masks("all")

    def ego_has_core(i: int, alive_mask: int) -> bool:
        ego = pos_masks[i] & alive_mask
        if bit_count(ego) <= core_order:
            return False
        return mask_has_core(adj_masks, ego, core_order)

    positive_degree = {i: bit_count(pos_masks[i] & alive) for i in iter_bits(alive)}
    queue: deque = deque()
    dead = 0
    for i in iter_bits(alive):
        if not ego_has_core(i, alive):
            queue.append(i)
            dead |= 1 << i

    alive &= ~dead
    while queue:
        i = queue.popleft()
        for j in iter_bits(pos_masks[i] & alive):
            positive_degree[j] -= 1
            if positive_degree[j] < threshold:
                alive &= ~(1 << j)
                queue.append(j)
            elif not ego_has_core(j, alive):
                alive &= ~(1 << j)
                queue.append(j)
    return alive


def mccore_new_fast(compiled: CompiledGraph, params: AlphaK) -> Set[Node]:
    """Bitmask port of Algorithm 3 (:func:`repro.core.mcnew.mccore_new`).

    The surviving ego of every node is one bitmask, so the Lemma-4
    delta updates ("ego members adjacent to the removed node") are a
    single AND against the combined adjacency mask.
    """
    return compiled.nodes_from_mask(mccore_new_mask(compiled, params))


def mccore_new_mask(
    compiled: CompiledGraph, params: AlphaK, backend: Optional[str] = None
) -> int:
    """Mask-returning core of :func:`mccore_new_fast`.

    The MC-core is the greatest fixpoint of a monotone constraint
    system, so the vectorized wave peel
    (:func:`repro.fastpath.vectorized.mccore_new_mask`) returns the
    identical mask despite removing violators in a different order.
    """
    resolved = resolve_backend(backend)
    if resolved != BACKEND_PYTHON:
        from repro.fastpath import vectorized

        return vectorized.mccore_new_mask(compiled, params)
    threshold = params.positive_threshold
    if threshold == 0:
        return compiled.full_mask
    tau = threshold - 1

    flag, alive = icore_fast(compiled, 0, threshold, None, sign="positive", backend=resolved)
    if not flag:
        return 0
    pos_masks = compiled.masks("positive")
    adj_masks = compiled.masks("all")

    out_pos: Dict[int, int] = {u: pos_masks[u] & alive for u in iter_bits(alive)}
    positive_degree: Dict[int, int] = {u: bit_count(out_pos[u]) for u in out_pos}
    delta: Dict[Tuple[int, int], int] = {}

    edge_queue: deque = deque()
    queued: Set[Tuple[int, int]] = set()

    for u in out_pos:
        ego = out_pos[u]
        for v in iter_bits(ego):
            d = bit_count(ego & adj_masks[v])
            delta[(u, v)] = d
            if d < tau:
                edge_queue.append((u, v))
                queued.add((u, v))

    alive_ref = [alive]  # single-cell box so the helper can update it

    def delete_node(node: int, node_worklist: List[int]) -> None:
        alive_ref[0] &= ~(1 << node)
        for w in iter_bits(out_pos[node]):
            delta.pop((node, w), None)
            queued.discard((node, w))
        out_pos[node] = 0
        for w in iter_bits(pos_masks[node] & alive_ref[0]):
            if not (out_pos[w] >> node) & 1:
                continue
            out_pos[w] &= ~(1 << node)
            delta.pop((w, node), None)
            queued.discard((w, node))
            positive_degree[w] -= 1
            for x in iter_bits(out_pos[w] & adj_masks[node]):
                key = (w, x)
                delta[key] -= 1
                if delta[key] < tau and key not in queued:
                    edge_queue.append(key)
                    queued.add(key)
            if positive_degree[w] <= tau:
                node_worklist.append(w)

    while edge_queue:
        u, v = edge_queue.popleft()
        if (u, v) not in queued:
            continue
        queued.discard((u, v))
        if not (alive_ref[0] >> u) & 1 or not (out_pos.get(u, 0) >> v) & 1:
            continue
        out_pos[u] &= ~(1 << v)
        delta.pop((u, v), None)
        for w in iter_bits(out_pos[u] & adj_masks[v]):
            key = (u, w)
            delta[key] -= 1
            if delta[key] < tau and key not in queued:
                edge_queue.append(key)
                queued.add(key)
        positive_degree[u] -= 1
        if positive_degree[u] <= tau:
            worklist: List[int] = [u]
            while worklist:
                candidate = worklist.pop()
                if (alive_ref[0] >> candidate) & 1:
                    delete_node(candidate, worklist)

    return alive_ref[0]


def reduce_fast(
    compiled: CompiledGraph,
    params: AlphaK,
    method: str = "mcnew",
    backend: Optional[str] = None,
) -> Set[Node]:
    """Fastpath port of :func:`repro.core.reduction.reduce_graph`."""
    return compiled.nodes_from_mask(reduce_mask(compiled, params, method, backend=backend))


def reduce_mask(
    compiled: CompiledGraph,
    params: AlphaK,
    method: str = "mcnew",
    backend: Optional[str] = None,
) -> int:
    """Mask-returning core of :func:`reduce_fast`.

    Resolves *backend* once and threads the concrete tier into every
    sub-kernel, so a reduction never mixes tiers mid-flight; the
    resolved name is recorded on the ``reduce`` trace span.
    """
    from repro.obs import runtime as obs

    resolved = resolve_backend(backend)
    with obs.span("reduce", method=method, backend=resolved):
        if method == "none":
            return compiled.full_mask
        if method == "positive-core":
            if params.positive_threshold == 0:
                return compiled.full_mask
            _flag, mask = icore_fast(
                compiled, 0, params.positive_threshold, None, sign="positive", backend=resolved
            )
            return mask
        if method == "mcbasic":
            with obs.span("mccore", method=method):
                return mccore_basic_mask(compiled, params, backend=resolved)
        if method == "mcnew":
            with obs.span("mccore", method=method):
                return mccore_new_mask(compiled, params, backend=resolved)
        raise ParameterError(
            "unknown reduction method "
            f"{method!r}; expected one of ['mcbasic', 'mcnew', 'none', 'positive-core']"
        )


# ----------------------------------------------------------------------
# Triangles (ports of repro.algorithms.triangles)
# ----------------------------------------------------------------------


def triangle_count_fast(
    compiled: CompiledGraph, sign: str = "all", backend: Optional[str] = None
) -> int:
    """Count triangles via degeneracy orientation (forward algorithm).

    Port of :func:`repro.algorithms.triangles.triangle_count`: every
    edge is directed from earlier to later in a degeneracy order, so
    each triangle is counted exactly once and each out-neighbourhood has
    at most *degeneracy* entries. The inner membership probe is a flat
    bytearray flag, not a hashed set; the vectorized tier replaces the
    wedge scan with batched popcounts over the same orientation.
    """
    if resolve_backend(backend) != BACKEND_PYTHON:
        from repro.fastpath import vectorized

        return vectorized.triangle_count(compiled, sign)
    _order, rows = compiled.oriented(sign)
    mark = bytearray(compiled.n)
    total = 0
    for u in range(compiled.n):
        row = rows[u]
        if len(row) < 2:
            continue
        for v in row:
            mark[v] = 1
        for v in row:
            for w in rows[v]:
                total += mark[w]
        for v in row:
            mark[v] = 0
    return total


def ego_triangle_degrees_fast(
    compiled: CompiledGraph,
    within: Optional[Set[Node]] = None,
    backend: Optional[str] = None,
) -> Dict[Tuple[Node, Node], int]:
    """Bitmask port of :func:`repro.algorithms.triangles.all_ego_triangle_degrees`.

    ``delta(u, v)`` (Definition 5 / Lemma 4) is the degree of ``v``
    inside ``u``'s ego network: one AND + popcount per directed positive
    edge — or one batched popcount over *all* such edges on the
    vectorized tier.
    """
    if resolve_backend(backend) != BACKEND_PYTHON:
        from repro.fastpath import vectorized

        return vectorized.ego_triangle_degrees(compiled, within)
    pos_masks = compiled.masks("positive")
    adj_masks = compiled.masks("all")
    member_mask = (
        compiled.full_mask if within is None else compiled.mask_from_nodes(within)
    )
    nodes = compiled.nodes
    deltas: Dict[Tuple[Node, Node], int] = {}
    for u in iter_bits(member_mask):
        ego = pos_masks[u] & member_mask
        node_u = nodes[u]
        for v in iter_bits(ego):
            deltas[(node_u, nodes[v])] = bit_count(ego & adj_masks[v])
    return deltas


# ----------------------------------------------------------------------
# Connected components over CSR
# ----------------------------------------------------------------------


def component_masks(
    compiled: CompiledGraph, within_mask: Optional[int] = None, sign: str = "all"
) -> List[int]:
    """Return the connected components of the induced subgraph as bitmasks.

    CSR-BFS port of :func:`repro.graphs.components.connected_components`
    restricted to *within_mask* (sign-blind by default, matching the
    reduction pipeline's component semantics).
    """
    xadj, adj = compiled.csr(sign)
    unseen = compiled.full_mask if within_mask is None else within_mask
    components: List[int] = []
    while unseen:
        start = (unseen & -unseen).bit_length() - 1
        component = 1 << start
        unseen &= ~component
        frontier = [start]
        while frontier:
            next_frontier: List[int] = []
            for i in frontier:
                for t in range(xadj[i], xadj[i + 1]):
                    j = adj[t]
                    if (unseen >> j) & 1:
                        unseen &= ~(1 << j)
                        component |= 1 << j
                        next_frontier.append(j)
            frontier = next_frontier
        components.append(component)
    return components
