"""CSR and bitmask kernels over a :class:`CompiledGraph`.

Each kernel here is a semantics-preserving port of a set-based
reference (named in each docstring); ``tests/test_fastpath.py`` holds
each one to its reference by name across the generator suite.
Whole-graph reductions (the positive core, MCNew) run on the numpy
kernels of :mod:`repro.fastpath.vectorized`; the kernels defined here
use two data layouts:

* **CSR scans** (connected components): flat integer arrays, no
  per-probe hashing, O(m) extra memory;
* **bitmask peeling** (ICore on small masks, MCBasic's ego probes, the
  negative budget): per-node adjacency bitmasks from
  :meth:`CompiledGraph.masks`, so a candidate set is one big integer
  and "degree within the set" is a single C-level AND plus popcount.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.exceptions import ParameterError
from repro.fastpath import vectorized
from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph

if TYPE_CHECKING:  # imported lazily at runtime to keep repro.core acyclic
    from repro.core.params import AlphaK

# ----------------------------------------------------------------------
# ICore (port of repro.algorithms.kcore.icore)
# ----------------------------------------------------------------------


def icore_fast(
    compiled: CompiledGraph,
    fixed_mask: int,
    tau: int,
    within_mask: Optional[int] = None,
    sign: str = "all",
) -> Tuple[bool, int]:
    """Bitmask port of Algorithm 1 (:func:`repro.algorithms.kcore.icore`).

    *fixed_mask* plays the paper's ``I``: the moment peeling would drop
    a fixed node the call fails with ``(False, 0)``. Returns the maximal
    tau-core of the *sign*-class subgraph induced by *within_mask* (the
    whole graph when ``None``) otherwise. A queue peel over big-int
    masks, for the small masks of the maxtest's extension search; the
    whole-graph peels call :func:`repro.fastpath.vectorized.icore`,
    which returns the identical ``(flag, mask)`` (the maximal tau-core
    is unique).
    """
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
# MCCore (port of repro.core.mcbasic) and the reduction entry point
# ----------------------------------------------------------------------


def mccore_basic_mask(compiled: CompiledGraph, params: AlphaK) -> int:
    """Bitmask port of Algorithm 2 (:func:`repro.core.mcbasic.mccore_basic`).

    MCBasic is the paper's superseded baseline (kept for ablations), so
    only its initial positive-core peel is vectorized; the per-node
    ego-core probes run :func:`mask_has_core` over big-int masks.
    """
    threshold = params.positive_threshold
    if threshold == 0:
        return compiled.full_mask
    core_order = threshold - 1

    flag, alive = vectorized.icore(compiled, 0, threshold, None, sign="positive")
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


def reduce_mask(compiled: CompiledGraph, params: AlphaK, method: str = "mcnew") -> int:
    """Fastpath port of :func:`repro.core.reduction.reduce_graph` (mask result)."""
    from repro.obs import runtime as obs

    with obs.span("reduce", method=method):
        if method == "none":
            return compiled.full_mask
        if method == "positive-core":
            if params.positive_threshold == 0:
                return compiled.full_mask
            _flag, mask = vectorized.icore(
                compiled, 0, params.positive_threshold, None, sign="positive"
            )
            return mask
        if method == "mcbasic":
            with obs.span("mccore", method=method):
                return mccore_basic_mask(compiled, params)
        if method == "mcnew":
            with obs.span("mccore", method=method):
                return vectorized.mccore_new_mask(compiled, params)
        raise ParameterError(
            "unknown reduction method "
            f"{method!r}; expected one of ['mcbasic', 'mcnew', 'none', 'positive-core']"
        )


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
