"""The paper's (alpha, k)-clique model as a :class:`SignedConstraint`.

This module holds the MSCE rules the generic
:class:`repro.fastpath.search.FrameSearch` calls, over bitmasks of
compiled node indices.

The three pruning rules (paper Section IV) map onto the framework as:

* ``prune_bound`` — ceil(alpha*k)-core pruning of ``R`` fixing ``I``,
  a wave peel over bit-sliced positive degrees;
* ``update_budgets`` — clique-constraint and negative-edge-constraint
  pruning of the include branch, against negative counts kept
  incrementally as ``I`` grows;
* ``feasible`` — the inline Definition-1 check driving early
  termination, with one bit-sliced degree compare before any per-member
  work.

Each frame threads its positive degrees and negative counts in
bit-sliced form (see :class:`AlphaKMaskOps`), so every per-frame rule
costs O(log d) or O(k) big-int operations rather than one Python step
per candidate.

Parameters: ``alpha`` and ``k`` exactly as in the paper —
``positive_threshold = ceil(alpha * k)`` positive neighbours required
per member, at most ``k`` negative neighbours tolerated per member.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.core.cliques import is_alpha_k_clique
from repro.core.maxtest import make_mask_maxtest
from repro.core.maxtest import make_maxtest as _make_alpha_k_maxtest
from repro.fastpath.bitset import (
    bit_count,
    iter_bits,
    sliced_below,
    sliced_counts,
    sliced_decrement,
    sliced_min,
    sliced_total,
)
from repro.graphs.signed_graph import Node, SignedGraph
from repro.models.base import FrameOps, SignedConstraint, masks_via_graph, register_model

#: The MSCE frame state: ``(planes, budget)``, see :class:`AlphaKMaskOps`.
State = Optional[Tuple[Optional[List[int]], Optional[Tuple[List[int], int]]]]


@register_model
class AlphaKConstraint(SignedConstraint):
    """Maximal (alpha, k)-cliques (Definition 1/2): the MSCE model."""

    name = "msce"
    supports_queries = True

    def feasible(self, graph: SignedGraph, members: Iterable[Node]) -> bool:
        return is_alpha_k_clique(graph, set(members), self.params)

    def make_maxtest(self, kind: str, compiled=None):
        if compiled is None:
            return _make_alpha_k_maxtest(kind)
        if kind == "paper" and compiled.n != compiled.source.number_of_nodes():
            # The single-extension test reads every common neighbour of
            # the input, so on a slice it runs over the input's node sets.
            return masks_via_graph(_make_alpha_k_maxtest(kind), compiled, self.params)
        return make_mask_maxtest(kind, compiled, self.params)

    def audit_check(self, graph: SignedGraph, clique) -> None:
        # Keep the historical audit: the structured verify raises a
        # GraphError naming the violated constraint and witness node.
        clique.verify(graph)

    def min_leaf_size(self) -> int:
        # Every member of a leaf has ceil(alpha*k) positive neighbours in it.
        return self.params.positive_threshold + 1

    def bind_masks(self, search) -> "AlphaKMaskOps":
        return AlphaKMaskOps(search)


class AlphaKMaskOps(FrameOps):
    """MSCE frame operations over compiled-index bitmasks.

    The frame state is a pair ``(planes, budget)``; either part may be
    ``None``, meaning "recompute it in this frame":

    * ``planes`` — the positive degree inside ``R`` of every node of
      ``R``, bit-sliced (:func:`repro.fastpath.bitset.sliced_counts`).
      Built only with core pruning on.
    * ``budget = (levels, blocked)`` — the negative count against ``I``:
      ``levels[j]`` holds every node with at least ``j + 1`` negative
      neighbours in ``I``, and ``blocked`` is the OR of the negative
      rows of the members already at the budget ``k``. Built only with
      negative pruning on.
    """

    __slots__ = (
        "threshold",
        "neg_budget",
        "pos_masks",
        "neg_masks",
        "adj_masks",
        "core_pruning",
        "clique_pruning",
        "negative_pruning",
    )

    def __init__(self, search):
        msce = search.msce
        compiled = search.compiled
        self.threshold = msce.params.positive_threshold
        self.neg_budget = msce.params.k
        self.pos_masks = compiled.masks("positive")
        self.neg_masks = compiled.masks("negative")
        self.adj_masks = compiled.masks("all")
        self.core_pruning = msce.core_pruning
        self.clique_pruning = msce.clique_pruning
        self.negative_pruning = msce.negative_pruning

    def prune_bound(
        self, candidates: int, included: int, state: State
    ) -> Tuple[bool, int, State]:
        # The ceil(alpha*k)-core of G+_R fixing I, peeled by waves: every
        # node of R below the threshold goes at once, and the frame
        # fails as soon as one of them is in I. The maximal core is
        # unique, so this equals a one-node-at-a-time peel.
        planes, budget = state or (None, None)
        if self.core_pruning:
            pos_masks = self.pos_masks
            threshold = self.threshold
            if planes is None:
                planes = sliced_counts(pos_masks, candidates)
            below = sliced_below(planes, candidates, threshold)
            while below:
                if below & included:
                    return False, candidates, None
                candidates ^= below
                planes = [plane & candidates for plane in planes]
                for v in iter_bits(below):
                    sliced_decrement(planes, pos_masks[v] & candidates)
                below = sliced_below(planes, candidates, threshold)
            if not candidates:
                return False, candidates, None
        if budget is None and self.negative_pruning:
            budget = self._budget_of(included)
        return True, candidates, (planes, budget)

    def feasible(self, members: int, state: State) -> bool:
        # Inline Definition-1 check, run once per frame: every member has
        # p >= threshold positive and n <= k negative neighbours in
        # `members`, and p + n == |members| - 1 (adjacent to all others).
        if not members:
            return False
        need = bit_count(members) - 1
        k = self.neg_budget
        adj_masks = self.adj_masks
        planes = state[0] if state else None
        if planes is not None:
            # With exact positive degrees, p >= max(threshold, need - k)
            # is one bit-sliced compare; only a frame passing it pays for
            # the per-member adjacency popcounts.
            if sliced_below(planes, members, max(self.threshold, need - k)):
                return False
            rest = members
            while rest:
                low = rest & -rest
                rest ^= low
                if bit_count(adj_masks[low.bit_length() - 1] & members) != need:
                    return False
            return True
        pos_masks = self.pos_masks
        neg_masks = self.neg_masks
        threshold = self.threshold
        for i in iter_bits(members):
            if bit_count(adj_masks[i] & members) < need:
                return False
            if bit_count(neg_masks[i] & members) > k:
                return False
            if threshold and bit_count(pos_masks[i] & members) < threshold:
                return False
        return True

    def update_budgets(
        self, candidates: int, included: int, new_included: int, branch: int, state: State
    ) -> Tuple[int, int, int, Optional[Tuple[List[int], int]]]:
        # The clique rule is an AND with the branch row, the negative
        # rule one lookup in the budget state extended by the branch's
        # negative row; each counter is the popcount of what its rule
        # removed.
        rest = candidates & ~new_included
        clique_pruned = 0
        if self.clique_pruning:
            adjacent = rest & self.adj_masks[branch]
            clique_pruned = bit_count(rest ^ adjacent)
            rest = adjacent
        negative_pruned = 0
        budget = None
        if self.negative_pruning:
            levels, blocked = budget = self._extend_budget(state[1], included, branch)
            violators = (levels[-1] | blocked) & rest
            if violators:
                negative_pruned = bit_count(violators)
                rest ^= violators
        return new_included | rest, clique_pruned, negative_pruned, budget

    def exclude_degrees(self, branch: int, exclude_candidates: int, state: State) -> State:
        # I is unchanged, so the exclude child shares the budget state.
        planes, budget = state
        if planes is not None:
            planes = [plane & exclude_candidates for plane in planes]
            sliced_decrement(planes, self.pos_masks[branch] & exclude_candidates)
        return planes, budget

    def include_degrees(self, candidates: int, keep: int, state: State, budget) -> State:
        # Decrement once per pruned node, or recompute in the child when
        # more nodes were pruned than kept.
        planes = state[0]
        if planes is not None:
            removed = candidates & ~keep
            if bit_count(removed) > bit_count(keep):
                planes = None
            else:
                pos_masks = self.pos_masks
                planes = [plane & keep for plane in planes]
                for v in iter_bits(removed):
                    sliced_decrement(planes, pos_masks[v] & keep)
        return planes, budget

    def min_degree_set(self, candidates: int, included: int, state: State) -> int:
        # MSCE-G: the free candidates of minimum positive degree inside R.
        planes = state[0] if state else None
        if planes is None:  # core pruning off: no planes are threaded
            planes = sliced_counts(self.pos_masks, candidates)
        return sliced_min(planes, candidates & ~included)

    def leaf_edges(self, members: int, state: State) -> Optional[Tuple[int, int]]:
        # A leaf is a clique: its positive edges are half the sum of the
        # positive degrees, every other pair is a negative edge.
        planes = state[0] if state else None
        if planes is None:
            return None
        positive = sliced_total(planes) >> 1
        size = bit_count(members)
        return positive, size * (size - 1) // 2 - positive

    def _budget_of(self, included: int) -> Tuple[List[int], int]:
        """The budget state ``(levels, blocked)`` of the included set."""
        state: Tuple[List[int], int] = ([0] * (self.neg_budget + 1), 0)
        members = 0
        for m in iter_bits(included):
            state = self._extend_budget(state, members, m)
            members |= 1 << m
        return state

    def _extend_budget(
        self, budget: Tuple[List[int], int], included: int, branch: int
    ) -> Tuple[List[int], int]:
        """The budget state of ``included | {branch}`` from that of *included*."""
        levels, blocked = budget
        k = self.neg_budget
        neg_masks = self.neg_masks
        row = neg_masks[branch]
        new_levels = levels[:]
        for j in range(k, 0, -1):
            new_levels[j] |= levels[j - 1] & row
        new_levels[0] |= row
        if k:
            # Members whose count just reached k, plus the branch itself
            # if it joins with k negative neighbours in I already.
            level = new_levels[k - 1]
            reached = (level & ~levels[k - 1] & included) | (level & (1 << branch))
            for m in iter_bits(reached):
                blocked |= neg_masks[m]
        else:
            # With k = 0 every member is at the budget.
            blocked |= row
        return new_levels, blocked
