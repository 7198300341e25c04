"""The paper's (alpha, k)-clique model as a :class:`SignedConstraint`.

This module holds the MSCE rules the generic
:class:`repro.fastpath.search.FrameSearch` calls, over bitmasks of
compiled node indices.

The three pruning rules (paper Section IV) map onto the framework as:

* ``prune_bound`` — ceil(alpha*k)-core pruning via the tracked ICore
  (:func:`repro.fastpath.kernels.icore_tracked_fast`);
* ``update_budgets`` — clique-constraint and negative-edge-constraint
  pruning of the include branch;
* ``feasible`` — the inline Definition-1 check driving early
  termination, using the tracked positive-degree shortcut when the
  degree map is threaded.

Parameters: ``alpha`` and ``k`` exactly as in the paper —
``positive_threshold = ceil(alpha * k)`` positive neighbours required
per member, at most ``k`` negative neighbours tolerated per member.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.cliques import is_alpha_k_clique
from repro.core.maxtest import make_mask_maxtest
from repro.core.maxtest import make_maxtest as _make_alpha_k_maxtest
from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.kernels import budget_violators, icore_tracked_fast
from repro.graphs.signed_graph import Node, SignedGraph
from repro.models.base import FrameOps, SignedConstraint, masks_via_graph, register_model


@register_model
class AlphaKConstraint(SignedConstraint):
    """Maximal (alpha, k)-cliques (Definition 1/2): the MSCE model."""

    name = "msce"
    tracks_degrees = True
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
    """MSCE frame operations over compiled-index bitmasks."""

    __slots__ = (
        "msce",
        "compiled",
        "threshold",
        "neg_budget",
        "pos_masks",
        "neg_masks",
        "adj_masks",
    )

    def __init__(self, search):
        msce = search.msce
        compiled = search.compiled
        self.msce = msce
        self.compiled = compiled
        self.threshold = msce.params.positive_threshold
        self.neg_budget = msce.params.k
        self.pos_masks = compiled.masks("positive")
        self.neg_masks = compiled.masks("negative")
        self.adj_masks = compiled.masks("all")

    def prune_bound(
        self, candidates: int, included: int, degrees: Optional[Dict[int, int]]
    ) -> Tuple[bool, int, Optional[Dict[int, int]]]:
        if not self.msce.core_pruning:
            return True, candidates, degrees
        return icore_tracked_fast(
            self.compiled, included, self.threshold, candidates, degrees, sign="positive"
        )

    def feasible(self, members: int, degrees: Optional[Dict[int, int]]) -> bool:
        # Inline Definition-1 check, run once per frame. With the tracked
        # positive-degree map (exact within-`members` counts kept by the
        # core pruning), a member is adjacent to all others iff its
        # positive degree p and internal negative count n satisfy
        # p + n == |members| - 1, and the constraints demand
        # p >= threshold, n <= k: integer tests plus one popcount.
        if not members:
            return False
        neg_masks = self.neg_masks
        need = bit_count(members) - 1
        budget = self.neg_budget
        threshold = self.threshold
        if degrees is not None:
            for i in iter_bits(members):
                positive = degrees[i]
                if positive < threshold:
                    return False
                expected_negative = need - positive
                if expected_negative < 0 or expected_negative > budget:
                    return False
                if bit_count(neg_masks[i] & members) != expected_negative:
                    return False
            return True
        pos_masks = self.pos_masks
        adj_masks = self.adj_masks
        for i in iter_bits(members):
            if bit_count(adj_masks[i] & members) < need:
                return False
            if bit_count(neg_masks[i] & members) > budget:
                return False
            if threshold and bit_count(pos_masks[i] & members) < threshold:
                return False
        return True

    def update_budgets(
        self, candidates: int, included: int, new_included: int, branch: int
    ) -> Tuple[int, int, int]:
        msce = self.msce
        budget = self.neg_budget
        neg_masks = self.neg_masks
        # The clique rule is an AND with the branch row, the negative
        # rule one bit-sliced budget filter; each counter is the
        # popcount of what its rule removed.
        rest = candidates & ~new_included
        clique_pruned = 0
        if msce.clique_pruning:
            adjacent = rest & self.adj_masks[branch]
            clique_pruned = bit_count(rest ^ adjacent)
            rest = adjacent
        negative_pruned = 0
        if msce.negative_pruning and rest:
            violators = budget_violators(neg_masks, new_included, rest, budget)
            negative_pruned = bit_count(violators)
            rest ^= violators
        return new_included | rest, clique_pruned, negative_pruned

    def exclude_degrees(
        self, branch: int, exclude_candidates: int, degrees: Optional[Dict[int, int]]
    ) -> Optional[Dict[int, int]]:
        if degrees is None:
            return None
        exclude_degrees: Dict[int, int] = dict(degrees)
        exclude_degrees.pop(branch, None)
        for i in iter_bits(self.pos_masks[branch] & exclude_candidates):
            exclude_degrees[i] -= 1
        return exclude_degrees

    def include_degrees(
        self, candidates: int, keep: int, degrees: Optional[Dict[int, int]]
    ) -> Optional[Dict[int, int]]:
        # Update the degree map decrementally when few nodes were
        # pruned; recompute in the child when more than a third was.
        if degrees is None:
            return None
        pos_masks = self.pos_masks
        removed = candidates & ~keep
        if 3 * bit_count(removed) > bit_count(keep):
            return None
        include_degrees: Dict[int, int] = dict(degrees)
        for i in iter_bits(removed):
            include_degrees.pop(i, None)
        for i in iter_bits(removed):
            for j in iter_bits(pos_masks[i] & keep):
                include_degrees[j] -= 1
        return include_degrees

    def branch_degree(
        self, node: int, candidates: int, degrees: Optional[Dict[int, int]]
    ) -> int:
        # MSCE-G: minimum positive degree within the candidate set. The
        # selector reads the tracked degree map itself, so this runs
        # only in ablation modes, where no map is threaded.
        return bit_count(self.pos_masks[node] & candidates)
