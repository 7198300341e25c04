"""The paper's (alpha, k)-clique model as a :class:`SignedConstraint`.

This module is the MSCE logic that used to be hard-wired into
:class:`repro.fastpath.search.FrameSearch` and
:meth:`repro.core.bbe.MSCE._search_component`, extracted verbatim: the
same pruning rules in the same order with the same arithmetic, so the
refactor is bit-identical — cliques *and* :class:`~repro.core.bbe.SearchStats`
match the pre-framework enumerator across every backend and worker
count (the differential suites enforce this).

The three pruning rules (paper Section IV) map onto the framework as:

* ``prune_bound`` — ceil(alpha*k)-core pruning via the tracked ICore
  (:func:`repro.fastpath.kernels.icore_tracked_fast` on the compiled
  path, :func:`repro.algorithms.kcore.icore_tracked` on the pure path);
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

from typing import Dict, Iterable, Optional, Set, Tuple

from repro.algorithms.kcore import icore_tracked
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
            # the input, so on a reduced slice it stays in graph space.
            return masks_via_graph(_make_alpha_k_maxtest(kind), compiled, self.params)
        return make_mask_maxtest(kind, compiled, self.params)

    def audit_check(self, graph: SignedGraph, clique) -> None:
        # Keep the historical audit: the structured verify raises a
        # GraphError naming the violated constraint and witness node.
        clique.verify(graph)

    def bind_masks(self, search) -> "AlphaKMaskOps":
        return AlphaKMaskOps(search)

    def bind_graph(self, msce) -> "AlphaKGraphOps":
        return AlphaKGraphOps(msce)


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
        # Mirror of the pure inline Definition-1 check (see AlphaKGraphOps).
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
        # Same decremental-vs-recompute policy as the pure search
        # (recompute when more than a third was pruned).
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


class AlphaKGraphOps(FrameOps):
    """MSCE frame operations over node sets (the pure-Python path)."""

    __slots__ = ("msce", "graph", "threshold", "neg_budget")

    def __init__(self, msce):
        self.msce = msce
        self.graph = msce.graph
        self.threshold = msce.params.positive_threshold
        self.neg_budget = msce.params.k

    def prune_bound(
        self,
        candidates: Set[Node],
        included,
        degrees: Optional[Dict[Node, int]],
    ) -> Tuple[bool, Set[Node], Optional[Dict[Node, int]]]:
        if not self.msce.core_pruning:
            return True, candidates, degrees
        return icore_tracked(
            self.graph, included, self.threshold, candidates, degrees, sign="positive"
        )

    def feasible(
        self, members: Set[Node], degrees: Optional[Dict[Node, int]]
    ) -> bool:
        # Inline Definition-1 check, run once per recursion. With the
        # tracked positive-degree map (exact within-`members` counts
        # maintained by the core pruning), node validity reduces to
        # integer tests plus ONE negative intersection: a member is
        # adjacent to all others iff its positive degree p and its
        # internal negative count n satisfy p + n == |members| - 1,
        # and the constraints demand p >= threshold, n <= k.
        graph = self.graph
        threshold = self.threshold
        budget = self.neg_budget
        if not members:
            return False
        need = len(members) - 1
        if degrees is not None:
            for node in members:
                positive = degrees[node]
                if positive < threshold:
                    return False
                expected_negative = need - positive
                if expected_negative < 0 or expected_negative > budget:
                    return False
                if len(graph.negative_neighbors(node) & members) != expected_negative:
                    return False
            return True
        for node in members:
            if len(graph.neighbor_keys(node) & members) < need:
                return False
            if len(graph.negative_neighbors(node) & members) > budget:
                return False
            if threshold and len(graph.positive_neighbors(node) & members) < threshold:
                return False
        return True

    def update_budgets(
        self, candidates: Set[Node], included, new_included, branch: Node
    ) -> Tuple[Set[Node], int, int]:
        msce = self.msce
        graph = self.graph
        budget = self.neg_budget
        keep: Set[Node] = set(new_included)
        clique_pruned = 0
        negative_pruned = 0
        adjacency = graph.neighbor_keys(branch)
        negative_inside = {
            node: len(graph.negative_neighbors(node) & new_included)
            for node in new_included
        }
        for node in candidates:
            if node in new_included:
                continue
            if msce.clique_pruning and node not in adjacency:
                clique_pruned += 1
                continue
            if msce.negative_pruning:
                negatives = graph.negative_neighbors(node) & new_included
                if len(negatives) > budget or any(
                    negative_inside[member] + 1 > budget for member in negatives
                ):
                    negative_pruned += 1
                    continue
            keep.add(node)
        return keep, clique_pruned, negative_pruned

    def exclude_degrees(
        self,
        branch: Node,
        exclude_candidates: Set[Node],
        degrees: Optional[Dict[Node, int]],
    ) -> Optional[Dict[Node, int]]:
        if degrees is None:
            return None
        exclude_degrees: Dict[Node, int] = dict(degrees)
        exclude_degrees.pop(branch, None)
        for neighbor in self.graph.positive_neighbors(branch) & exclude_candidates:
            exclude_degrees[neighbor] -= 1
        return exclude_degrees

    def include_degrees(
        self,
        candidates: Set[Node],
        keep: Set[Node],
        degrees: Optional[Dict[Node, int]],
    ) -> Optional[Dict[Node, int]]:
        # Update the degree map decrementally when few nodes were
        # pruned; otherwise let the child recompute from scratch.
        if degrees is None:
            return None
        graph = self.graph
        removed = candidates - keep
        if 3 * len(removed) > len(keep):
            return None
        include_degrees: Dict[Node, int] = dict(degrees)
        for node in removed:
            include_degrees.pop(node, None)
        for node in removed:
            for neighbor in graph.positive_neighbors(node) & keep:
                include_degrees[neighbor] -= 1
        return include_degrees

    def branch_degree(
        self, node: Node, candidates: Set[Node], degrees: Optional[Dict[Node, int]]
    ) -> int:
        if degrees is not None:
            return degrees[node]
        return len(self.graph.positive_neighbors(node) & candidates)
