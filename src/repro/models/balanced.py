"""Maximal balanced clique enumeration (Chen et al., arXiv:2204.00515).

A **balanced clique** is a clique of the sign-blind graph whose members
split into two sides ``(L, R)`` with every intra-side edge positive and
every cross-side edge negative — the clique analogue of structural
balance. The model here enumerates the *maximal* balanced cliques whose
smaller side has at least ``tau`` members.

Parameter mapping: the repo-wide :class:`~repro.core.params.AlphaK`
pair is reused with ``k`` read as ``tau`` (the minimum side size);
``alpha`` is ignored. ``tau = 0`` reports every maximal balanced clique
(one-sided all-positive cliques included).

Why the MSCE skeleton fits without new frame state:

* Inside a clique the two-sided partition is determined by edge signs
  to any fixed member (the *anchor*) — positive edge means same side,
  negative means other side — and is unique up to swapping ``L`` and
  ``R``. All tests below are swap-invariant, so the anchor choice is
  unobservable and a frame needs nothing beyond the usual
  ``(candidates, included)`` pair.
* The search invariant matches MSCE's: ``included`` is always a
  balanced clique and every candidate is individually compatible with
  it, so ``candidates == included`` implies the early-termination check
  fires — the generic skeleton's leaf handling carries over.
* Maximality: any balanced superset of a balanced clique ``C`` induces
  ``C``'s own partition on ``C``, so each side can only grow. Hence a
  tau-satisfying clique is maximal among tau-satisfying cliques iff it
  is maximal among *all* balanced cliques — the search enumerates
  maximal balanced cliques and applies the tau gate only at emission
  (:meth:`BalancedConstraint.reportable`), and the 2*tau size floor
  (:meth:`BalancedConstraint.search_min_size`) prunes subspaces without
  affecting the reported set.

The include-branch filter keeps a candidate ``c`` when it is adjacent
to the branch node ``v`` and the triangle ``(anchor, c, v)`` is
balanced (an even number of negative edges), which is exactly
"``sign(c, v)`` matches their relative sides". Dropped candidates are
counted as ``clique_pruned_candidates`` (non-adjacent) and
``negative_pruned_candidates`` (sign-inconsistent), reusing the MSCE
counter schema so stats plumbing, cache payloads and the bit-identity
contract across worker counts are unchanged. No reduction
is sound for this model (MSCE's cores assume the (alpha, k)
constraints), so :meth:`BalancedConstraint.reduction_rule` degrades
every method to ``"none"``; component decomposition still applies
because a balanced clique is connected.
"""

from __future__ import annotations

from typing import Iterable, Optional, Set, Tuple

from repro.core.params import AlphaK
from repro.fastpath.bitset import bit_count, iter_bits, sliced_counts, sliced_min
from repro.graphs.signed_graph import Node, SignedGraph
from repro.models.base import FrameOps, SignedConstraint, masks_via_graph, register_model


def balanced_sides(
    graph: SignedGraph, members: Iterable[Node]
) -> Optional[Tuple[Set[Node], Set[Node]]]:
    """Return the two sides of *members*, or ``None`` if not balanced.

    The partition is anchored at the ``repr``-smallest member (which
    lands in the first side); it is unique up to swapping sides.
    """
    member_set = set(members)
    if not member_set:
        return None
    anchor = min(member_set, key=repr)
    side_a = (graph.positive_neighbors(anchor) & member_set) | {anchor}
    side_b = graph.negative_neighbors(anchor) & member_set
    if side_a | side_b != member_set:
        return None
    for node in member_set:
        same = side_a if node in side_a else side_b
        if graph.positive_neighbors(node) & member_set != same - {node}:
            return None
        if graph.negative_neighbors(node) & member_set != member_set - same:
            return None
    return side_a, side_b


def is_balanced_clique(
    graph: SignedGraph, members: Iterable[Node], tau: int = 0
) -> bool:
    """``True`` iff *members* is a balanced clique with both sides >= *tau*."""
    sides = balanced_sides(graph, members)
    if sides is None:
        return False
    side_a, side_b = sides
    return min(len(side_a), len(side_b)) >= tau


def _balanced_is_maximal(graph: SignedGraph, members, params: AlphaK) -> bool:
    """Exact maximality: no outside node joins either side of *members*.

    A node ``u`` extends the clique iff it is adjacent to every member
    and its positive neighbours inside the clique are exactly one side
    (it then joins that side, its negatives covering the other).
    Assumes *members* is a balanced clique, as the enumerator
    guarantees. The tau threshold plays no role here — supersets
    inherit it — so this predicate serves both maxtest kinds.
    """
    member_set = set(members)
    anchor = min(member_set, key=repr)
    side_a = (graph.positive_neighbors(anchor) & member_set) | {anchor}
    side_b = member_set - side_a
    for u in graph.neighbor_keys(anchor) - member_set:
        pos_u = graph.positive_neighbors(u) & member_set
        neg_u = graph.negative_neighbors(u) & member_set
        if pos_u | neg_u != member_set:
            continue
        if pos_u == side_a or pos_u == side_b:
            return False
    return True


@register_model
class BalancedConstraint(SignedConstraint):
    """Maximal balanced cliques with minimum side size ``tau = params.k``."""

    name = "balanced"
    supports_queries = False

    @property
    def tau(self) -> int:
        return self.params.k

    def feasible(self, graph: SignedGraph, members: Iterable[Node]) -> bool:
        return is_balanced_clique(graph, members, self.tau)

    def reportable(self, graph: SignedGraph, members: Iterable[Node]) -> bool:
        sides = balanced_sides(graph, members)
        if sides is None:  # pragma: no cover - the search only emits balanced sets
            return False
        return min(len(sides[0]), len(sides[1])) >= self.tau

    def make_maxtest(self, kind: str, compiled=None):
        # No heuristic variant: "paper" (MSCE's single-extension test)
        # has no analogue here, so both kinds run the exact test, over
        # node sets of the whole input graph.
        if compiled is None:
            return _balanced_is_maximal
        return masks_via_graph(_balanced_is_maximal, compiled, self.params)

    def reduction_rule(self, method: str) -> str:
        return "none"

    def search_min_size(self, min_size: Optional[int]) -> Optional[int]:
        floor = 2 * self.tau
        if floor <= 1:
            return min_size
        return floor if min_size is None else max(min_size, floor)

    def bind_masks(self, search) -> "BalancedMaskOps":
        return BalancedMaskOps(search)


class BalancedMaskOps(FrameOps):
    """Balanced-clique frame operations over compiled-index bitmasks."""

    __slots__ = ("pos_masks", "neg_masks", "adj_masks")

    def __init__(self, search):
        compiled = search.compiled
        self.pos_masks = compiled.masks("positive")
        self.neg_masks = compiled.masks("negative")
        self.adj_masks = compiled.masks("all")

    def prune_bound(
        self, candidates: int, included: int, state
    ) -> Tuple[bool, int, None]:
        # No core analogue is sound; the generic size floor
        # (search_min_size) is the model's only subspace bound.
        return True, candidates, None

    def feasible(self, members: int, state) -> bool:
        if not members:
            return False
        pos_masks = self.pos_masks
        neg_masks = self.neg_masks
        anchor = (members & -members).bit_length() - 1
        side_a = (members & pos_masks[anchor]) | (1 << anchor)
        side_b = members & neg_masks[anchor]
        if side_a | side_b != members:
            return False
        for i in iter_bits(members):
            bit = 1 << i
            same = side_a if side_a & bit else side_b
            if pos_masks[i] & members != same & ~bit:
                return False
            if neg_masks[i] & members != members ^ same:
                return False
        return True

    def update_budgets(
        self, candidates: int, included: int, new_included: int, branch: int, state
    ) -> Tuple[int, int, int, None]:
        free = candidates & ~new_included
        adjacent = free & self.adj_masks[branch]
        clique_pruned = bit_count(free) - bit_count(adjacent)
        if included:
            anchor = (included & -included).bit_length() - 1
            pos_a = self.pos_masks[anchor]
            neg_a = self.neg_masks[anchor]
            pos_v = self.pos_masks[branch]
            neg_v = self.neg_masks[branch]
            if (pos_a >> branch) & 1:  # branch on the anchor's side
                consistent = (pos_a & pos_v) | (neg_a & neg_v)
            else:
                consistent = (pos_a & neg_v) | (neg_a & pos_v)
            keep_free = free & consistent
        else:
            keep_free = adjacent
        negative_pruned = bit_count(adjacent) - bit_count(keep_free)
        return new_included | keep_free, clique_pruned, negative_pruned, None

    def exclude_degrees(self, branch: int, exclude_candidates: int, state) -> None:
        return None

    def include_degrees(self, candidates: int, keep: int, state, budget) -> None:
        return None

    def min_degree_set(self, candidates: int, included: int, state) -> int:
        # Greedy peels the candidate of minimum sign-blind degree
        # inside R — a degeneracy-style order on the underlying clique.
        return sliced_min(sliced_counts(self.adj_masks, candidates), candidates & ~included)
