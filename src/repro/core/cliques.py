"""The (alpha, k)-clique model: constraint predicates and result type.

This module encodes Definition 1 (the three constraints) and Definition
2 (maximality) of the paper as composable predicates over a
:class:`~repro.graphs.SignedGraph` and a node set, plus the
:class:`SignedClique` value object the enumerators return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.params import AlphaK
from repro.exceptions import GraphError
from repro.graphs.signed_graph import Node, SignedGraph


def violates_clique_constraint(graph: SignedGraph, members: Set[Node]) -> Optional[Node]:
    """Return a witness node missing an internal edge, or ``None``.

    ``None`` means *members* induces a clique in the sign-blind graph.
    """
    needed = len(members) - 1
    for node in members:
        if not graph.has_node(node):
            return node
        if len(graph.neighbors(node) & members) < needed:
            return node
    return None


def violates_negative_constraint(
    graph: SignedGraph, members: Set[Node], params: AlphaK
) -> Optional[Node]:
    """Return a member with more than ``k`` internal negative neighbours.

    ``None`` means the negative-edge constraint holds for every member.
    Monotone: if the constraint fails for *members* it fails for every
    superset, which is what makes BBE's negative-edge pruning sound.
    """
    budget = params.k
    for node in members:
        if len(graph.negative_neighbors(node) & members) > budget:
            return node
    return None


def violates_positive_constraint(
    graph: SignedGraph, members: Set[Node], params: AlphaK
) -> Optional[Node]:
    """Return a member with fewer than ``ceil(alpha*k)`` internal positives.

    ``None`` means the positive-edge constraint holds for every member.
    """
    threshold = params.positive_threshold
    if threshold == 0:
        return None
    for node in members:
        if len(graph.positive_neighbors(node) & members) < threshold:
            return node
    return None


def is_alpha_k_clique(graph: SignedGraph, members: Iterable[Node], params: AlphaK) -> bool:
    """Return ``True`` iff *members* is a (non-empty) (alpha, k)-clique.

    Checks all three Definition-1 constraints. The empty set is not
    considered a clique (it carries no community semantics and would
    otherwise be "contained in" everything).
    """
    member_set = set(members)
    if not member_set:
        return False
    if any(not graph.has_node(node) for node in member_set):
        return False
    return (
        violates_clique_constraint(graph, member_set) is None
        and violates_negative_constraint(graph, member_set, params) is None
        and violates_positive_constraint(graph, member_set, params) is None
    )


@dataclass(frozen=True)
class SignedClique:
    """An (alpha, k)-clique result with its parameters and statistics.

    Instances are produced by the enumerators; they are hashable and
    ordered by (size, sorted node representation) so result lists are
    deterministic.

    Attributes
    ----------
    nodes:
        The member set (frozen).
    params:
        The (alpha, k) parameters under which the clique was found.
    positive_edges, negative_edges:
        Internal edge counts by sign (filled by :meth:`from_nodes`).
    """

    nodes: FrozenSet[Node]
    params: AlphaK
    positive_edges: int = 0
    negative_edges: int = 0

    @classmethod
    def from_nodes(
        cls,
        graph: SignedGraph,
        nodes: Iterable[Node],
        params: AlphaK,
        edges: Optional[Tuple[int, int]] = None,
    ) -> "SignedClique":
        """Build a result object, counting internal edges by sign.

        *edges*, when given, is the already-known ``(positive,
        negative)`` internal edge count and skips the count in *graph*.
        """
        member_set = frozenset(nodes)
        if edges is not None:
            pos, neg = edges
            return cls(nodes=member_set, params=params, positive_edges=pos, negative_edges=neg)
        pos = 0
        neg = 0
        for node in member_set:
            pos += len(graph.positive_neighbors(node) & member_set)
            neg += len(graph.negative_neighbors(node) & member_set)
        return cls(
            nodes=member_set,
            params=params,
            positive_edges=pos // 2,
            negative_edges=neg // 2,
        )

    @property
    def size(self) -> int:
        """Number of members."""
        return len(self.nodes)

    @property
    def internal_edges(self) -> int:
        """Total internal edges (size*(size-1)/2 for a clique)."""
        return self.positive_edges + self.negative_edges

    @property
    def negative_fraction(self) -> float:
        """Fraction of internal edges that are negative (0 if edgeless)."""
        total = self.internal_edges
        return self.negative_edges / total if total else 0.0

    def verify(self, graph: SignedGraph) -> None:
        """Raise :class:`GraphError` unless this is a valid (alpha, k)-clique.

        A runtime audit hook: enumerators call it when constructed with
        ``audit=True``, and tests call it on every result.
        """
        member_set = set(self.nodes)
        witness = violates_clique_constraint(graph, member_set)
        if witness is not None:
            raise GraphError(f"clique constraint violated at node {witness!r}")
        witness = violates_negative_constraint(graph, member_set, self.params)
        if witness is not None:
            raise GraphError(f"negative-edge constraint violated at node {witness!r}")
        witness = violates_positive_constraint(graph, member_set, self.params)
        if witness is not None:
            raise GraphError(f"positive-edge constraint violated at node {witness!r}")

    def sort_key(self) -> Tuple[int, ...]:
        """Deterministic ordering key: larger first, then lexicographic."""
        return (-self.size, tuple(sorted(map(repr, self.nodes))))  # type: ignore[return-value]

    def __contains__(self, node: Node) -> bool:
        return node in self.nodes

    def __iter__(self):
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def sort_cliques(cliques: Iterable[SignedClique]) -> List[SignedClique]:
    """Return *cliques* sorted largest-first with deterministic ties."""
    return sorted(cliques, key=SignedClique.sort_key)


def top_r(cliques: Iterable[SignedClique], r: int) -> List[SignedClique]:
    """Return the ``r`` largest cliques (all of them if fewer exist)."""
    ranked = sort_cliques(cliques)
    return ranked[: max(r, 0)]


def filter_maximal_sets(candidates: Iterable[FrozenSet[Node]]) -> List[FrozenSet[Node]]:
    """Keep only the containment-maximal sets of *candidates*.

    Quadratic in the number of candidates (grouped by size to shortcut
    most comparisons); used by the brute-force reference enumerator, not
    by MSCE.
    """
    unique = sorted(set(candidates), key=len, reverse=True)
    kept: List[FrozenSet[Node]] = []
    for candidate in unique:
        if not any(candidate < other for other in kept):
            kept.append(candidate)
    return kept
