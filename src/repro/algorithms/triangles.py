"""Triangle and ego-triangle primitives (Definition 5 / Lemma 4).

MCNew (Algorithm 3) replaces MCBasic's repeated ego-network coring with
bookkeeping over *ego-triangle degrees*: for a directed positive edge
``(u, v)``, ``delta(u, v)`` is the number of ego triangles of ``u``
containing ``(u, v)`` — equivalently (Lemma 4), the degree of ``v``
inside ``u``'s ego network. This module provides those counts plus
general triangle enumeration used by statistics and tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

from repro.graphs.signed_graph import Node, SignedGraph


def ego_triangle_degree(
    graph: SignedGraph,
    u: Node,
    v: Node,
    within: Optional[Set[Node]] = None,
) -> int:
    """Return ``delta(u, v)``: ego triangles of *u* containing ``(u, v)``.

    Per Definition 5, a triangle ``(u, v, w)`` is an *ego triangle of u*
    iff both ``(u, v)`` and ``(u, w)`` are positive edges; the third edge
    ``(v, w)`` may carry either sign. By Lemma 4 this equals the degree
    of ``v`` in ``u``'s ego network. Note ``delta(u, v)`` is generally
    different from ``delta(v, u)``.

    *within* restricts both the positive neighbourhood of ``u`` and the
    closing edges to an induced node set.
    """
    pos_u = graph.positive_neighbors(u)
    adj_v = graph.neighbors(v)
    if within is not None:
        if u not in within or v not in within:
            return 0
        return len(pos_u & adj_v & within)
    return len(pos_u & adj_v)


def all_ego_triangle_degrees(
    graph: SignedGraph, within: Optional[Set[Node]] = None
) -> Dict[Tuple[Node, Node], int]:
    """Return ``delta`` for every *directed* positive edge ``(u, v)``.

    This is the initialisation step of MCNew (lines 5-9 of Algorithm 3):
    each undirected positive edge contributes two directed entries.
    """
    deltas: Dict[Tuple[Node, Node], int] = {}
    members = within if within is not None else graph.node_set()
    for u in members:
        pos_u = graph.positive_neighbors(u) & members
        for v in pos_u:
            deltas[(u, v)] = len(pos_u & graph.neighbors(v) & members)
    return deltas


def iter_triangles(graph: SignedGraph) -> Iterator[Tuple[Node, Node, Node]]:
    """Yield every (sign-blind) triangle of *graph* exactly once.

    Uses the standard ordered-neighbourhood method: fix an arbitrary
    total order on nodes, and emit ``(u, v, w)`` with ``u < v < w`` in
    that order.
    """
    rank = {node: index for index, node in enumerate(graph.nodes())}
    for u in graph.nodes():
        higher = {v for v in graph.neighbors(u) if rank[v] > rank[u]}
        for v in higher:
            for w in higher & graph.neighbors(v):
                if rank[w] > rank[v]:
                    yield (u, v, w)


def triangle_count(graph: SignedGraph) -> int:
    """Return the total number of (sign-blind) triangles."""
    return sum(1 for _ in iter_triangles(graph))


def triangles_per_edge(graph: SignedGraph) -> Dict[Tuple[Node, Node], int]:
    """Return the triangle support of every undirected edge.

    Keys are canonicalised so that each undirected edge appears once
    (the pair ordering follows first-seen iteration order). Used by the
    k-truss comparison utilities and by tests of Lemma 4.
    """
    support: Dict[Tuple[Node, Node], int] = {}
    index: Dict[frozenset, Tuple[Node, Node]] = {}
    for u, v, _sign in graph.edges():
        key = (u, v)
        index[frozenset((u, v))] = key
        support[key] = 0
    for u, v, w in iter_triangles(graph):
        for a, b in ((u, v), (v, w), (u, w)):
            support[index[frozenset((a, b))]] += 1
    return support


def local_triangle_counts(graph: SignedGraph) -> Dict[Node, int]:
    """Return the number of triangles through each node."""
    counts: Dict[Node, int] = {node: 0 for node in graph.nodes()}
    for u, v, w in iter_triangles(graph):
        counts[u] += 1
        counts[v] += 1
        counts[w] += 1
    return counts


def clustering_coefficient(graph: SignedGraph, node: Node) -> float:
    """Return the local (sign-blind) clustering coefficient of *node*."""
    neighbors = graph.neighbors(node)
    degree = len(neighbors)
    if degree < 2:
        return 0.0
    links = 0
    for v in neighbors:
        links += len(graph.neighbors(v) & neighbors)
    links //= 2
    return 2.0 * links / (degree * (degree - 1))
