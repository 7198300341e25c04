"""MCNew (Algorithm 3): MCCore via ego-triangle peeling in O(sigma * m).

MCBasic re-cores whole ego networks from scratch after every deletion.
MCNew avoids that by maintaining, for every *directed* positive edge
``(u, v)``, the ego-triangle degree ``delta(u, v)`` — the degree of
``v`` inside ``u``'s ego network (Lemma 4). Peeling a directed edge
whose delta fell below ``tau = ceil(alpha*k) - 1`` is exactly one step
of the tau-core peeling *inside* ``u``'s ego network, so running all
peels to fixpoint simultaneously cores every ego network at once. A node
dies when its surviving ego (its positive out-degree ``d+``) can no
longer host a tau-core, i.e. ``d+ <= tau``.

The total work is bounded by triangle counting, O(sigma * m) where sigma
is the arboricity (Theorem 4); space is O(m + n).

Implementation notes
--------------------
* ``out_pos[u]`` is the current surviving ego of ``u`` (the set of
  ``v`` with directed edge ``(u, v)`` still in the paper's ``S+``).
* Node deletion cascades immediately through a node worklist instead of
  relying on the delta queue to clean up, which is equivalent (the
  fixpoint is order-independent) and keeps the invariants simple.
* Closing edges ``(v, w)`` are looked up in the host graph restricted to
  surviving egos, so deleted nodes drop out of every ego automatically.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Set, Tuple

from repro.algorithms.kcore import icore
from repro.core.params import AlphaK
from repro.graphs.signed_graph import Node, SignedGraph

_DirectedEdge = Tuple[Node, Node]


def mccore_new(graph: SignedGraph, params: AlphaK) -> Set[Node]:
    """Return the node set of the MCCore via Algorithm 3 (MCNew).

    Produces the same set as :func:`repro.core.mcbasic.mccore_basic`;
    the property-based test-suite cross-validates the two on random
    graphs. It is the reference for
    :func:`repro.fastpath.vectorized.mccore_new_mask`, the kernel the
    compiled pipeline runs.
    """
    from repro.obs import runtime as obs

    threshold = params.positive_threshold
    if threshold == 0:
        return graph.node_set()
    tau = threshold - 1

    with obs.span("mccore", method="mcnew"):
        return _mccore_new_pure(graph, threshold, tau)


def _mccore_new_pure(graph: SignedGraph, threshold: int, tau: int) -> Set[Node]:
    """The pure-Python peeling body of :func:`mccore_new`."""
    flag, survivors = icore(graph, fixed=(), tau=threshold, sign="positive")
    if not flag:
        return set()

    alive: Set[Node] = set(survivors)
    out_pos: Dict[Node, Set[Node]] = {
        u: graph.positive_neighbors(u) & alive for u in alive
    }
    positive_degree: Dict[Node, int] = {u: len(out_pos[u]) for u in alive}
    delta: Dict[_DirectedEdge, int] = {}

    edge_queue: deque = deque()
    queued: Set[_DirectedEdge] = set()

    # Lines 5-9: initialise delta for both directions of every positive
    # edge and queue the already-unqualified ones.
    for u in alive:
        ego = out_pos[u]
        for v in ego:
            d = len(ego & graph.neighbor_keys(v))
            delta[(u, v)] = d
            if d < tau:
                edge_queue.append((u, v))
                queued.add((u, v))

    def delete_node(node: Node, node_worklist: List[Node]) -> None:
        """Remove *node* and all its directed edges, updating deltas."""
        alive.discard(node)
        # Out-edges (node, w): node's own ego disappears wholesale.
        for w in out_pos[node]:
            delta.pop((node, w), None)
            queued.discard((node, w))
        out_pos[node] = set()
        # In-edges (w, node): node leaves the ego of every positive
        # neighbour w, breaking w's ego triangles through node.
        for w in graph.positive_neighbors(node):
            if w not in alive or node not in out_pos[w]:
                continue
            out_pos[w].discard(node)
            delta.pop((w, node), None)
            queued.discard((w, node))
            positive_degree[w] -= 1
            for x in out_pos[w] & graph.neighbor_keys(node):
                key = (w, x)
                delta[key] -= 1
                if delta[key] < tau and key not in queued:
                    edge_queue.append(key)
                    queued.add(key)
            if positive_degree[w] <= tau:
                node_worklist.append(w)

    def drain_node_worklist(node_worklist: List[Node]) -> None:
        while node_worklist:
            candidate = node_worklist.pop()
            if candidate in alive:
                delete_node(candidate, node_worklist)

    # Lines 10-24: peel unqualified directed edges to fixpoint.
    while edge_queue:
        u, v = edge_queue.popleft()
        if (u, v) not in queued:
            continue  # removed by a node deletion while waiting
        queued.discard((u, v))
        if u not in alive or v not in out_pos.get(u, ()):
            continue
        out_pos[u].discard(v)
        delta.pop((u, v), None)
        # v leaves u's ego: every remaining ego member adjacent to v
        # loses one ego triangle (lines 12-14).
        for w in out_pos[u] & graph.neighbor_keys(v):
            key = (u, w)
            delta[key] -= 1
            if delta[key] < tau and key not in queued:
                edge_queue.append(key)
                queued.add(key)
        positive_degree[u] -= 1
        if positive_degree[u] <= tau:
            worklist: List[Node] = [u]
            drain_node_worklist(worklist)

    return alive
