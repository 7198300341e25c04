"""MCBasic (Algorithm 2): maximal constrained ceil(alpha*k)-core, baseline.

The maximal constrained ceil(alpha*k)-core (**MCCore**, Definition 3) is
the largest induced subgraph in which every node's *ego network* (the
signed subgraph induced by its positive neighbours, Definition 4)
contains a (ceil(alpha*k) - 1)-core. Lemma 3 guarantees every maximal
(alpha, k)-clique lives inside it.

MCBasic computes the MCCore exactly as the paper describes:

1. shrink to the positive-edge ceil(alpha*k)-core (Lemma 1);
2. test the neighbour-core constraint of every node by re-coring its ego
   network with ICore;
3. when a node fails, delete it and re-test its positive neighbours
   (with the cheap *degree pruning* shortcut: a node whose positive
   degree fell below ceil(alpha*k) cannot pass, no ICore call needed);
4. iterate to fixpoint.

Time O(m * |H_max|) where H_max is the largest ego network; space
O(m + n). The fixpoint is order-independent because the neighbour-core
constraint is monotone in the surviving node set, so any greedy deletion
order reaches the same (unique) maximal set — the property tests verify
MCBasic and MCNew agree on random graphs.
"""

from __future__ import annotations

from collections import deque
from typing import Set

from repro.algorithms.kcore import icore
from repro.core.params import AlphaK
from repro.core.reduction import positive_core_reduction
from repro.graphs.signed_graph import Node, SignedGraph


def _ego_has_core(graph: SignedGraph, node: Node, alive: Set[Node], core_order: int) -> bool:
    """Does *node*'s ego network (within *alive*) contain a core_order-core?

    The ego network is induced by the positive neighbours of *node* but
    its internal edges are sign-blind (Definition 4 / Fig. 2 of the
    paper: ego networks may contain negative edges).
    """
    ego = graph.positive_neighbors(node) & alive
    if len(ego) <= core_order:
        # A tau-core needs at least tau + 1 nodes; cheap reject.
        return False
    flag, _nodes = icore(graph, fixed=(), tau=core_order, within=ego, sign="all")
    return flag


def mccore_basic(graph: SignedGraph, params: AlphaK) -> Set[Node]:
    """Return the node set of the MCCore via Algorithm 2 (MCBasic).

    For degenerate parameters (``alpha * k == 0``) the constraint is
    vacuous and the full node set is returned. It is the reference for
    :func:`repro.fastpath.kernels.mccore_basic_mask`, the kernel the
    compiled pipeline runs.
    """
    from repro.obs import runtime as obs

    threshold = params.positive_threshold
    if threshold == 0:
        return graph.node_set()
    core_order = threshold - 1

    with obs.span("mccore", method="mcbasic"):
        return _mccore_basic_pure(graph, params, threshold, core_order)


def _mccore_basic_pure(
    graph: SignedGraph, params: AlphaK, threshold: int, core_order: int
) -> Set[Node]:
    """The pure-Python deletion loop of :func:`mccore_basic`."""
    alive = positive_core_reduction(graph, params)
    if not alive:
        return set()

    positive_degree = {node: len(graph.positive_neighbors(node) & alive) for node in alive}
    queue: deque = deque()
    dead: Set[Node] = set()

    # Lines 6-9: initial neighbour-core screening of every survivor.
    for node in alive:
        if not _ego_has_core(graph, node, alive, core_order):
            queue.append(node)
            dead.add(node)

    # Lines 10-19: iterative deletion. `alive` always reflects the
    # current survivor set (queued nodes are already counted out), so
    # ego re-checks see the up-to-date subgraph.
    alive -= dead
    while queue:
        node = queue.popleft()
        for neighbor in graph.positive_neighbors(node):
            if neighbor not in alive:
                continue
            positive_degree[neighbor] -= 1
            if positive_degree[neighbor] < threshold:
                # Degree pruning (lines 14-15): too few positive
                # neighbours left for any ceil(alpha*k)-1 core.
                alive.discard(neighbor)
                queue.append(neighbor)
            elif not _ego_has_core(graph, neighbor, alive, core_order):
                alive.discard(neighbor)
                queue.append(neighbor)
    return alive
