"""Incremental maintenance of the maximal (alpha, k)-clique set.

Signed networks evolve — ratings arrive, collaborations repeat, edges
flip sign. Re-enumerating after every update wastes the locality of the
change: an edge update at ``(u, v)`` can only disturb cliques inside the
closed neighbourhood of its endpoints. The paper cites core-maintenance
work ([32]) as the adjacent technique; this module applies the idea one
level up, maintaining the *answer set* itself.

Locality argument (the correctness contract, unit- and property-tested
against from-scratch enumeration):

* a clique containing ``u`` is a subset of ``{u} ∪ N(u)``, so any
  clique whose *validity* changes lies inside the affected region
  ``A = {u, v} ∪ N(u) ∪ N(v)`` (neighbourhoods taken in both the old
  and the new graph);
* a clique can *lose* maximality only to a strictly larger valid clique
  that uses the modified adjacency, i.e. one containing ``u`` or ``v``
  — and a subset of a clique through ``u`` is again inside ``A``;
* a clique can *gain* maximality only if its previously-blocking
  superset died, and that superset contained ``u`` or ``v`` — so the
  gainer is inside ``A`` too.

Hence exactly the cached cliques contained in ``A`` are invalidated,
and the replacement set is "every globally-maximal (alpha, k)-clique
contained in ``A``" — which :meth:`MSCE.enumerate_seeded` computes
directly (its maximality test is global even when the search space is
restricted).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.core.bbe import MSCE
from repro.core.cliques import SignedClique, sort_cliques
from repro.core.params import AlphaK
from repro.exceptions import GraphError, ParameterError
from repro.graphs.signed_graph import Node, SignedGraph


def closed_neighborhood(graph: SignedGraph, node: Node) -> Set[Node]:
    """``{node} ∪ N(node)``, tolerating nodes absent from *graph*.

    The building block of the affected region ``A``: take it in the
    *old* graph before mutating, union with ``{u, v}`` afterwards.
    """
    if not graph.has_node(node):
        return {node}
    return {node} | graph.neighbors(node)


def apply_edit(graph: SignedGraph, operation: str, *args) -> Set[Node]:
    """Apply one edit to *graph* in place; return the region it disturbs.

    *operation* is ``"add"``, ``"remove"`` or ``"flip"`` with arguments
    ``u, v[, sign]`` (an edge edit), or ``"add_node"`` / ``"remove_node"``
    with one node. The region, taken before the edit, holds every clique
    whose validity or maximality the edit can change (see the module
    docstring): ``{u, v} ∪ N(u) ∪ N(v)`` for an edge edit, the closed
    neighbourhood of a removed node (every clique through it lies
    inside), and ``{node}`` for a new isolated node, itself a clique when
    ``ceil(alpha * k) == 0``. An edit that changes nothing (adding a
    known node) disturbs nothing: the region is empty.
    """
    if operation == "add_node":
        (node,) = args
        if graph.has_node(node):
            return set()
        graph.add_node(node)
        return {node}
    if operation == "remove_node":
        (node,) = args
        if not graph.has_node(node):
            raise GraphError(f"node {node!r} not in graph")
        region = closed_neighborhood(graph, node)
        graph.remove_node(node)
        return region
    u, v = args[0], args[1]
    region = closed_neighborhood(graph, u) | closed_neighborhood(graph, v)
    if operation == "add":
        graph.add_edge(u, v, args[2])
    elif operation == "remove":
        graph.remove_edge(u, v)
    elif operation == "flip":
        graph.set_sign(u, v, args[2])
    else:
        raise GraphError(f"unknown edit operation {operation!r}")
    return region


def refresh_region(
    graph: SignedGraph,
    params: AlphaK,
    cliques: Dict[FrozenSet[Node], SignedClique],
    region: Set[Node],
    maxtest: str = "exact",
) -> int:
    """Apply the locality rule to a cached answer set, in place.

    Drops every cached clique contained in *region* (the only ones whose
    validity or maximality can have changed — see the module docstring;
    :func:`apply_edit` returns the region of an edit) and replaces them
    with the globally-maximal cliques inside *region* on the *current*
    graph, via :meth:`MSCE.enumerate_seeded`. Returns the number of
    cliques invalidated.
    """
    stale = [key for key in cliques if key <= region]
    for key in stale:
        del cliques[key]
    result = MSCE(graph, params, maxtest=maxtest).enumerate_seeded(
        {node for node in region if graph.has_node(node)}, frozenset()
    )
    for clique in result.cliques:
        cliques[clique.nodes] = clique
    return len(stale)


class DynamicSignedCliqueIndex:
    """A live index of all maximal (alpha, k)-cliques under graph updates.

    The index owns a private copy of the graph; mutate it through the
    index's update methods only. Query methods are O(1)/O(result).

    Parameters
    ----------
    graph:
        Initial signed graph (copied).
    params:
        The (alpha, k) parameters the index maintains.
    maxtest:
        Maximality test kind, as in :class:`MSCE` (default exact).

    Examples
    --------
    >>> from repro.graphs import SignedGraph
    >>> from repro.core.params import AlphaK
    >>> g = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
    >>> index = DynamicSignedCliqueIndex(g, AlphaK(2, 1))
    >>> [sorted(c.nodes) for c in index.cliques()]
    [[1, 2, 3]]
    >>> index.add_edge(1, 4, "+"); index.add_edge(2, 4, "+"); index.add_edge(3, 4, "+")
    >>> [sorted(c.nodes) for c in index.cliques()]
    [[1, 2, 3, 4]]
    """

    def __init__(self, graph: SignedGraph, params: AlphaK, maxtest: str = "exact"):
        self._graph = graph.copy()
        self._params = params
        self._maxtest = maxtest
        self._cliques: Dict[FrozenSet[Node], SignedClique] = {
            clique.nodes: clique
            for clique in MSCE(self._graph, params, maxtest=maxtest).enumerate_all().cliques
        }
        #: Number of updates applied since construction.
        self.updates_applied = 0
        #: Total cliques invalidated/recomputed across updates (stats).
        self.cliques_invalidated = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SignedGraph:
        """The index's current graph (treat as read-only)."""
        return self._graph

    @property
    def params(self) -> AlphaK:
        """The maintained (alpha, k) parameters."""
        return self._params

    def cliques(self) -> List[SignedClique]:
        """All current maximal (alpha, k)-cliques, largest first."""
        return sort_cliques(self._cliques.values())

    def top_r(self, r: int) -> List[SignedClique]:
        """The ``r`` largest current cliques; ``r`` must be positive."""
        if r <= 0:
            raise ParameterError(f"r must be positive, got {r}")
        return self.cliques()[:r]

    def cliques_containing(self, node: Node) -> List[SignedClique]:
        """Current maximal cliques that contain *node*."""
        return sort_cliques(
            clique for clique in self._cliques.values() if node in clique.nodes
        )

    def __len__(self) -> int:
        return len(self._cliques)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add an isolated node (itself a clique when ``ceil(alpha*k) == 0``)."""
        self._edit("add_node", node)

    def add_edge(self, u: Node, v: Node, sign: object) -> None:
        """Add edge ``(u, v)``; raises if present with a different sign."""
        self._edit("add", u, v, sign)

    def set_sign(self, u: Node, v: Node, sign: object) -> None:
        """Add edge ``(u, v)`` or flip its sign."""
        self._edit("flip", u, v, sign)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove edge ``(u, v)``; raises :class:`GraphError` if absent."""
        self._edit("remove", u, v)

    def remove_node(self, node: Node) -> None:
        """Remove *node* and its incident edges."""
        self._edit("remove_node", node)

    def apply_edits(self, edits: Iterable) -> None:
        """Apply a sequence of ``("add"/"remove"/"flip", u, v[, sign])`` edits."""
        for edit in edits:
            operation = edit[0]
            if operation == "add":
                self.add_edge(edit[1], edit[2], edit[3])
            elif operation == "remove":
                self.remove_edge(edit[1], edit[2])
            elif operation == "flip":
                self.set_sign(edit[1], edit[2], edit[3])
            else:
                raise GraphError(f"unknown edit operation {operation!r}")

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _edit(self, operation: str, *args) -> None:
        """Apply one edit and recompute the maximal cliques it disturbs."""
        region = apply_edit(self._graph, operation, *args)
        self.updates_applied += 1
        if region:
            self.cliques_invalidated += refresh_region(
                self._graph, self._params, self._cliques, region, maxtest=self._maxtest
            )
