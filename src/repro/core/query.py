"""Query-driven signed community search.

The paper motivates maximal (alpha, k)-cliques through community
*detection*, but its introduction also cites the community *search*
problem (Sozio & Gionis's cocktail-party problem): given query nodes,
find the cohesive group around them. MSCE supports this natively — its
search spaces ``(R, I)`` already carry a set of mandatory nodes — so
this module exposes the query variant as a first-class API:

* :func:`signed_cliques_containing` — all maximal (alpha, k)-cliques
  that contain every query node;
* :func:`best_signed_clique_for` — the largest such clique (the
  community-search answer).

The search is seeded with ``I = query`` and its candidate space is the
query's common (sign-blind) neighbourhood inside the MCCore — typically
a tiny subgraph, making community search orders of magnitude cheaper
than full enumeration (see ``benchmarks/test_query_search.py``).

Correctness: every (alpha, k)-clique containing the query consists of
the query plus common neighbours of all query nodes, and lies inside
the MCCore (Lemma 3), so the seeded space covers all answers; and the
maximality test is global, so results are maximal in the whole graph.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Set

from repro.algorithms.cliques import common_neighbors
from repro.core.bbe import MSCE, EnumerationResult
from repro.core.cliques import (
    SignedClique,
    violates_clique_constraint,
    violates_negative_constraint,
)
from repro.core.params import AlphaK
from repro.core.reduction import reduce_graph
from repro.exceptions import ParameterError
from repro.graphs.signed_graph import Node, SignedGraph


def _validated_query(graph: SignedGraph, query: Iterable[Node]) -> Set[Node]:
    query_set = set(query)
    if not query_set:
        raise ParameterError("query must contain at least one node")
    missing = [node for node in query_set if not graph.has_node(node)]
    if missing:
        raise ParameterError(f"query nodes not in graph: {sorted(map(repr, missing))}")
    return query_set


def query_candidate_space(
    graph: SignedGraph,
    query: Iterable[Node],
    params: AlphaK,
    reduction: str = "mcnew",
    reducer: Optional[Callable[[SignedGraph, AlphaK, str], Set[Node]]] = None,
) -> Optional[Set[Node]]:
    """Candidate space for cliques containing *query*, or ``None``.

    ``None`` means the answer is provably empty: the query violates the
    clique or negative-edge constraint on its own, or falls outside the
    MCCore. Otherwise the returned set is the query plus every common
    neighbour inside the MCCore whose addition respects the negative
    budget against the query.

    ``reducer`` optionally replaces :func:`~repro.core.reduction.reduce_graph`
    (same ``(graph, params, method) -> node set`` contract); the serving
    engine injects a memoised variant so repeated queries share coring.
    """
    query_set = _validated_query(graph, query)
    if violates_clique_constraint(graph, query_set) is not None:
        return None
    if violates_negative_constraint(graph, query_set, params) is not None:
        return None
    if reducer is not None:
        survivors = reducer(graph, params, reduction)
    else:
        survivors = reduce_graph(graph, params, method=reduction)
    if not query_set <= survivors:
        return None
    budget = params.k
    negative_inside = {
        node: len(graph.negative_neighbors(node) & query_set) for node in query_set
    }
    space = set(query_set)
    for candidate in common_neighbors(graph, query_set, within=survivors):
        negatives = graph.negative_neighbors(candidate) & query_set
        if len(negatives) > budget:
            continue
        if any(negative_inside[member] + 1 > budget for member in negatives):
            continue
        space.add(candidate)
    return space


def query_search(
    graph: SignedGraph,
    query: Iterable[Node],
    alpha: float,
    k: int,
    reduction: str = "mcnew",
    maxtest: str = "exact",
    time_limit: Optional[float] = None,
    max_results: Optional[int] = None,
    reducer: Optional[Callable[[SignedGraph, AlphaK, str], Set[Node]]] = None,
    search_graph: Optional[object] = None,
) -> EnumerationResult:
    """Run the seeded search and return the full :class:`EnumerationResult`.

    Every returned clique contains all query nodes and is maximal in the
    whole graph; an empty result with zero recursions means the query
    itself was infeasible.

    ``search_graph`` optionally supplies an already-compiled
    representation of *graph* (a :class:`~repro.fastpath.compiled.CompiledGraph`)
    so long-lived callers avoid recompiling per query; it must describe
    the same graph. ``reducer`` is forwarded to
    :func:`query_candidate_space`.
    """
    params = AlphaK(alpha, k)
    query_set = _validated_query(graph, query)
    space = query_candidate_space(
        graph, query_set, params, reduction=reduction, reducer=reducer
    )
    searcher = MSCE(
        graph if search_graph is None else search_graph,
        params,
        reduction=reduction,
        maxtest=maxtest,
        time_limit=time_limit,
        max_results=max_results,
    )
    if space is None:
        return searcher.enumerate_seeded(set(), frozenset())
    return searcher.enumerate_seeded(space, frozenset(query_set))


def signed_cliques_containing(
    graph: SignedGraph,
    query: Iterable[Node],
    alpha: float,
    k: int,
    reduction: str = "mcnew",
    maxtest: str = "exact",
    time_limit: Optional[float] = None,
    max_results: Optional[int] = None,
) -> List[SignedClique]:
    """All maximal (alpha, k)-cliques containing every node of *query*.

    Returns an empty list when the query is infeasible (violates a
    constraint on its own or no valid clique exists); raises
    :class:`ParameterError` for an empty query or unknown nodes. Results
    are sorted largest-first.
    """
    result = query_search(
        graph,
        query,
        alpha,
        k,
        reduction=reduction,
        maxtest=maxtest,
        time_limit=time_limit,
        max_results=max_results,
    )
    return result.cliques


def best_signed_clique_for(
    graph: SignedGraph,
    query: Iterable[Node],
    alpha: float,
    k: int,
    time_limit: Optional[float] = None,
) -> Optional[SignedClique]:
    """The largest maximal (alpha, k)-clique containing *query*, or ``None``."""
    cliques = signed_cliques_containing(graph, query, alpha, k, time_limit=time_limit)
    return cliques[0] if cliques else None
