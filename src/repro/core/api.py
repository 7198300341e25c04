"""High-level convenience API for signed clique search.

These functions wrap the configurable :class:`~repro.core.bbe.MSCE`
class with the paper's default configuration (MCNew reduction, greedy
selection, exact maximality), so a downstream user can get results in
two lines:

>>> from repro import SignedGraph, enumerate_signed_cliques
>>> g = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
>>> [sorted(c.nodes) for c in enumerate_signed_cliques(g, alpha=2, k=1)]
[[1, 2, 3]]
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.core.bbe import MSCE, EnumerationResult
from repro.core.cliques import SignedClique
from repro.core.params import AlphaK
from repro.core.reduction import reduce_graph
from repro.graphs.signed_graph import Node, SignedGraph


def enumerate_signed_cliques(
    graph: SignedGraph,
    alpha: float,
    k: int,
    selection: str = "greedy",
    reduction: str = "mcnew",
    maxtest: str = "exact",
    seed: int = 0,
    time_limit: Optional[float] = None,
    max_results: Optional[int] = None,
    min_size: Optional[int] = None,
    reducer: Optional[Callable] = None,
    model: Optional[str] = None,
) -> List[SignedClique]:
    """Return all maximal (alpha, k)-cliques, largest first.

    See :class:`repro.core.bbe.MSCE` for the meaning of the keyword
    options. For run metadata (statistics, timeout flags) use
    :func:`enumerate_with_stats`.
    """
    return enumerate_with_stats(
        graph,
        alpha,
        k,
        selection=selection,
        reduction=reduction,
        maxtest=maxtest,
        seed=seed,
        time_limit=time_limit,
        max_results=max_results,
        min_size=min_size,
        reducer=reducer,
        model=model,
    ).cliques


def enumerate_with_stats(
    graph: SignedGraph,
    alpha: float,
    k: int,
    selection: str = "greedy",
    reduction: str = "mcnew",
    maxtest: str = "exact",
    seed: int = 0,
    time_limit: Optional[float] = None,
    max_results: Optional[int] = None,
    min_size: Optional[int] = None,
    reducer: Optional[Callable] = None,
    model: Optional[str] = None,
) -> EnumerationResult:
    """Run the enumerator and return the full :class:`EnumerationResult`.

    ``reducer`` optionally replaces the coring pass on the compiled
    fastpath (see :class:`~repro.core.bbe.MSCE`); the serving engine
    uses it to share reduction work across an (alpha, k) grid.
    ``model`` selects the signed-cohesion constraint
    (:data:`repro.models.MODELS`, default the paper's ``"msce"``).
    """
    params = AlphaK(alpha=alpha, k=k)
    searcher = MSCE(
        graph,
        params,
        selection=selection,
        reduction=reduction,
        maxtest=maxtest,
        seed=seed,
        time_limit=time_limit,
        max_results=max_results,
        min_size=min_size,
        reducer=reducer,
        model=model,
    )
    return searcher.enumerate_all()


def top_r_signed_cliques(
    graph: SignedGraph,
    alpha: float,
    k: int,
    r: int,
    selection: str = "greedy",
    reduction: str = "mcnew",
    maxtest: str = "exact",
    seed: int = 0,
    time_limit: Optional[float] = None,
    reducer: Optional[Callable] = None,
    model: Optional[str] = None,
) -> List[SignedClique]:
    """Return the ``r`` largest maximal (alpha, k)-cliques.

    Uses the paper's size-based search-space cutoff (Section IV,
    "Finding the top-r results"), which usually explores far less of the
    search tree than full enumeration.
    """
    params = AlphaK(alpha=alpha, k=k)
    searcher = MSCE(
        graph,
        params,
        selection=selection,
        reduction=reduction,
        maxtest=maxtest,
        seed=seed,
        time_limit=time_limit,
        reducer=reducer,
        model=model,
    )
    return searcher.top_r(r).cliques


def find_mccore(graph: SignedGraph, alpha: float, k: int, method: str = "mcnew") -> Set[Node]:
    """Return the node set of the maximal constrained ceil(alpha*k)-core.

    ``method`` selects the algorithm: ``"mcnew"`` (Algorithm 3, default),
    ``"mcbasic"`` (Algorithm 2) or ``"positive-core"`` (the weaker
    Lemma-1 core).
    """
    params = AlphaK(alpha=alpha, k=k)
    return reduce_graph(graph, params, method=method)
