"""Signed graph reduction entry points (Section III of the paper).

Three reduction strengths are available, in increasing pruning power and
cost:

* ``"none"`` — no reduction (for ablation benchmarks only);
* ``"positive-core"`` — the maximal positive-edge ceil(alpha*k)-core of
  Lemma 1;
* ``"mcbasic"`` / ``"mcnew"`` — the maximal constrained ceil(alpha*k)-core
  (MCCore, Definition 3) computed by Algorithm 2 or Algorithm 3. Both
  produce the same node set; they differ only in running time.

:func:`reduce_graph` dispatches among them and is what the MSCE
enumerator calls first.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Set

from repro.algorithms.kcore import icore
from repro.core.params import AlphaK
from repro.exceptions import ParameterError
from repro.graphs.components import connected_components
from repro.graphs.signed_graph import Node, SignedGraph


def positive_core_reduction(graph: SignedGraph, params: AlphaK) -> Set[Node]:
    """Return the node set of the maximal positive-edge ceil(alpha*k)-core.

    Lemma 1: every maximal (alpha, k)-clique lives inside a connected
    component of this core, so every node outside it can be discarded.
    For degenerate parameters (threshold 0) the whole node set is
    returned — the lemma prunes nothing.
    """
    threshold = params.positive_threshold
    if threshold == 0:
        return graph.node_set()
    _flag, nodes = icore(graph, fixed=(), tau=threshold, sign="positive")
    return nodes


def reduce_graph(graph: SignedGraph, params: AlphaK, method: str = "mcnew") -> Set[Node]:
    """Return the surviving node set under the requested reduction *method*.

    ``method`` is one of ``"none"``, ``"positive-core"``, ``"mcbasic"``,
    ``"mcnew"``. The reference for
    :func:`repro.fastpath.kernels.reduce_mask`, the compiled pipeline's
    reduction.
    """
    # Imported lazily to keep module import acyclic (mcbasic/mcnew import
    # this module's positive_core_reduction).
    from repro.core.mcbasic import mccore_basic
    from repro.core.mcnew import mccore_new

    methods: Dict[str, Callable[[], Set[Node]]] = {
        "none": graph.node_set,
        "positive-core": lambda: positive_core_reduction(graph, params),
        "mcbasic": lambda: mccore_basic(graph, params),
        "mcnew": lambda: mccore_new(graph, params),
    }
    try:
        chosen = methods[method]
    except KeyError:
        raise ParameterError(
            f"unknown reduction method {method!r}; expected one of {sorted(methods)}"
        ) from None
    from repro.obs import runtime as obs

    with obs.span("reduce", method=method):
        return chosen()


def reduction_components(
    graph: SignedGraph, params: AlphaK, method: str = "mcnew"
) -> Iterator[Set[Node]]:
    """Yield the connected components of the reduced node set.

    MSCE enumerates inside each component independently (Algorithm 4,
    lines 2-4). Components are taken sign-blind, matching Lemma 1/3's
    "connected component of the core" phrasing; for the degenerate
    threshold-0 case this is simply the components of the graph.
    """
    survivors = reduce_graph(graph, params, method=method)
    yield from connected_components(graph, nodes=survivors)


def reduction_report(graph: SignedGraph, params: AlphaK) -> Dict[str, int]:
    """Return surviving-node counts under every reduction method.

    Used by the Figure-4 experiment and handy when choosing parameters
    interactively: shows how much of the graph each pruning level
    removes.
    """
    report: Dict[str, int] = {"graph": graph.number_of_nodes()}
    for method in ("positive-core", "mcbasic", "mcnew"):
        report[method] = len(reduce_graph(graph, params, method=method))
    return report
