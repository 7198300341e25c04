"""k-core computations, including the paper's ICore (Algorithm 1).

Three entry points matter to the signed clique pipeline:

* :func:`core_numbers` — classic O(m) peeling producing the core number
  of every node (used for Table I's ``k_max`` and by the degeneracy
  ordering).
* :func:`k_core` — the node set of the maximal k-core.
* :func:`icore` — Algorithm 1 of the paper: compute the maximal tau-core
  of a (sub)graph **subject to a set of fixed nodes** ``I`` that must
  survive. The moment a fixed node would be peeled the computation
  aborts, which is exactly the early-failure behaviour MSCE's
  ceil(alpha*k)-core pruning rule relies on.

All functions take an optional ``within`` node set so callers can core a
candidate subspace without materialising an induced subgraph, and a
``sign`` selector (``"all"`` or ``"positive"``) so the same code serves
the sign-blind graph and the positive-edge graph ``G+``.

These set-based peels are the references the compiled kernels are held
to: :func:`repro.fastpath.vectorized.icore` is the mask-space ICore the
pipeline runs, and ``tests/test_fastpath.py`` checks it against
:func:`icore` and :func:`core_numbers` by name.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple

from repro.exceptions import ParameterError
from repro.graphs.signed_graph import Node, SignedGraph

_EMPTY: FrozenSet[Node] = frozenset()


def _neighbor_fn(graph: SignedGraph, sign: str):
    """Return the adjacency accessor for the requested edge-sign class.

    The ``"all"`` accessor returns a live keys view (copy-free); the
    sign-restricted accessors return the graph's live internal sets. All
    support set operations and membership tests; none should be mutated.
    """
    if sign == "all":
        return graph.neighbor_keys
    if sign == "positive":
        return graph.positive_neighbors
    if sign == "negative":
        return graph.negative_neighbors
    raise ParameterError(f"unknown sign selector {sign!r}; expected 'all'/'positive'/'negative'")


def icore(
    graph: SignedGraph,
    fixed: Iterable[Node] = (),
    tau: int = 0,
    within: Optional[Set[Node]] = None,
    sign: str = "all",
) -> Tuple[bool, Set[Node]]:
    """Algorithm 1 (ICore): the maximal tau-core that keeps all *fixed* nodes.

    Parameters
    ----------
    graph:
        The host signed graph.
    fixed:
        Nodes that must be contained in the returned core (the paper's
        ``I``). If peeling would remove one, the function returns
        ``(False, set())`` immediately.
    tau:
        Minimum within-core degree.
    within:
        Restrict the computation to the subgraph induced by this node
        set (the paper calls ICore on induced subgraphs ``H``). Defaults
        to the whole graph.
    sign:
        ``"all"`` uses every edge; ``"positive"`` cores the positive-edge
        graph ``G+`` (the common case in the paper).

    Returns
    -------
    (flag, nodes):
        ``flag`` is ``False`` when no tau-core containing all fixed
        nodes exists (including the case of an empty result, matching
        line 14 of Algorithm 1); otherwise ``True`` with the core's node
        set.
    """
    if tau < 0:
        raise ParameterError(f"tau must be non-negative, got {tau}")
    neighbors_of = _neighbor_fn(graph, sign)
    if within is None:
        members: Set[Node] = graph.node_set()
    else:
        members = {node for node in within if graph.has_node(node)}
    fixed_set = set(fixed)
    if not fixed_set <= members:
        return False, set()

    if within is None:
        # Every neighbour is a member, so a degree is a row length: no
        # row is intersected, and the peel below costs n plus the volume
        # of the peeled nodes.
        degrees: Dict[Node, int] = {node: len(neighbors_of(node)) for node in members}
    else:
        degrees = {node: len(neighbors_of(node) & members) for node in members}
    queue: deque = deque()
    queued: Set[Node] = set()
    for node, degree in degrees.items():
        if degree < tau:
            if node in fixed_set:
                return False, set()
            queue.append(node)
            queued.add(node)

    while queue:
        node = queue.popleft()
        members.discard(node)
        for neighbor in neighbors_of(node):
            if neighbor in members and neighbor not in queued:
                degrees[neighbor] -= 1
                if degrees[neighbor] < tau:
                    if neighbor in fixed_set:
                        return False, set()
                    queue.append(neighbor)
                    queued.add(neighbor)

    if not members:
        return False, set()
    return True, members


def k_core(
    graph: SignedGraph,
    k: int,
    within: Optional[Set[Node]] = None,
    sign: str = "all",
) -> Set[Node]:
    """Return the node set of the maximal k-core (possibly empty).

    A thin wrapper over :func:`icore` with no fixed nodes; the empty
    result is returned as an empty set rather than a failure flag.
    """
    _flag, nodes = icore(graph, fixed=(), tau=k, within=within, sign=sign)
    return nodes


def positive_core(graph: SignedGraph, k: int, within: Optional[Set[Node]] = None) -> Set[Node]:
    """Return the maximal positive-edge k-core of the paper (Lemma 1).

    Equivalent to the k-core of ``G+`` restricted to *within*.
    """
    return k_core(graph, k, within=within, sign="positive")


def core_numbers(graph: SignedGraph, sign: str = "all") -> Dict[Node, int]:
    """Return the core number of every node via bucket peeling (O(m)).

    The core number of ``u`` is the largest ``k`` such that ``u`` belongs
    to a k-core. ``sign="positive"`` computes core numbers of ``G+``.
    """
    neighbors_of = _neighbor_fn(graph, sign)
    degrees: Dict[Node, int] = {node: len(neighbors_of(node)) for node in graph.nodes()}
    if not degrees:
        return {}
    max_degree = max(degrees.values())
    buckets: Dict[int, Set[Node]] = {d: set() for d in range(max_degree + 1)}
    for node, degree in degrees.items():
        buckets[degree].add(node)

    numbers: Dict[Node, int] = {}
    remaining = dict(degrees)
    current = 0
    processed: Set[Node] = set()
    for _ in range(len(degrees)):
        while current <= max_degree and not buckets.get(current):
            current += 1
        # A node's bucket index can drop below `current`; clamp instead
        # of rescanning, which keeps the loop linear.
        node = buckets[current].pop()
        numbers[node] = current
        processed.add(node)
        for neighbor in neighbors_of(node):
            if neighbor in processed:
                continue
            d = remaining[neighbor]
            if d > current:
                buckets[d].discard(neighbor)
                remaining[neighbor] = d - 1
                buckets[max(d - 1, current)].add(neighbor)
    return numbers


def max_core_number(graph: SignedGraph, sign: str = "all") -> int:
    """Return ``k_max``, the largest core number (0 for the empty graph)."""
    numbers = core_numbers(graph, sign=sign)
    return max(numbers.values(), default=0)


def core_decomposition(graph: SignedGraph, sign: str = "all") -> Dict[int, Set[Node]]:
    """Return ``{k: nodes whose core number is exactly k}``."""
    shells: Dict[int, Set[Node]] = {}
    for node, k in core_numbers(graph, sign=sign).items():
        shells.setdefault(k, set()).add(node)
    return shells


def has_k_core(graph: SignedGraph, k: int, within: Optional[Set[Node]] = None, sign: str = "all") -> bool:
    """Return ``True`` if a (non-empty) k-core exists in the scope.

    This is the primitive behind the paper's neighbour-core constraint
    test: "does the ego network contain a (ceil(alpha*k) - 1)-core?".
    """
    return bool(k_core(graph, k, within=within, sign=sign))
