"""Maximality testing for (alpha, k)-cliques (Definition 2).

An (alpha, k)-clique ``C`` is *maximal* iff no (alpha, k)-clique
strictly contains it. Any strict superset extends ``C`` by nodes that
are (sign-blind) common neighbours of all of ``C``, so the test searches
clique extensions inside ``CN(C)``.

Two tests are provided:

* :func:`single_extension_test` — the paper's ``MaxTest`` (Algorithm 4,
  lines 21-25): declare non-maximal as soon as one common neighbour
  ``v`` keeps every node of ``C ∪ {v}`` within the negative budget.
  Sound in one direction only: because negative degrees are monotone,
  a valid superset always yields such a ``v``, so *"maximal"* answers
  are always correct — but *"non-maximal"* answers may be wrong, since
  ``C ∪ {v}`` can fail the positive-edge constraint while no larger
  valid superset exists.
* :func:`is_maximal` — exact test: a branch-and-bound search over
  subsets of the viable common neighbours, with positive-core pruning.
  This is the default used by the enumerators so that Definition 2 is
  honoured exactly (and so the brute-force cross-validation tests can
  pass); ``maxtest="paper"`` selects the heuristic for ablations.

Both tests exist twice. The versions above take a ``SignedGraph`` and
node sets, peel with the set-based :func:`~repro.algorithms.kcore.icore`,
and are the reference (the brute-force oracle calls them, and
``tests/test_maxtest.py`` holds the mask ports to them).
:func:`make_mask_maxtest` returns their ports over a
:class:`~repro.fastpath.CompiledGraph`, which the search calls on every
leaf: the common neighbourhood is the AND of the member adjacency rows,
the negative-budget filter is one
:func:`~repro.fastpath.kernels.budget_violators` pass, and the
extension search peels with the big-int mask ``icore_fast`` and branches in
``repr`` order, like the node-set version. The mask ports see only the
compiled graph. That is exact for the exact test whenever every
(alpha, k)-clique that strictly contains a tested clique lies inside
the compiled graph — the MCCore the search runs on has that property,
and so does a seeded search's slice
(:func:`repro.core.bbe.seeded_slice`) — but the paper's
single-extension test reads every common neighbour of the input, so it
matches the node-set version only on a compilation of the whole graph.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from repro.algorithms.cliques import common_neighbors
from repro.algorithms.kcore import icore
from repro.core.cliques import is_alpha_k_clique
from repro.core.params import AlphaK
from repro.exceptions import ParameterError
from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph
from repro.fastpath.kernels import budget_violators, icore_fast
from repro.graphs.signed_graph import Node, SignedGraph


def _viable_single_extensions(
    graph: SignedGraph, members: Set[Node], params: AlphaK
) -> List[Node]:
    """Common neighbours whose addition keeps the negative budget intact.

    A node ``v`` is viable iff every node of ``members | {v}`` has at
    most ``k`` negative neighbours inside that set. Non-viable nodes can
    never participate in any superset clique (monotonicity), so this is
    both the paper's MaxTest filter and the starting candidate set of
    the exact search.
    """
    budget = params.k
    negative_inside: Dict[Node, int] = {
        node: len(graph.negative_neighbors(node) & members) for node in members
    }
    viable: List[Node] = []
    for v in common_neighbors(graph, members):
        negatives = graph.negative_neighbors(v) & members
        if len(negatives) > budget:
            continue
        if any(negative_inside[w] + 1 > budget for w in negatives):
            continue
        viable.append(v)
    return viable


def single_extension_test(graph: SignedGraph, members: Set[Node], params: AlphaK) -> bool:
    """The paper's MaxTest: ``True`` iff no single extension fits the budget.

    Returns ``True`` (reported maximal) when every common neighbour
    would push some node of the extended set over the negative budget.
    See the module docstring for the direction in which this test can be
    wrong.
    """
    return not _viable_single_extensions(graph, set(members), params)


def _extension_search(
    graph: SignedGraph,
    current: Set[Node],
    candidates: Set[Node],
    params: AlphaK,
    base_size: int,
) -> bool:
    """Return ``True`` if some clique extension of *current* is valid.

    Invariants: *current* is a clique satisfying the negative-edge
    constraint; every candidate is adjacent to all of *current* and its
    addition would keep the negative budget. The positive constraint is
    the only one re-checked per node.
    """
    if len(current) > base_size and is_alpha_k_clique(graph, current, params):
        return True
    if not candidates:
        return False
    # Positive-core pruning: a valid extension is a ceil(alpha*k)-core
    # of the positive-edge graph on current | candidates fixing current.
    threshold = params.positive_threshold
    if threshold > 0:
        flag, core = icore(
            graph, fixed=current, tau=threshold, within=current | candidates, sign="positive"
        )
        if not flag:
            return False
        candidates = candidates & core

    budget = params.k
    remaining = set(candidates)
    for v in sorted(remaining, key=repr):
        if v not in remaining:
            continue
        new_members = current | {v}
        new_candidates: Set[Node] = set()
        negative_inside = {
            node: len(graph.negative_neighbors(node) & new_members) for node in new_members
        }
        adjacency = graph.neighbors(v)
        for w in remaining:
            if w == v or w not in adjacency:
                continue
            negatives = graph.negative_neighbors(w) & new_members
            if len(negatives) > budget:
                continue
            if any(negative_inside[x] + 1 > budget for x in negatives):
                continue
            new_candidates.add(w)
        if _extension_search(graph, new_members, new_candidates, params, base_size):
            return True
        remaining.discard(v)
    return False


def is_maximal(graph: SignedGraph, members: Set[Node], params: AlphaK) -> bool:
    """Exact Definition-2 maximality test for an (alpha, k)-clique.

    Assumes *members* already is an (alpha, k)-clique (the enumerator
    guarantees it; use :func:`repro.core.cliques.is_alpha_k_clique` to
    check independently). Returns ``True`` iff no (alpha, k)-clique
    strictly contains *members*.
    """
    member_set = set(members)
    viable = _viable_single_extensions(graph, member_set, params)
    if not viable:
        return True
    return not _extension_search(graph, member_set, set(viable), params, len(member_set))


def make_maxtest(kind: str):
    """Return the maximality predicate for *kind* (``"exact"``/``"paper"``)."""
    if kind == "exact":
        return is_maximal
    if kind == "paper":
        return single_extension_test
    raise ParameterError(f"unknown maxtest kind {kind!r}; expected 'exact' or 'paper'")


def make_mask_maxtest(
    kind: str, compiled: CompiledGraph, params: AlphaK
) -> Callable[[int], bool]:
    """Return the mask-space port of ``make_maxtest(kind)`` over *compiled*.

    The predicate takes the member set as a bitmask over *compiled*'s
    indices and answers exactly what the node-set test answers on
    the graph *compiled* was built from (see the module docstring for
    when that graph may be a slice of the input).
    """
    if kind not in ("exact", "paper"):
        make_maxtest(kind)  # raises the canonical error
    adj_masks = compiled.masks("all")
    neg_masks = compiled.masks("negative")
    pos_masks = compiled.masks("positive")
    repr_rank = compiled.repr_rank
    full_mask = compiled.full_mask
    budget = params.k
    threshold = params.positive_threshold

    def viable_extensions(members: int) -> int:
        common = full_mask
        for m in iter_bits(members):
            common &= adj_masks[m]
        return common & ~budget_violators(neg_masks, members, common, budget)

    def is_clique(members: int) -> bool:
        need = bit_count(members) - 1
        for m in iter_bits(members):
            if bit_count(adj_masks[m] & members) != need:
                return False
            if bit_count(neg_masks[m] & members) > budget:
                return False
            if bit_count(pos_masks[m] & members) < threshold:
                return False
        return True

    def extension_search(current: int, candidates: int, base_size: int) -> bool:
        # Port of _extension_search: same invariants, same pruning.
        if bit_count(current) > base_size and is_clique(current):
            return True
        if not candidates:
            return False
        if threshold > 0:
            flag, core = icore_fast(
                compiled,
                current,
                threshold,
                current | candidates,
                sign="positive",
            )
            if not flag:
                return False
            candidates &= core
        remaining = candidates
        for v in sorted(iter_bits(candidates), key=repr_rank.__getitem__):
            bit = 1 << v
            new_members = current | bit
            scope = remaining & adj_masks[v]
            new_candidates = scope & ~budget_violators(neg_masks, new_members, scope, budget)
            if extension_search(new_members, new_candidates, base_size):
                return True
            remaining &= ~bit
        return False

    def exact(members: int) -> bool:
        viable = viable_extensions(members)
        if not viable:
            return True
        # Single-node witness: a viable v with enough positive edges into
        # a valid clique extends it by itself, which is the answer the
        # full search would reach. The clique check keeps the shortcut
        # exact on member sets that are not (alpha, k)-cliques.
        if any(
            bit_count(pos_masks[v] & members) >= threshold for v in iter_bits(viable)
        ) and is_clique(members):
            return False
        return not extension_search(members, viable, bit_count(members))

    def paper(members: int) -> bool:
        return not viable_extensions(members)

    return exact if kind == "exact" else paper
