"""MSCE (Algorithm 4): branch-and-bound enumeration of maximal (alpha, k)-cliques.

The enumerator follows the paper's structure exactly:

1. reduce the graph to the MCCore (MCNew by default; pluggable for
   ablations);
2. for each connected component of the reduced graph, run the
   branch-and-bound enumeration (BBE) over search spaces ``(R, I)`` —
   ``R`` the candidate set, ``I`` the included clique;
3. in every subspace, apply the three pruning rules:

   * **ceil(alpha*k)-core pruning** — shrink ``R`` to the positive-edge
     ceil(alpha*k)-core that contains ``I`` (ICore with fixed nodes);
     prune the whole subspace when none exists;
   * **clique-constraint pruning** — after including a branch node
     ``u``, drop every candidate not adjacent to ``u``;
   * **negative-edge-constraint pruning** — drop every candidate whose
     inclusion would push some member of ``I ∪ {u, v}`` over the
     negative budget ``k`` (sound because negative degrees are monotone
     under set growth);

4. terminate a subspace early when ``R`` itself is an (alpha, k)-clique,
   emitting it if (globally) maximal.

Branch node selection is pluggable: ``"greedy"`` picks the candidate of
minimum positive degree inside ``R`` (MSCE-G, the paper's heuristic),
``"random"`` picks uniformly (MSCE-R, the paper's baseline), ``"first"``
picks the lexicographically smallest (deterministic, cheap; handy in
tests).

The **top-r** mode adds the paper's size cutoff: once ``r`` maximal
cliques are known with minimum size ``rho``, any subspace whose cored
candidate set is smaller than ``rho`` is pruned.

The search runs on an explicit stack (include branch explored first,
mirroring the paper's recursion order) so deep graphs cannot hit
Python's recursion limit.
"""

from __future__ import annotations

import time
import zlib
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.cliques import SignedClique, sort_cliques
from repro.core.params import AlphaK
from repro.exceptions import ParameterError
from repro.fastpath.compiled import CompiledGraph, as_compiled, compile_graph, source_graph
from repro.fastpath.search import SELECTIONS, FrameSearch
from repro.graphs.signed_graph import Node, SignedGraph
from repro.limits import ResourceGuard, make_guard
from repro.models import make_constraint, resolve_model
from repro.obs import runtime as obs
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry

#: Registry metric name prefix for the :class:`SearchStats` counters
#: (``recursions`` lives in the registry as ``msce_recursions`` etc.).
STAT_METRIC_PREFIX = "msce_"

_STAT_FIELDS = (
    "recursions",
    "core_prunes",
    "topr_prunes",
    "early_terminations",
    "maxtests",
    "maximal_found",
    "clique_pruned_candidates",
    "negative_pruned_candidates",
    "components",
)


def _stat_property(field: str) -> property:
    attr = "_c_" + field

    def _get(self) -> int:
        return getattr(self, attr).value

    def _set(self, value: int) -> None:
        getattr(self, attr).value = value

    _get.__name__ = field
    return property(_get, _set, doc=f"The ``{STAT_METRIC_PREFIX}{field}`` counter value.")


class SearchStats:
    """Counters describing one MSCE run (useful for pruning ablations).

    Since the observability subsystem landed this is a *view* over a
    :class:`~repro.obs.metrics.MetricsRegistry`: each field is a
    property reading/writing a registry :class:`~repro.obs.metrics.Counter`
    named ``msce_<field>``, so the same numbers the search increments
    are what snapshot merging aggregates across workers and what span
    counter deltas report — one source of truth, no copying. The public
    contract is unchanged: fields behave like plain ints (``stats.recursions
    += 1``) and :meth:`as_dict` returns the familiar plain dictionary.
    """

    FIELDS = _STAT_FIELDS

    __slots__ = ("registry", "model") + tuple(
        "_c_" + name for name in _STAT_FIELDS
    )

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        #: Backing registry; private to this run unless one was injected.
        self.registry = MetricsRegistry() if registry is None else registry
        #: Resolved constraint model the producing run used (metadata
        #: only: excluded from :meth:`as_dict` and ``==``).
        self.model: Optional[str] = None
        for name in _STAT_FIELDS:
            setattr(self, "_c_" + name, self.registry.counter(STAT_METRIC_PREFIX + name))

    def counter(self, field: str) -> metrics.Counter:
        """The registry counter behind *field*, for hot loops to write directly.

        ``stats.counter("recursions").value += 1`` is the same update
        as ``stats.recursions += 1`` without the property dispatch.
        """
        return getattr(self, "_c_" + field)

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {name: getattr(self, "_c_" + name).value for name in _STAT_FIELDS}

    def merge_snapshot(self, snapshot: Optional[Dict[str, Dict]]) -> None:
        """Fold a registry snapshot (a worker's per-task metrics) in."""
        self.registry.merge_snapshot(snapshot)

    def __eq__(self, other: object):
        if isinstance(other, SearchStats):
            return self.as_dict() == other.as_dict()
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={value}" for name, value in self.as_dict().items())
        return f"SearchStats({inner})"


for _field in _STAT_FIELDS:
    setattr(SearchStats, _field, _stat_property(_field))
del _field


@dataclass
class EnumerationResult:
    """Outcome of an MSCE run: the cliques plus run metadata.

    ``cliques`` is sorted largest-first with deterministic tie-breaks.
    ``timed_out`` / ``truncated`` report whether a ``time_limit`` or
    ``max_results`` cap stopped the search before exhausting the space —
    in that case the clique list is a valid subset of the full answer,
    not necessarily the complete one. ``interrupted`` generalises that
    to every resource guard: it is set (with ``interrupted_reason`` of
    ``"deadline"`` or ``"memory"``) whenever a wall-clock deadline or a
    ``max_memory_bytes`` ceiling stopped the search cooperatively, and
    ``incomplete_frames`` counts the unexpanded search frames that were
    abandoned — ``0`` means the answer is exhaustive. ``parallel`` is
    filled only by :func:`repro.core.parallel.enumerate_grid` (and its
    one-point form :func:`~repro.core.parallel.enumerate_parallel`):
    scheduling counters (helpers forked, tasks seeded/completed, frames
    re-split) plus the fault-tolerance report (retries, workers lost,
    quarantined frames, degradation reason) that describe how the run
    was distributed.
    """

    cliques: List[SignedClique]
    stats: SearchStats
    elapsed_seconds: float
    timed_out: bool = False
    truncated: bool = False
    parallel: Optional[Dict[str, int]] = None
    interrupted: bool = False
    interrupted_reason: Optional[str] = None
    incomplete_frames: int = 0

    def __iter__(self):
        return iter(self.cliques)

    def __len__(self) -> int:
        return len(self.cliques)

    def __getitem__(self, index):
        return self.cliques[index]


class _StopSearch(Exception):
    """Internal control-flow signal: a run cap was reached."""


def frame_draw(seed: int, free_reprs: Sequence[str]) -> int:
    """Frame-deterministic random draw: an index into *free_reprs*.

    Hashes the ``repr`` strings of a frame's free candidates (sorted by
    the caller) with ``zlib.crc32`` — stable across processes and
    Python hash seeds — so the "random" branch choice is a pure
    function of the frame, not of how many frames some RNG stream saw
    before it. This is what keeps the parallel enumerator's search tree
    (and therefore its aggregated :class:`SearchStats`) bit-identical
    no matter how frames are re-split across workers.
    """
    payload = "\x1f".join(free_reprs).encode("utf-8")
    return zlib.crc32(payload, seed & 0xFFFFFFFF) % len(free_reprs)


def seeded_slice(graph: SignedGraph, space: Set[Node], floor: int) -> List[Node]:
    """The nodes a seeded search over *space* compiles: ``space ∪ W``.

    ``W`` holds the nodes outside *space* with at least *floor*
    neighbours in it. When every leaf the search can test has at least
    *floor* members, any node that could witness a leaf's
    non-maximality is adjacent to the whole leaf, so it lies in the
    slice, and a maxtest over the slice answers as one over the whole
    graph. The cost is the volume of *space*, not the size of *graph*.
    """
    nodes = [node for node in space if graph.has_node(node)]
    counts = Counter(chain.from_iterable(map(graph.neighbor_keys, nodes)))
    nodes.extend(
        node for node, count in counts.items() if count >= floor and node not in space
    )
    return nodes


def compile_floor(reduction: str, params: AlphaK) -> int:
    """The threshold of the positive core that holds every node *reduction* keeps.

    *reduction* is the model-mapped method. The (alpha, k) reductions
    keep only nodes of the positive ``ceil(alpha * k)``-core (Lemma 1),
    so :func:`~repro.fastpath.compile_graph` at this
    ``min_positive_degree`` compiles that core and changes neither the
    survivors nor their order. ``"none"`` keeps every node (0).
    """
    return 0 if reduction == "none" else params.positive_threshold


class MSCE:
    """Configured maximal (alpha, k)-clique enumerator (Algorithm 4).

    Parameters
    ----------
    graph:
        Host signed graph (not mutated), or a
        :class:`repro.fastpath.CompiledGraph` of one. Either way the
        reduction and the branch-and-bound search run on the CSR/bitset
        fastpath: a ``SignedGraph`` is compiled on first use, keeping
        only its positive ``ceil(alpha*k)``-core when the reduction is an
        (alpha, k) core (by Lemma 1 no other node can survive it). The
        search then runs on the re-indexed reduction
        survivors, with a mask-space maximality test. (Seeded searches
        are the exception, see :meth:`enumerate_seeded`.)
    params:
        The (alpha, k) parameters.
    selection:
        Branch-node choice: ``"greedy"`` (MSCE-G, default), ``"random"``
        (MSCE-R) or ``"first"``.
    reduction:
        Pre-enumeration reduction: ``"mcnew"`` (default), ``"mcbasic"``,
        ``"positive-core"`` or ``"none"`` (ablation).
    maxtest:
        ``"exact"`` (Definition-2 maximality, default) or ``"paper"``
        (the single-extension heuristic of Algorithm 4). Models without
        a heuristic variant run their exact test for both kinds.
    model:
        The signed-constraint model to enumerate under: ``"msce"``
        (the paper's (alpha, k)-cliques, default) or ``"balanced"``
        (maximal balanced cliques, ``k`` read as the minimum side
        size). Resolution follows
        :func:`repro.models.resolve_model`: explicit argument >
        ``REPRO_MODEL`` environment variable > ``"msce"``.
    core_pruning:
        Disable only for the pruning-rule ablation benchmark.
    seed:
        Seed of the ``"random"`` selection strategy, which derives each
        branch choice from a stable hash of the seed and the frame's
        free candidates (:func:`frame_draw`). The search tree is then a
        pure function of the graph and the settings: repeated runs, and
        the parallel enumerator (:mod:`repro.core.parallel`) at any
        worker count, walk the same tree.
    audit:
        When ``True``, every emitted clique is re-verified against all
        three constraints and duplicate emission raises.
    max_memory_bytes:
        Peak-RSS ceiling for this process. Like ``time_limit``, the
        guard stops the search *cooperatively*: the result is a valid
        partial answer with ``interrupted`` set and
        ``incomplete_frames`` counting the abandoned subtrees.

    Examples
    --------
    >>> from repro.graphs import SignedGraph
    >>> from repro.core.params import AlphaK
    >>> g = SignedGraph([(1, 2, "+"), (1, 3, "+"), (2, 3, "+")])
    >>> result = MSCE(g, AlphaK(2, 1)).enumerate_all()
    >>> [sorted(c.nodes) for c in result.cliques]
    [[1, 2, 3]]
    """

    def __init__(
        self,
        graph: SignedGraph,
        params: AlphaK,
        selection: str = "greedy",
        reduction: str = "mcnew",
        maxtest: str = "exact",
        core_pruning: bool = True,
        negative_pruning: bool = True,
        clique_pruning: bool = True,
        seed: int = 0,
        audit: bool = False,
        time_limit: Optional[float] = None,
        max_results: Optional[int] = None,
        min_size: Optional[int] = None,
        max_memory_bytes: Optional[int] = None,
        reducer: Optional[Callable[[object, AlphaK, str], int]] = None,
        model: Optional[str] = None,
    ):
        #: The CompiledGraph handed in (``None`` for SignedGraph input).
        self._given = as_compiled(graph)
        #: The compilation of SignedGraph input, made on first use.
        self._compilation: Optional[CompiledGraph] = None
        self.graph = source_graph(graph)
        self.params = params
        if selection not in SELECTIONS:
            raise ParameterError(
                f"unknown selection strategy {selection!r}; "
                f"expected one of {sorted(SELECTIONS)}"
            )
        self.selection = selection
        self.reduction = reduction
        self.maxtest_kind = maxtest
        self.core_pruning = core_pruning
        self.negative_pruning = negative_pruning
        self.clique_pruning = clique_pruning
        self.audit = audit
        self.time_limit = time_limit
        if max_memory_bytes is not None and max_memory_bytes <= 0:
            raise ParameterError(
                f"max_memory_bytes must be positive, got {max_memory_bytes}"
            )
        #: Peak-RSS ceiling: when the process's high-water memory use
        #: exceeds this, the search stops cooperatively and returns the
        #: partial result with ``interrupted_reason == "memory"``.
        self.max_memory_bytes = max_memory_bytes
        self.max_results = max_results
        if min_size is not None and min_size < 1:
            raise ParameterError(f"min_size must be positive, got {min_size}")
        #: Only cliques of at least this size are searched for; the
        #: bound prunes subspaces exactly like the top-r cutoff (any
        #: clique in a subspace is at most |R| large), so large floors
        #: make the search dramatically cheaper.
        self.min_size = min_size
        self.seed = seed
        #: Optional replacement for :func:`~repro.fastpath.kernels.reduce_mask`
        #: on the compiled path, called as ``reducer(compiled, params,
        #: method) -> survivor mask``. The serving engine injects a
        #: memoising wrapper here so (alpha, k) pairs sharing a
        #: ``ceil(alpha * k)`` ceiling share one coring pass; the result
        #: must be bit-identical to what ``reduce_mask`` would return.
        self.reducer = reducer
        #: Resolved constraint model (see :func:`repro.models.resolve_model`)
        #: and its instantiated rules. Resolved once here so a run can
        #: never mix models: one run, one model, workers included.
        self.model = resolve_model(model)
        self.constraint = make_constraint(self.model, params)
        #: Effective subspace size floor: the user's ``min_size`` folded
        #: with any model-implied bound. Pruning only — emission gating
        #: stays with ``min_size`` and the constraint's reportable().
        self._search_min_size = self.constraint.search_min_size(self.min_size)
        # Resolve the maxtest kind now, so an unknown name fails here.
        self.constraint.make_maxtest(maxtest)

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledGraph:
        """The compiled graph the reduction and search run on.

        The :class:`~repro.fastpath.CompiledGraph` handed in, else a
        compilation of the ``SignedGraph`` input made on first access:
        its positive core at the threshold of :func:`compile_floor`
        (the whole graph for ``reduction="none"``).
        (Seeded searches compile a slice instead, see
        :meth:`enumerate_seeded`.)
        """
        if self._given is not None:
            return self._given
        if self._compilation is None:
            from repro.core.parallel import _compile_for

            self._compilation = _compile_for(self.graph, [self])
        return self._compilation

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enumerate_all(self) -> EnumerationResult:
        """Enumerate every maximal (alpha, k)-clique of the graph."""
        return self._search(top_r=None)

    def top_r(self, r: int) -> EnumerationResult:
        """Find the ``r`` largest maximal (alpha, k)-cliques.

        Uses the paper's size-based subspace cutoff, so this is usually
        much faster than full enumeration followed by sorting.
        """
        if r <= 0:
            raise ParameterError(f"r must be positive, got {r}")
        return self._search(top_r=r)

    def enumerate_seeded(
        self, space: Set[Node], included: FrozenSet[Node] = frozenset()
    ) -> EnumerationResult:
        """Enumerate maximal cliques inside *space* with *included* forced.

        The work-horse of query-driven community search
        (:mod:`repro.core.query`): the search starts from the frame
        ``(space, included)`` instead of per-component ``(C, {})``.
        Callers are responsible for *space* being a superset of every
        clique of interest (e.g. the query's common neighbourhood inside
        the MCCore) and for every candidate being adjacent to all of
        *included*; maximality testing remains global, so the results
        are maximal in the whole graph, not merely within *space*.
        The search runs over the :class:`~repro.fastpath.CompiledGraph`
        handed in; a ``SignedGraph`` is not compiled whole but only on
        the slice :func:`seeded_slice` cuts around *space*, with the
        model's :meth:`~repro.models.base.SignedConstraint.min_leaf_size`
        as the floor.
        """
        stats = SearchStats()
        stats.model = self.model
        found: Dict[FrozenSet[Node], SignedClique] = {}
        size_heap: List[int] = []
        started = time.perf_counter()
        guard = self._guard(started)
        truncated = False
        interrupted_reason: Optional[str] = None
        incomplete = 0
        try:
            stats.components = 1
            compiled = self._given
            if compiled is None:
                space = set(space)
                floor = self.constraint.min_leaf_size()
                compiled = compile_graph(
                    self.graph, nodes=seeded_slice(self.graph, space, floor)
                )
            searcher = FrameSearch(
                self, stats, found, size_heap, None, guard, compiled=compiled
            )
            frame = (
                compiled.mask_from_nodes(space),
                compiled.mask_from_nodes(included),
                None,
            )
            interrupted_reason = searcher.run([frame])
            incomplete = len(searcher.incomplete)
        except _StopSearch:  # only the max_results cap raises it
            truncated = True
        cliques = sort_cliques(found.values())
        stats.maximal_found = len(cliques)
        return EnumerationResult(
            cliques=cliques,
            stats=stats,
            elapsed_seconds=time.perf_counter() - started,
            timed_out=interrupted_reason == "deadline",
            truncated=truncated,
            interrupted=interrupted_reason is not None,
            interrupted_reason=interrupted_reason,
            incomplete_frames=incomplete,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _guard(self, started: float) -> Optional[ResourceGuard]:
        """Build the run's resource guard (``None`` when unlimited)."""
        deadline = started + self.time_limit if self.time_limit is not None else None
        return make_guard(deadline, self.max_memory_bytes, clock=time.perf_counter)

    def _search(self, top_r: Optional[int]) -> EnumerationResult:
        """Run this enumerator through the one search driver, in this process."""
        from repro.core.parallel import _run_searchers

        with obs.span(
            "msce",
            alpha=self.params.alpha,
            k=self.params.k,
            selection=self.selection,
            # The model maps the requested reduction to one sound for it
            # (non-MSCE models degrade to "none").
            reduction=self.constraint.reduction_rule(self.reduction),
            top_r=top_r,
            model=self.model,
        ):
            (result,) = _run_searchers(
                self.compiled,
                [self],
                time_limit=self.time_limit,
                max_memory_bytes=self.max_memory_bytes,
                top_r=top_r,
                quarantine=False,
            )
        result.parallel = None
        return result

    def _emit(
        self,
        members: Set[Node],
        found: Dict[FrozenSet[Node], SignedClique],
        size_heap: List[int],
        top_r: Optional[int],
        stats: SearchStats,
        edges: Optional[Tuple[int, int]] = None,
    ) -> None:
        if self.min_size is not None and len(members) < self.min_size:
            return
        key = frozenset(members)
        if not self.constraint.reportable(self.graph, key):
            # A true search leaf that fails a superset-monotone reporting
            # threshold (the balanced model's minimum side size): not an
            # answer, but pruning it earlier would have broken maximality.
            return
        if key in found:
            if self.audit:
                raise AssertionError(f"duplicate maximal clique emitted: {sorted(map(repr, key))}")
            return
        clique = SignedClique.from_nodes(self.graph, key, self.params, edges=edges)
        if self.audit:
            self.constraint.audit_check(self.graph, clique)
        found[key] = clique
        if top_r is not None:
            heappush(size_heap, clique.size)
            if len(size_heap) > top_r:
                heappop(size_heap)
        if self.max_results is not None and len(found) >= self.max_results:
            raise _StopSearch("max_results")
