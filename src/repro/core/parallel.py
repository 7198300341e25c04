"""Parallel maximal (alpha, k)-clique enumeration.

One driver runs every whole-graph search: :func:`_run_searchers`
takes configured :class:`~repro.core.bbe.MSCE` searchers, any number of
(alpha, k) points, against one compiled graph. :func:`enumerate_grid`
hands it one searcher per point, :func:`enumerate_parallel` is the
grid's one-point form, and ``MSCE.enumerate_all`` / ``MSCE.top_r`` hand
it the enumerator itself with one process. Two levels of parallelism
compose here, both operating on *frames* — ``(candidates, included)``
bitmask pairs naming one subtree of MSCE's branch-and-bound search:

* **component fan-out** (Algorithm 4, lines 2-4): after the MCCore
  reduction each connected component is an independent search, so every
  medium component becomes one seed frame;
* **intra-component root branching**: a giant component's search is
  split *at the root* along the exclude spine
  (:func:`repro.fastpath.search.decompose_root`) — with the default
  greedy selector the branch vertices follow a degeneracy-style
  min-positive-degree order, so task ``i`` is vertex ``v_i`` plus its
  surviving later-ordered candidates, with all earlier branch vertices
  excluded. Subtrees partition the search tree, so every maximal clique
  is found exactly once and merging needs no cross-task dedup. This is
  what makes single-giant-component workloads (the common shape of real
  signed networks after reduction) scale past one core.

The pipeline: compile (``SignedGraph`` input keeps only nodes whose
positive degree reaches the smallest ``ceil(alpha * k)`` of the grid),
reduce each point, then CSR-slice the union of all survivor sets out of
the compilation *once* (:meth:`~repro.fastpath.CompiledGraph.extract`)
and map each point's survivors into that index space. Every clique of a
point, and every extension its maxtest looks for, lies inside that
point's MCCore, which lies inside the union — so searching the union
is exactly searching each MCCore.

Frames of every point are driven by one fault-tolerant work-stealing
loop (:class:`repro.core.scheduler.WorkStealingScheduler`) in which
the calling process is worker 0: it searches queued frames itself, and
a task whose subtree exceeds a node budget sheds its deepest
unexplored branches back to the queue. Only once the parent has
searched :data:`~repro.core.scheduler.HELPER_START_BUDGETS` budgets of
frames with work still queued does it fork ``workers - 1`` helper
processes, which inherit the extracted graph and every point's
:class:`~repro.core.bbe.MSCE` through ``fork``; tasks on the wire are
four integers. Load balances adaptively across the whole grid even
when the root split guessed wrong, and a helper that *dies* has its
frames re-run by the parent or a surviving helper (bounded per frame,
then quarantined) without perturbing results. Components below
:data:`SMALL_COMPONENT` nodes never ship at all: the parent sweeps them
while the helpers finish.

Robustness: the driver degrades rather than dies. If helpers cannot
fork or the pool collapses mid-run, the parent finishes the remaining
frames itself — same frames, same answers — and the fallback reason is
recorded in ``result.parallel["degraded"]``. A ``time_limit`` /
``max_memory_bytes`` guard stops the run cooperatively across the
parent and all helpers, returning partial
:class:`~repro.core.bbe.EnumerationResult` objects with ``interrupted``
set on the affected points instead of raising.

Determinism: every frame is processed exactly once somewhere, with
branch selection a pure function of the frame (the random strategy
hashes the frame instead of consuming a sequential stream — see
:func:`~repro.core.bbe.frame_draw`). The merged cliques *and* the
summed :class:`~repro.core.bbe.SearchStats` are therefore
bit-identical across ``workers`` counts, repeated runs, and injected
worker crashes, and bit-identical to the sequential enumerator.

Observability: a grid run is wrapped in an ``msce_parallel`` span (an
``MSCE`` run in its own ``msce`` span) with ``enumerate`` / ``merge``
children; helper metrics ride back as
registry snapshots on terminal messages (exactly-once under retry, see
:mod:`repro.core.scheduler`) and each point's aggregated snapshot lands
both in ``result.parallel["metrics"]`` and in the ambient observer's
registry. Pass ``progress=`` a callback to receive throttled
:class:`~repro.obs.progress.ProgressEvent` samples with an ETA derived
from frames outstanding.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.bbe import MSCE, EnumerationResult, _StopSearch, compile_floor
from repro.core.cliques import sort_cliques
from repro.core.params import AlphaK
from repro.core.scheduler import (
    DEFAULT_TASK_BUDGET,
    GroupedTask,
    SearchGroup,
    WorkStealingScheduler,
    _require_positive_int,
)
from repro.exceptions import ParameterError
from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph, compile_graph
from repro.fastpath.kernels import component_masks, reduce_mask
from repro.fastpath.search import decompose_root
from repro.graphs.signed_graph import SignedGraph
from repro.limits import make_guard
from repro.models import resolve_model
from repro.obs import runtime as obs
from repro.obs.progress import ProgressEvent, ProgressReporter

#: Components below this node count are never queued as tasks: the
#: parent sweeps them itself once it has nothing queued.
SMALL_COMPONENT = 32

#: Components of at least this node count are root-branch decomposed
#: into multiple tasks instead of shipping as one frame.
SPLIT_COMPONENT = 128

#: Root branches carved per worker out of each giant component before
#: scheduling; the residual spine frame becomes the final task either way.
ROOT_BRANCHES_PER_WORKER = 4


def _within(mask: int, union: int) -> int:
    """Re-index *mask* (a subset of *union*) into ``extract(union)`` space.

    :meth:`~repro.fastpath.CompiledGraph.extract` numbers the kept nodes
    in ascending original order, so bit ``b`` of *mask* moves to the
    number of *union* bits below it.
    """
    moved = 0
    for new, old in enumerate(iter_bits(union)):
        if (mask >> old) & 1:
            moved |= 1 << new
    return moved


def enumerate_parallel(
    graph: SignedGraph,
    alpha: float,
    k: int,
    workers: int = 2,
    selection: str = "greedy",
    reduction: str = "mcnew",
    maxtest: str = "exact",
    seed: int = 0,
    small_component: int = SMALL_COMPONENT,
    split_component: int = SPLIT_COMPONENT,
    task_budget: int = DEFAULT_TASK_BUDGET,
    time_limit: Optional[float] = None,
    max_memory_bytes: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    model: Optional[str] = None,
    top_r: Optional[int] = None,
) -> EnumerationResult:
    """Enumerate all maximal (alpha, k)-cliques using *workers* processes.

    The one-point form of :func:`enumerate_grid`, which documents every
    parameter: returns that driver's
    :class:`~repro.core.bbe.EnumerationResult` for ``AlphaK(alpha, k)``.
    Its cliques are exactly the sequential answer (sorted largest-first)
    and its :class:`~repro.core.bbe.SearchStats` equal the sequential
    run's counters bit-for-bit. Accepts a
    :class:`repro.fastpath.CompiledGraph` for *graph* to skip
    recompilation.
    """
    params = AlphaK(alpha, k)
    return enumerate_grid(
        graph,
        [params],
        workers=workers,
        selection=selection,
        reduction=reduction,
        maxtest=maxtest,
        seed=seed,
        small_component=small_component,
        split_component=split_component,
        task_budget=task_budget,
        time_limit=time_limit,
        max_memory_bytes=max_memory_bytes,
        progress=progress,
        model=model,
        top_r=top_r,
    )[params]


def enumerate_grid(
    graph: SignedGraph,
    points: Iterable[AlphaK],
    workers: int = 1,
    selection: str = "greedy",
    reduction: str = "mcnew",
    maxtest: str = "exact",
    seed: int = 0,
    small_component: int = SMALL_COMPONENT,
    split_component: int = SPLIT_COMPONENT,
    task_budget: int = DEFAULT_TASK_BUDGET,
    time_limit: Optional[float] = None,
    max_memory_bytes: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    reducer: Optional[Callable] = None,
    model: Optional[str] = None,
    top_r: Optional[int] = None,
) -> Dict[AlphaK, EnumerationResult]:
    """Enumerate every (alpha, k) point of *points* against one graph.

    The graph is compiled once, each distinct point is reduced once
    (``reducer`` may memoise the coring across points sharing a
    ``ceil(alpha * k)`` ceiling — the serving engine injects one), the
    union of the survivors is extracted once, and the frames of *all*
    points ride a single work-stealing loop in which the caller
    searches as worker 0 and helpers fork only once the search outgrows
    its frame budget. Stealing therefore balances across the grid:
    while one point's giant component drags on, idle processes chew
    through the other points instead of waiting for a per-point
    barrier.

    Returns an ordered mapping of each *distinct* requested point to an
    :class:`~repro.core.bbe.EnumerationResult` whose cliques are exactly
    the sequential answer (sorted largest-first) and whose
    :class:`~repro.core.bbe.SearchStats` aggregate the per-frame
    counters across the parent and all helpers — for the deterministic
    selection strategies they equal a sequential ``MSCE(graph, params,
    ...).enumerate_all()`` run bit-for-bit; for ``"random"`` they are
    identical across worker counts and repeated runs (frame-hashed
    draws). Duplicate points are deduplicated, preserving first-seen
    order. Each result's ``parallel`` field carries the run's
    scheduling counters, including ``helpers`` (processes forked, 0
    when the search stayed under the threshold) and
    ``helpers_started_after`` (frames the parent had searched by then,
    ``None`` without helpers), plus the fault-tolerance report:
    ``retries``, ``workers_lost``, ``quarantined_frames``,
    ``degraded`` (the fallback reason, or ``None``), the point's
    interruption fields mirrored from its result, and ``metrics`` — the
    point's aggregated :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
    combining the search counters with per-task scheduling metrics.

    Accepts a :class:`repro.fastpath.CompiledGraph` for *graph* to skip
    recompilation. ``workers <= 1`` runs the identical decomposition
    through the same loop (same frames, same stats) with no helper
    processes.

    Parameters beyond the enumerator's usual knobs:

    small_component / split_component:
        Node-count thresholds selecting, per reduced component, between
        the parent's local sweep, a single task, and root-branch
        decomposition (``4 * workers`` root branches, see
        :data:`ROOT_BRANCHES_PER_WORKER`).
    task_budget:
        Frames a task processes before it sheds branches back to the
        queue, see :mod:`repro.core.scheduler`. Scheduling granularity
        only — results and stats are invariant. It also sets when
        helpers fork: after ``HELPER_START_BUDGETS * task_budget``
        frames searched by the parent.
    time_limit / max_memory_bytes:
        Wall-clock budget in seconds / peak-RSS ceiling in bytes,
        enforced cooperatively in the parent and every helper. When
        either trips, the affected points' results are partial, with
        ``interrupted`` set, ``interrupted_reason`` of ``"deadline"``
        or ``"memory"``, and ``incomplete_frames`` counting abandoned
        subtrees; points that completed stay exact. The call never
        raises for it.
    progress:
        Callback receiving throttled
        :class:`~repro.obs.progress.ProgressEvent` samples (completed
        and outstanding frame counts, completion rate, ETA) while the
        pool runs, plus one forced final sample.
    reducer:
        Replacement for :func:`~repro.fastpath.kernels.reduce_mask`,
        called as ``reducer(compiled, params, method)``; it must return
        the same survivor mask.
    model:
        Signed-cohesion model (:data:`repro.models.MODELS`). Resolved
        once (explicit > ``REPRO_MODEL`` env > ``"msce"``) before any
        helper forks, so the whole run applies one consistent
        constraint; recorded in ``result.parallel["model"]`` and on the
        results' stats. The requested ``reduction`` is mapped through
        the model's :meth:`~repro.models.SignedConstraint.reduction_rule`
        (non-MSCE models degrade it to ``"none"``).
    top_r:
        Return only the ``r`` largest maximal cliques of each point,
        with the paper's size-based subspace cutoff active in the
        parent *and* every helper task (size heaps hold only
        genuine answer sizes, so each local cutoff under-estimates the
        true r-th-largest size and no top-r clique is ever pruned). The
        returned cliques are bit-identical to the sequential
        ``MSCE.top_r`` answer at any worker count; search *counters*
        under top-r depend on the worker count (each helper task
        prunes against its own heap), unlike full enumeration. At
        ``workers=1`` they equal ``MSCE.top_r``'s, which runs this
        driver with one process.

    Raises
    ------
    ValueError
        If ``workers`` or ``task_budget`` is not a positive integer
        (bools are rejected too).
    """
    _require_positive_int("workers", workers)
    _require_positive_int("task_budget", task_budget)
    if top_r is not None and top_r <= 0:
        raise ParameterError(f"top_r must be positive, got {top_r}")
    param_list = list(dict.fromkeys(points))
    if not param_list:
        return {}

    # One model covers the grid, resolved once before any helper forks.
    model = resolve_model(model)
    searchers = [
        MSCE(
            graph,
            params,
            selection=selection,
            reduction=reduction,
            maxtest=maxtest,
            seed=seed,
            reducer=reducer,
            model=model,
        )
        for params in param_list
    ]
    with obs.span(
        "msce_parallel",
        points=len(param_list),
        workers=workers,
        selection=selection,
        reduction=searchers[0].constraint.reduction_rule(reduction),
        model=model,
    ):
        results = _run_searchers(
            graph,
            searchers,
            workers=workers,
            small_component=small_component,
            split_component=split_component,
            task_budget=task_budget,
            time_limit=time_limit,
            max_memory_bytes=max_memory_bytes,
            progress=progress,
            top_r=top_r,
        )
        degraded = results[0].parallel["degraded"]
        if degraded is not None:
            obs.journal_event("degraded", reason=degraded)
    return dict(zip(param_list, results))


def _compile_for(graph, searchers: Sequence[MSCE]) -> CompiledGraph:
    """The compiled graph *searchers* run on: *graph* if it is compiled.

    A ``SignedGraph`` compiles to the positive core of the smallest
    ``ceil(alpha * k)`` floor of the searchers (:func:`compile_floor`
    of each one's model-mapped reduction): cores nest, so every point's
    MCCore lies inside it. The one compile path of a whole-graph search;
    :attr:`MSCE.compiled <repro.core.bbe.MSCE.compiled>` memoises it.
    """
    if isinstance(graph, CompiledGraph):
        return graph
    return compile_graph(
        graph,
        min_positive_degree=min(
            compile_floor(searcher.constraint.reduction_rule(searcher.reduction), searcher.params)
            for searcher in searchers
        ),
    )


def _run_searchers(
    graph,
    searchers: Sequence[MSCE],
    workers: int = 1,
    small_component: int = SMALL_COMPONENT,
    split_component: int = SPLIT_COMPONENT,
    task_budget: int = DEFAULT_TASK_BUDGET,
    time_limit: Optional[float] = None,
    max_memory_bytes: Optional[int] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    top_r: Optional[int] = None,
    quarantine: bool = True,
) -> List[EnumerationResult]:
    """Run Algorithm 4 for each configured searcher against one graph.

    The one driver of a whole-graph search: :func:`enumerate_grid` hands
    it one :class:`~repro.core.bbe.MSCE` per point, and
    :meth:`MSCE.enumerate_all <repro.core.bbe.MSCE.enumerate_all>` /
    :meth:`~repro.core.bbe.MSCE.top_r` hand it themselves with one
    process. Compile *graph* (the positive core of the smallest
    ``ceil(alpha * k)``; a :class:`~repro.fastpath.CompiledGraph` is used
    as given), reduce each searcher's point with its own ``reducer`` or
    :func:`~repro.fastpath.kernels.reduce_mask`, extract the union of the
    survivors once, plan each component as a local frame, one task or
    :func:`~repro.fastpath.search.decompose_root` tasks, search them all
    through one :class:`~repro.core.scheduler.WorkStealingScheduler`, and
    merge.

    Every searcher must be built on *graph* under one model; each keeps
    its own settings (selection, maxtest, pruning flags, ``audit``,
    ``min_size``, ``max_results``), and the arguments set the run's
    limits. Returns one result per searcher, in order, each with the
    run's scheduling report in ``parallel``. A ``max_results`` cap ends
    the run with every result ``truncated``. ``quarantine=False`` (the
    sequential ``MSCE`` run) re-raises a task that fails instead of
    quarantining it, see :class:`~repro.core.scheduler.WorkStealingScheduler`.
    The caller opens the root span.
    """
    started = time.perf_counter()
    reporter = ProgressReporter(progress) if progress is not None else None
    reductions = [searcher.constraint.reduction_rule(searcher.reduction) for searcher in searchers]
    # The deadline is an absolute time.monotonic timestamp so the parent
    # and forked helpers (same clock) agree on when time is up.
    deadline = time.monotonic() + time_limit if time_limit is not None else None
    guard = make_guard(deadline, max_memory_bytes)
    compiled = _compile_for(graph, searchers)

    # Reduce each point, then carve the union of the survivors straight
    # out of the CSR arrays, once for the whole grid.
    survivors = [
        (searcher.reducer or reduce_mask)(compiled, searcher.params, method)
        for method, searcher in zip(reductions, searchers)
    ]
    union = 0
    for mask in survivors:
        union |= mask
    extracted = compiled
    if union != compiled.full_mask:
        extracted = compiled.extract(union)
        # Searchers emit and maxtest against the original graph.
        extracted._source = searchers[0].graph
        survivors = [
            extracted.full_mask if mask == union else _within(mask, union)
            for mask in survivors
        ]

    groups = [SearchGroup(searcher, extracted) for searcher in searchers]
    scheduler = WorkStealingScheduler(
        groups,
        workers,
        task_budget=task_budget,
        deadline=deadline,
        max_memory_bytes=max_memory_bytes,
        progress=reporter.update if reporter is not None else None,
        top_r=top_r,
        quarantine=quarantine,
    )
    local: List[GroupedTask] = []
    tasks: List[GroupedTask] = []
    split_components = 0
    truncated = False
    with obs.span("enumerate"):
        try:
            for index, (group, survivor_mask) in enumerate(zip(groups, survivors)):
                for mask in component_masks(extracted, survivor_mask):
                    group.stats.components += 1
                    size = bit_count(mask)
                    if size < small_component:
                        local.append((index, (mask, 0)))
                    elif size < split_component:
                        tasks.append((index, (mask, 0)))
                    else:
                        split_components += 1
                        spine = group.search(top_r, None)
                        tasks.extend(
                            (index, frame)
                            for frame in decompose_root(
                                spine, mask, ROOT_BRANCHES_PER_WORKER * workers, guard=guard
                            )
                        )
            # Biggest subtrees first so stragglers start early; the
            # deterministic tie-break keeps the order stable across runs.
            tasks.sort(key=lambda task: (-bit_count(task[1][0]), task[0], task[1]))
            scheduler.run_grouped(tasks, local)
        except _StopSearch:
            truncated = True  # a max_results cap was reached

    report: Dict[str, object] = {
        "model": searchers[0].model,
        "grid_points": len(searchers),
        "inline_components": len(local),
        "presplit_components": split_components,
        "top_r": top_r,
    }
    report.update(scheduler.report)
    results: List[EnumerationResult] = []
    with obs.span("merge"):
        for index, group in enumerate(groups):
            cliques = sort_cliques(group.found.values())
            if top_r is not None:
                cliques = cliques[:top_r]
            group.stats.maximal_found = len(cliques)
            metrics = group.stats.registry.snapshot()
            # Surface each point's metrics in the ambient registry before
            # the caller's root span closes, so its counter deltas carry
            # the summed search counters.
            obs.merge_metrics(metrics)
            results.append(
                EnumerationResult(
                    cliques=cliques,
                    stats=group.stats,
                    elapsed_seconds=time.perf_counter() - started,
                    timed_out=group.reason == "deadline",
                    truncated=truncated,
                    parallel=dict(
                        report,
                        grid_group=index,
                        metrics=metrics,
                        interrupted=group.reason is not None,
                        interrupted_reason=group.reason,
                        incomplete_frames=group.incomplete,
                    ),
                    interrupted=group.reason is not None,
                    interrupted_reason=group.reason,
                    incomplete_frames=group.incomplete,
                )
            )
    if reporter is not None:
        reporter.finish(int(report.get("tasks_completed", 0)))
    return results
