"""Parallel maximal (alpha, k)-clique enumeration.

Two levels of parallelism compose here, both operating on *frames* —
``(candidates, included)`` bitmask pairs naming one subtree of MSCE's
branch-and-bound search:

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

Frames are driven by a fault-tolerant work-stealing scheduler
(:class:`repro.core.scheduler.WorkStealingScheduler`): a worker whose
subtree exceeds a node budget sheds its deepest unexplored branches
back to the queue, so load balances adaptively even when the presplit
guessed wrong; a worker that *dies* has its frames retried elsewhere
(bounded per frame, then quarantined) without perturbing results. Graph
data crosses the process boundary exactly once — the reduced survivor
subgraph is CSR-sliced out of the parent's compilation
(:meth:`~repro.fastpath.CompiledGraph.extract`, no dict-of-sets
subgraphs) and published as a
:class:`~repro.fastpath.shared.SharedCompiledGraph` shared-memory
block; tasks themselves are two integers. Components below
:data:`SMALL_COMPONENT` nodes never ship at all: the parent searches
them inline while the workers chew on the big frames.

Robustness: the entry point degrades rather than dies. If shared
memory cannot be allocated, the worker pool cannot spawn, or the pool
collapses mid-run, the remaining frames are finished inline in the
parent — same frames, same answers — and the fallback reason is
recorded in ``result.parallel["degraded"]``. A ``time_limit`` /
``max_memory_bytes`` guard stops the run cooperatively across the
parent and all workers, returning a partial
:class:`~repro.core.bbe.EnumerationResult` with ``interrupted`` set
instead of raising.

Determinism: every frame is processed exactly once somewhere, with
branch selection a pure function of the frame (the random strategy
hashes the frame instead of consuming a sequential stream — see
``frame_rng`` on :class:`~repro.core.bbe.MSCE`). The merged cliques
*and* the summed :class:`~repro.core.bbe.SearchStats` are therefore
bit-identical across ``workers`` counts, repeated runs, and injected
worker crashes, and — for the deterministic selection strategies —
bit-identical to the sequential enumerator.

Observability: the run is wrapped in an ``msce_parallel`` span with
``enumerate`` / ``merge`` children; worker metrics ride back as
registry snapshots on terminal messages (exactly-once under retry, see
:mod:`repro.core.scheduler`) and the aggregated snapshot lands both in
``result.parallel["metrics"]`` and in the ambient observer's registry.
Pass ``progress=`` a callback to receive throttled
:class:`~repro.obs.progress.ProgressEvent` samples with an ETA derived
from frames outstanding.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.core.bbe import (
    MSCE,
    EnumerationResult,
    SearchStats,
    compile_floor,
    seed_topr_state,
)
from repro.core.cliques import SignedClique, sort_cliques
from repro.core.params import AlphaK
from repro.core.scheduler import (
    DEFAULT_FRAME_RETRIES,
    DEFAULT_MAX_OFFLOAD,
    DEFAULT_TASK_BUDGET,
    RESULT_DRAIN_TIMEOUT,
    WorkStealingScheduler,
)
from repro.exceptions import SharedMemoryError
from repro.fastpath.backend import resolve_backend
from repro.fastpath.bitset import bit_count, iter_bits
from repro.fastpath.compiled import CompiledGraph, compile_graph, source_graph
from repro.fastpath.kernels import component_masks, reduce_mask
from repro.fastpath.search import FrameSearch, decompose_root
from repro.fastpath.shared import SharedCompiledGraph, resolve_transport
from repro.fastpath.storage import SpillFrontier
from repro.graphs.signed_graph import Node, SignedGraph
from repro.heuristics import prepare_warm_start
from repro.limits import make_guard, resolve_memory_budget
from repro.models import make_constraint, resolve_model
from repro.obs import runtime as obs
from repro.obs.progress import ProgressEvent, ProgressReporter

#: Components below this node count are searched inline in the parent
#: while the worker processes handle the large frames.
SMALL_COMPONENT = 32

#: Components of at least this node count are root-branch decomposed
#: into multiple tasks instead of shipping as one frame.
SPLIT_COMPONENT = 128


def _shard_footprint(compiled: CompiledGraph, mask: int) -> int:
    """Estimated resident bytes to search the *mask* component shard.

    Dominated by the per-node adjacency bitmasks the frame search builds
    (three sign classes of ``n``-bit integers per member) plus the CSR
    rows actually touched; a constant overhead keeps tiny shards from
    estimating zero. Only the *relative order* matters — the budgeted
    execution plan runs the heaviest shards first, while the spill
    frontier is emptiest — so a coarse model is enough.
    """
    xadj = compiled.xadj
    degree_sum = 0
    for i in iter_bits(mask):
        degree_sum += xadj[i + 1] - xadj[i]
    size = bit_count(mask)
    return size * (3 * (compiled.n >> 3) + 64) + degree_sum * 8 + 1024


def _require_positive_int(name: str, value) -> int:
    """Reject bools, non-ints and values below 1 with a clear message."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{name} must be a positive integer, got {value!r} ({type(value).__name__})"
        )
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


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
    presplit: Optional[int] = None,
    task_budget: int = DEFAULT_TASK_BUDGET,
    max_offload: int = DEFAULT_MAX_OFFLOAD,
    time_limit: Optional[float] = None,
    max_memory_bytes: Optional[int] = None,
    frame_retries: int = DEFAULT_FRAME_RETRIES,
    max_respawns: Optional[int] = None,
    strict: bool = False,
    drain_timeout: float = RESULT_DRAIN_TIMEOUT,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    backend: Optional[str] = None,
    model: Optional[str] = None,
    memory_budget_bytes: Optional[int] = None,
    spill_dir: Optional[str] = None,
    transport: Optional[str] = None,
    top_r: Optional[int] = None,
    warm_start=None,
) -> EnumerationResult:
    """Enumerate all maximal (alpha, k)-cliques using *workers* processes.

    Returns an :class:`~repro.core.bbe.EnumerationResult` whose cliques
    are exactly the sequential answer (sorted largest-first) and whose
    :class:`~repro.core.bbe.SearchStats` aggregate the per-frame
    counters across the parent and all workers — for the deterministic
    selection strategies they equal the sequential run's counters
    bit-for-bit; for ``"random"`` they are identical across worker
    counts and repeated runs (frame-hashed draws). The ``parallel``
    field carries scheduling counters, including the shared-memory
    payload size that replaces per-task subgraph pickling, plus the
    fault-tolerance report: ``retries``, ``respawns``, ``workers_lost``,
    ``quarantined_frames``, ``degraded`` (the fallback reason, or
    ``None``), the interruption fields mirrored from the result, and
    ``metrics`` — the aggregated
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` combining the
    search counters with per-task scheduling metrics.

    Accepts a :class:`repro.fastpath.CompiledGraph` for *graph* to skip
    recompilation. ``workers <= 1`` runs the identical decomposition
    in-process (same frames, same stats) with no worker processes.

    Parameters beyond the enumerator's usual knobs:

    small_component / split_component:
        Node-count thresholds selecting, per reduced component, between
        inline search, a single task, and root-branch decomposition.
    presplit:
        Root branches carved per giant component before scheduling
        (default ``4 * workers``); the residual spine frame becomes the
        final task either way.
    task_budget / max_offload:
        Work-stealing re-split knobs, see
        :mod:`repro.core.scheduler`. Scheduling granularity only —
        results and stats are invariant.
    time_limit / max_memory_bytes:
        Wall-clock budget in seconds / peak-RSS ceiling in bytes,
        enforced cooperatively in the parent and every worker. When
        either trips, the call **returns** a partial result with
        ``interrupted`` set, ``interrupted_reason`` of ``"deadline"``
        or ``"memory"``, and ``incomplete_frames`` counting abandoned
        subtrees — it never raises.
    frame_retries / max_respawns:
        Fault-tolerance budgets: failed attempts one frame survives
        before quarantine, and total worker respawns across the run
        (default ``2 * workers``).
    strict:
        Disable graceful degradation: shared-memory failure raises
        :class:`~repro.exceptions.SharedMemoryError` and a collapsed
        worker pool raises
        :class:`~repro.exceptions.WorkerCrashError` instead of
        finishing the remaining frames inline.
    drain_timeout:
        Shutdown salvage window forwarded to the scheduler (see
        :data:`repro.core.scheduler.RESULT_DRAIN_TIMEOUT`).
    progress:
        Callback receiving throttled
        :class:`~repro.obs.progress.ProgressEvent` samples (completed
        and outstanding frame counts, completion rate, ETA) while the
        pool runs, plus one forced final sample.
    backend:
        Kernel tier (:data:`repro.fastpath.backend.BACKENDS`). Resolved
        once in the parent and shipped to every worker, so the whole
        run uses one consistent tier; recorded in
        ``result.parallel["backend"]``. Results are bit-identical
        across tiers.
    model:
        Signed-cohesion model (:data:`repro.models.MODELS`). Resolved
        once (explicit > ``REPRO_MODEL`` env > ``"msce"``) and shipped
        to every worker, so the whole run applies one consistent
        constraint; recorded in ``result.parallel["model"]`` and on the
        result's stats. The requested ``reduction`` is mapped through
        the model's :meth:`~repro.models.SignedConstraint.reduction_rule`
        (non-MSCE models degrade it to ``"none"``).
    memory_budget_bytes:
        *Soft* peak-RSS target in bytes enabling the out-of-core
        execution plan (explicit argument wins over the
        ``REPRO_MEMORY_BUDGET`` environment variable). Component shards
        are ordered by estimated footprint (heaviest first, while the
        frontier is emptiest) and the parent-side frame searches run
        under a :class:`~repro.fastpath.storage.SpillFrontier` that
        parks bottom-of-stack frames in a disk-backed frame store when
        the in-memory frontier crosses its budget-derived high-water
        mark. Unlike ``max_memory_bytes`` it never interrupts the run —
        every frame still runs exactly once, so cliques and stats are
        bit-identical to the unbudgeted path; ``spilled_frames`` /
        ``spill_bytes`` land in ``result.parallel``.
    spill_dir:
        Directory for spill files and mmap-transport artifacts (default
        system tempdir). All are crash-guarded temp files.
    transport:
        Graph transport (:data:`repro.fastpath.shared.TRANSPORTS`):
        ``"shm"`` publishes the reduced graph in a shared-memory block,
        ``"mmap"`` in an on-disk artifact workers map read-only
        (file-backed pages the OS can evict — the right choice next to
        a memory budget). Resolved once (explicit > ``REPRO_TRANSPORT``
        env > shm) and recorded in ``result.parallel["transport"]``;
        results are bit-identical across transports.
    top_r:
        Return only the ``r`` largest maximal cliques, with the
        paper's size-based subspace cutoff active in the parent *and*
        every worker task (per-task size heaps hold only genuine
        answer sizes, so each local cutoff under-estimates the true
        r-th-largest size and no top-r clique is ever pruned). The
        returned cliques are bit-identical to the sequential
        ``MSCE.top_r`` answer at any worker count; search *counters*
        under top-r depend on the worker count (each task prunes
        against its own heap), unlike full enumeration.
    warm_start:
        Seed every size heap with incumbent cliques before any frame
        runs (requires ``top_r``): a strategy name from
        :data:`repro.heuristics.WARM_START_STRATEGIES` runs the
        seeding portfolio against the source graph, an iterable of
        cliques is validated strictly (every incumbent must be a
        distinct maximal clique of the active model, else
        :class:`~repro.exceptions.ParameterError`). Incumbent rows
        ship to workers through the scheduler config so the seeded
        bound prunes from frame one; the portfolio's report lands in
        ``result.parallel["seeded"]``. Answers are unchanged — seeded
        and unseeded runs return the identical clique set.

    Raises
    ------
    ValueError
        If ``workers``, ``task_budget`` or ``max_offload`` is not a
        positive integer (bools are rejected too).
    """
    _require_positive_int("workers", workers)
    _require_positive_int("task_budget", task_budget)
    _require_positive_int("max_offload", max_offload)
    if isinstance(frame_retries, bool) or not isinstance(frame_retries, int) or frame_retries < 0:
        raise ValueError(f"frame_retries must be a non-negative integer, got {frame_retries!r}")
    if max_respawns is not None and (
        isinstance(max_respawns, bool) or not isinstance(max_respawns, int) or max_respawns < 0
    ):
        raise ValueError(f"max_respawns must be a non-negative integer or None, got {max_respawns!r}")
    if top_r is not None and top_r <= 0:
        from repro.exceptions import ParameterError

        raise ParameterError(f"top_r must be positive, got {top_r}")
    if warm_start is not None and top_r is None:
        from repro.exceptions import ParameterError

        raise ParameterError("warm_start requires top_r")

    params = AlphaK(alpha, k)
    # Resolve once up front: workers inherit the concrete tier name, so
    # a native->vectorized degradation in the parent applies everywhere.
    backend = resolve_backend(backend)
    model = resolve_model(model)
    # The parent reduces before any MSCE exists, so map the requested
    # reduction through the model's soundness rule here (balanced ->
    # "none"); the same effective method is recorded on the span.
    reduction = make_constraint(model, params).reduction_rule(reduction)
    transport = resolve_transport(transport)
    memory_budget_bytes = resolve_memory_budget(memory_budget_bytes)
    started = time.perf_counter()
    reporter = (
        ProgressReporter(progress) if progress is not None else None
    )
    with obs.span(
        "msce_parallel",
        alpha=params.alpha,
        k=params.k,
        workers=workers,
        selection=selection,
        reduction=reduction,
        backend=backend,
        model=model,
    ):
        # The deadline is an absolute time.monotonic timestamp so the parent
        # and forked workers (same clock) agree on when time is up.
        deadline_ts = time.monotonic() + time_limit if time_limit is not None else None
        guard = make_guard(
            deadline_ts, max_memory_bytes, memory_budget_bytes=memory_budget_bytes
        )
        # Same compile as MSCE's: nodes the reduction cannot keep are
        # left out of it.
        compiled = (
            graph
            if isinstance(graph, CompiledGraph)
            else compile_graph(graph, min_positive_degree=compile_floor(reduction, params))
        )

        # Reduce once, then carve the survivor subgraph straight out of the
        # CSR arrays — no per-component dict-of-sets subgraph rebuilds.
        survivor_mask = reduce_mask(compiled, params, method=reduction, backend=backend)
        if survivor_mask == compiled.full_mask:
            extracted = compiled
        else:
            extracted = compiled.extract(survivor_mask)
            # The parent emits and maxtests against the original graph, like
            # the sequential enumerator (workers use the reduced subgraph,
            # which provably gives the same answers); seeding the source
            # also avoids an O(m) reconstruction in MSCE's constructor.
            extracted._source = source_graph(graph)

        searcher = MSCE(
            extracted,
            params,
            selection=selection,
            reduction="none",  # already reduced above
            maxtest=maxtest,
            seed=seed,
            frame_rng=True,
            backend=backend,
            model=model,
        )

        stats = SearchStats()
        stats.backend = backend
        stats.model = model
        found: Dict[FrozenSet[Node], SignedClique] = {}
        size_heap: List[int] = []

        # Warm-start seeding happens before any frame exists, so the
        # decompose spine walk, the inline searches and every worker
        # task all prune against the seeded bound from their first
        # frame. Incumbents are validated maximal cliques of the model
        # (the portfolio certifies its own output; explicit lists are
        # strictly checked), which is what keeps seeding answer-neutral.
        warm = None
        incumbent_rows: Tuple[Tuple[FrozenSet[Node], int, int], ...] = ()
        if warm_start is not None:
            warm = prepare_warm_start(
                searcher.graph,
                params,
                top_r,
                warm_start,
                model=model,
                reduction=reduction,
            )
            seed_topr_state(found, size_heap, warm.cliques, top_r)
            searcher._seeded_keys = frozenset(c.nodes for c in warm.cliques)
            incumbent_rows = tuple(
                (c.nodes, c.positive_edges, c.negative_edges) for c in warm.cliques
            )

        inline_frames: List[Tuple[int, int]] = []
        tasks: List[Tuple[int, int]] = []
        presplit_cap = presplit if presplit is not None else max(4 * workers, 4)
        split_components = 0
        for mask in component_masks(extracted):
            stats.components += 1
            size = bit_count(mask)
            if size < small_component:
                inline_frames.append((mask, 0))
            elif size < split_component:
                tasks.append((mask, 0))
            else:
                split_components += 1
                tasks.extend(
                    decompose_root(
                        searcher,
                        mask,
                        stats,
                        found,
                        size_heap,
                        presplit_cap,
                        guard=guard,
                        top_r=top_r,
                    )
                )
        if memory_budget_bytes is not None:
            # Budgeted execution plan: order shards by estimated resident
            # footprint, heaviest first, so the big components run while
            # the spill frontier is emptiest. Ordering changes nothing
            # observable — frames partition the search tree and counters
            # are additive — so results stay bit-identical either way.
            tasks.sort(
                key=lambda frame: (
                    -_shard_footprint(extracted, frame[0]),
                    frame[0],
                    frame[1],
                )
            )
        else:
            # Biggest subtrees first so stragglers start early; deterministic
            # tie-break keeps the seeded order stable across runs.
            tasks.sort(key=lambda frame: (-bit_count(frame[0]), frame[0], frame[1]))

        report: Dict[str, object] = {
            "workers": workers,
            "backend": backend,
            "model": model,
            "transport": transport,
            "tasks_seeded": len(tasks),
            "inline_components": len(inline_frames),
            "presplit_components": split_components,
            "shared_graph_bytes": 0,
            "frames_resplit": 0,
            "memory_budget_bytes": memory_budget_bytes,
            "spilled_frames": 0,
            "spill_bytes": 0,
        }
        degraded: Optional[str] = None
        # Interruption state accumulated by the parent-side inline searches
        # (small components, degraded fallbacks, leftover completion).
        inline_state: Dict[str, object] = {"reason": None, "incomplete": 0}
        # One disk-backed frontier shared by every parent-side inline
        # search of a budgeted run; each run() drains it before
        # returning, so reuse across calls is safe.
        frontier = (
            SpillFrontier(
                memory_budget_bytes, extracted.n, dir=spill_dir, guard=guard
            )
            if memory_budget_bytes is not None
            else None
        )

        def run_inline(frames: List[Tuple[int, int]]) -> None:
            if not frames:
                return
            if frontier is not None and len(frames) > 1:
                # The DFS pops from the end, so ascending footprint puts
                # the heaviest shard first in execution order.
                frames = sorted(
                    frames,
                    key=lambda frame: (
                        _shard_footprint(extracted, frame[0]),
                        frame[0],
                        frame[1],
                    ),
                )
            frame_search = FrameSearch(searcher, stats, found, size_heap, top_r, guard)
            reason = frame_search.run(
                [(candidates, included, None) for candidates, included in frames],
                frontier=frontier,
            )
            if reason is not None:
                if inline_state["reason"] is None:
                    inline_state["reason"] = reason
                inline_state["incomplete"] += len(frame_search.incomplete)

        def finish_inline(leftover: List[Tuple[Tuple[int, int], int]]) -> None:
            """Finish frames the pool abandoned, skipping credited spawns.

            Replays each leftover frame with the same ``task_budget`` /
            ``max_offload`` offload semantics a worker would have used, so
            its spawn sequence is reproduced deterministically; the first
            ``credited`` spawned subtrees were already enqueued as separate
            tasks (completed or themselves leftover) and are dropped, while
            later ones are appended and finished here. Results therefore
            stay duplicate-free and bit-identical to a healthy run.
            """
            pending = deque(leftover)
            while pending:
                (candidates, included), credited = pending.popleft()
                index = 0
                fresh: List[Tuple[int, int]] = []

                def offload(child, _fresh=fresh, _credited=credited):
                    nonlocal index
                    if index >= _credited:
                        _fresh.append(child)
                    index += 1

                frame_search = FrameSearch(searcher, stats, found, size_heap, top_r, guard)
                reason = frame_search.run(
                    [(candidates, included, None)],
                    budget=task_budget,
                    offload=offload,
                    max_offload=max_offload,
                )
                for child in fresh:
                    pending.append((child, 0))
                if reason is not None:
                    if inline_state["reason"] is None:
                        inline_state["reason"] = reason
                    inline_state["incomplete"] += len(frame_search.incomplete) + len(pending)
                    return

        with obs.span("enumerate"):
            if workers <= 1 or not tasks:
                # Same frames, same order semantics, no processes: results and
                # stats match the multi-worker path bit for bit.
                degraded = "workers<=1" if workers <= 1 else "no parallel tasks"
                run_inline(tasks + inline_frames)
                report["tasks_completed"] = len(tasks)
            else:
                try:
                    shared = SharedCompiledGraph.create(
                        extracted, transport=transport, dir=spill_dir
                    )
                except SharedMemoryError as exc:
                    if strict:
                        raise
                    # Tiny or missing /dev/shm: the parallel payload cannot be
                    # published, so run the identical frames in-process.
                    degraded = f"shared memory unavailable ({exc})"
                    shared = None
                if shared is None:
                    run_inline(tasks + inline_frames)
                    report["tasks_completed"] = len(tasks)
                else:
                    try:
                        scheduler = WorkStealingScheduler(
                            shared,
                            workers,
                            params,
                            selection,
                            maxtest,
                            seed,
                            task_budget=task_budget,
                            max_offload=max_offload,
                            deadline=deadline_ts,
                            max_memory_bytes=max_memory_bytes,
                            frame_retries=frame_retries,
                            max_respawns=max_respawns,
                            strict=strict,
                            drain_timeout=drain_timeout,
                            progress=reporter.update if reporter is not None else None,
                            backend=backend,
                            model=model,
                            top_r=top_r,
                            incumbents=incumbent_rows,
                        )
                        rows, worker_metrics, leftover = scheduler.run(
                            tasks, local_work=lambda: run_inline(inline_frames)
                        )
                    finally:
                        shared.close()
                        shared.unlink()
                    for nodes, positive, negative in rows:
                        found[nodes] = SignedClique(
                            nodes=nodes,
                            params=params,
                            positive_edges=positive,
                            negative_edges=negative,
                        )
                    stats.merge_snapshot(worker_metrics)
                    report.update(scheduler.report)
                    if leftover and not scheduler.report["interrupted"]:
                        # The pool died under us (spawn failures or crashes past
                        # the respawn budget) without a resource guard tripping:
                        # finish the abandoned frames inline so the answer is
                        # still exhaustive.
                        if (
                            scheduler.report["spawn_failures"] > 0
                            and scheduler.report["workers_lost"] == 0
                        ):
                            degraded = "worker spawn failed"
                        else:
                            degraded = "worker pool collapsed"
                        report["incomplete_frames"] = (
                            scheduler.report["incomplete_frames"] - len(leftover)
                        )
                        finish_inline(leftover)

        if frontier is not None:
            report["spilled_frames"] = frontier.spilled_frames
            report["spill_bytes"] = frontier.spill_bytes
            frontier.close()

        interrupted_reason = report.get("interrupted_reason") or inline_state["reason"]
        incomplete_frames = int(report.get("incomplete_frames", 0)) + int(
            inline_state["incomplete"]
        )
        report["interrupted"] = interrupted_reason is not None
        report["interrupted_reason"] = interrupted_reason
        report["incomplete_frames"] = incomplete_frames
        report["degraded"] = degraded
        if degraded is not None:
            obs.journal_event("degraded", reason=degraded)

        with obs.span("merge"):
            cliques = sort_cliques(found.values())
            if top_r is not None:
                cliques = cliques[:top_r]
            stats.maximal_found = len(cliques)
            report["top_r"] = top_r
            if warm is not None:
                report["seeded"] = warm.report
            report["metrics"] = stats.registry.snapshot()
            # Surface the aggregated run metrics in the ambient registry
            # before the root span closes, so the "msce_parallel" span's
            # counter deltas carry the summed search counters.
            obs.merge_metrics(report["metrics"])
        if reporter is not None:
            reporter.finish(int(report.get("tasks_completed", 0)))
    return EnumerationResult(
        cliques=cliques,
        stats=stats,
        elapsed_seconds=time.perf_counter() - started,
        timed_out=interrupted_reason == "deadline",
        parallel=report,
        interrupted=interrupted_reason is not None,
        interrupted_reason=interrupted_reason,
        incomplete_frames=incomplete_frames,
    )


class _GridGroup:
    """Per-(alpha, k) search state of one :func:`enumerate_grid` run."""

    __slots__ = ("params", "searcher", "stats", "found", "size_heap", "reason", "incomplete")

    def __init__(self, params: AlphaK, searcher: MSCE):
        self.params = params
        self.searcher = searcher
        self.stats = SearchStats()
        self.found: Dict[FrozenSet[Node], SignedClique] = {}
        self.size_heap: List[int] = []
        self.reason: Optional[str] = None
        self.incomplete = 0


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
    presplit: Optional[int] = None,
    task_budget: int = DEFAULT_TASK_BUDGET,
    max_offload: int = DEFAULT_MAX_OFFLOAD,
    time_limit: Optional[float] = None,
    max_memory_bytes: Optional[int] = None,
    frame_retries: int = DEFAULT_FRAME_RETRIES,
    max_respawns: Optional[int] = None,
    strict: bool = False,
    drain_timeout: float = RESULT_DRAIN_TIMEOUT,
    reducer: Optional[Callable] = None,
    backend: Optional[str] = None,
    model: Optional[str] = None,
    transport: Optional[str] = None,
    spill_dir: Optional[str] = None,
) -> Dict[AlphaK, EnumerationResult]:
    """Enumerate a whole (alpha, k) grid against one compiled graph.

    The batch counterpart of :func:`enumerate_parallel`: the graph is
    compiled once, each distinct setting is reduced once (``reducer``
    may memoise the coring across settings sharing a ``ceil(alpha * k)``
    ceiling — the serving engine injects one), and the frames of *all*
    settings ride a single :class:`~repro.core.scheduler.WorkStealingScheduler`
    pool over one shared-memory graph segment. Stealing therefore
    balances across the grid: while one setting's giant component drags
    on, idle workers chew through the other settings instead of waiting
    for a per-point barrier.

    Returns an ordered mapping of each *distinct* requested setting to
    an :class:`~repro.core.bbe.EnumerationResult` that is bit-identical
    (cliques and stats) to a sequential ``MSCE(graph, params,
    ...).enumerate_all()`` run of that setting, by the same argument as
    :func:`enumerate_parallel` (frames partition each setting's search
    tree; selection is frame-deterministic). Duplicate points are
    deduplicated, preserving first-seen order.

    ``workers <= 1`` (or a grid with no shippable frames) runs the same
    decomposition inline, and the degradation ladder matches
    :func:`enumerate_parallel`: shared-memory failure, spawn failure or
    pool collapse finish the remaining frames in the parent unless
    ``strict`` is set. A tripped ``time_limit`` / ``max_memory_bytes``
    guard marks the *affected* settings interrupted (their results are
    partial); settings that already completed stay exact.

    ``backend`` selects the kernel tier, ``model`` the signed-cohesion
    constraint, and ``transport`` the graph transport exactly as in
    :func:`enumerate_parallel`: resolved once, shipped to every worker,
    recorded in each result's ``parallel["backend"]`` /
    ``parallel["model"]`` / ``parallel["transport"]``; ``spill_dir``
    locates any mmap-transport artifact.
    """
    _require_positive_int("workers", workers)
    _require_positive_int("task_budget", task_budget)
    _require_positive_int("max_offload", max_offload)
    param_list = list(dict.fromkeys(points))
    if not param_list:
        return {}

    backend = resolve_backend(backend)
    model = resolve_model(model)
    # One model covers the grid, so one soundness mapping covers every
    # point's reduction (the rule reads the model, not the params).
    reduction = make_constraint(model, param_list[0]).reduction_rule(reduction)
    transport = resolve_transport(transport)
    started = time.perf_counter()
    with obs.span(
        "msce_grid",
        points=len(param_list),
        workers=workers,
        selection=selection,
        reduction=reduction,
        backend=backend,
        model=model,
    ):
        deadline_ts = time.monotonic() + time_limit if time_limit is not None else None
        guard = make_guard(deadline_ts, max_memory_bytes)
        compiled = graph if isinstance(graph, CompiledGraph) else compile_graph(graph)

        groups: List[_GridGroup] = []
        inline_frames: List[Tuple[int, Tuple[int, int]]] = []
        tasks: List[Tuple[int, Tuple[int, int]]] = []
        presplit_cap = presplit if presplit is not None else max(4 * workers, 4)
        report: Dict[str, object] = {
            "workers": workers,
            "backend": backend,
            "model": model,
            "transport": transport,
            "grid_points": len(param_list),
            "shared_graph_bytes": 0,
        }
        degraded: Optional[str] = None

        for index, params in enumerate(param_list):
            # Reduce in full-graph index space (no per-group extraction):
            # every group's frames then address the same shared segment.
            if reducer is not None:
                survivor_mask = reducer(compiled, params, reduction)
            else:
                survivor_mask = reduce_mask(compiled, params, method=reduction, backend=backend)
            group = _GridGroup(
                params,
                MSCE(
                    compiled,
                    params,
                    selection=selection,
                    reduction="none",  # reduced above
                    maxtest=maxtest,
                    seed=seed,
                    frame_rng=True,
                    backend=backend,
                    model=model,
                ),
            )
            group.stats.backend = backend
            group.stats.model = model
            groups.append(group)
            for mask in component_masks(compiled, survivor_mask):
                group.stats.components += 1
                size = bit_count(mask)
                if size < small_component:
                    inline_frames.append((index, (mask, 0)))
                elif size < split_component:
                    tasks.append((index, (mask, 0)))
                else:
                    tasks.extend(
                        (index, frame)
                        for frame in decompose_root(
                            group.searcher,
                            mask,
                            group.stats,
                            group.found,
                            group.size_heap,
                            presplit_cap,
                            guard=guard,
                        )
                    )
        # Biggest subtrees first across the whole grid; deterministic
        # tie-break keeps the seeded order stable across runs.
        tasks.sort(key=lambda task: (-bit_count(task[1][0]), task[0], task[1]))
        report["tasks_seeded"] = len(tasks)
        report["inline_components"] = len(inline_frames)

        def run_inline(frames: List[Tuple[int, Tuple[int, int]]]) -> None:
            # One FrameSearch per group per call, same as the sequential
            # enumerator's per-component sweeps; counters are additive so
            # the grouping order cannot affect results.
            by_group: Dict[int, List[Tuple[int, int]]] = {}
            for index, frame in frames:
                by_group.setdefault(index, []).append(frame)
            for index, group_frames in by_group.items():
                group = groups[index]
                frame_search = FrameSearch(
                    group.searcher, group.stats, group.found, group.size_heap, None, guard
                )
                reason = frame_search.run(
                    [(candidates, included, None) for candidates, included in group_frames]
                )
                if reason is not None:
                    if group.reason is None:
                        group.reason = reason
                    group.incomplete += len(frame_search.incomplete)

        def finish_inline(leftover: List[Tuple[int, Tuple[int, int], int]]) -> None:
            # Grouped version of enumerate_parallel's credit-skipping
            # replay: spawn sequences are per-frame deterministic, so the
            # first `credited` shed subtrees of each leftover frame were
            # already enqueued (and completed or handed back) elsewhere.
            pending = deque(leftover)
            while pending:
                index, (candidates, included), credited = pending.popleft()
                group = groups[index]
                spawn_index = 0
                fresh: List[Tuple[int, int]] = []

                def offload(child, _fresh=fresh, _credited=credited):
                    nonlocal spawn_index
                    if spawn_index >= _credited:
                        _fresh.append(child)
                    spawn_index += 1

                frame_search = FrameSearch(
                    group.searcher, group.stats, group.found, group.size_heap, None, guard
                )
                reason = frame_search.run(
                    [(candidates, included, None)],
                    budget=task_budget,
                    offload=offload,
                    max_offload=max_offload,
                )
                for child in fresh:
                    pending.append((index, child, 0))
                if reason is not None:
                    if group.reason is None:
                        group.reason = reason
                    group.incomplete += len(frame_search.incomplete)
                    for other_index, _, _ in pending:
                        groups[other_index].incomplete += 1
                        if groups[other_index].reason is None:
                            groups[other_index].reason = reason
                    return

        with obs.span("enumerate"):
            if workers <= 1 or not tasks:
                degraded = "workers<=1" if workers <= 1 else "no parallel tasks"
                run_inline(tasks + inline_frames)
                report["tasks_completed"] = len(tasks)
            else:
                try:
                    shared = SharedCompiledGraph.create(
                        compiled, transport=transport, dir=spill_dir
                    )
                except SharedMemoryError as exc:
                    if strict:
                        raise
                    degraded = f"shared memory unavailable ({exc})"
                    shared = None
                if shared is None:
                    run_inline(tasks + inline_frames)
                    report["tasks_completed"] = len(tasks)
                else:
                    try:
                        scheduler = WorkStealingScheduler(
                            shared,
                            workers,
                            [group.params for group in groups],
                            selection,
                            maxtest,
                            seed,
                            task_budget=task_budget,
                            max_offload=max_offload,
                            deadline=deadline_ts,
                            max_memory_bytes=max_memory_bytes,
                            frame_retries=frame_retries,
                            max_respawns=max_respawns,
                            strict=strict,
                            drain_timeout=drain_timeout,
                            backend=backend,
                            model=model,
                        )
                        rows_by_group, metrics_by_group, leftover = scheduler.run_grouped(
                            tasks, local_work=lambda: run_inline(inline_frames)
                        )
                    finally:
                        shared.close()
                        shared.unlink()
                    for index, group in enumerate(groups):
                        for nodes, positive, negative in rows_by_group.get(index, []):
                            group.found[nodes] = SignedClique(
                                nodes=nodes,
                                params=group.params,
                                positive_edges=positive,
                                negative_edges=negative,
                            )
                        group.stats.merge_snapshot(metrics_by_group.get(index, {}))
                    report.update(scheduler.report)
                    if scheduler.report["interrupted"]:
                        reason = scheduler.report["interrupted_reason"]
                        for index, _, _ in leftover:
                            groups[index].incomplete += 1
                            if groups[index].reason is None:
                                groups[index].reason = reason
                    elif leftover:
                        if (
                            scheduler.report["spawn_failures"] > 0
                            and scheduler.report["workers_lost"] == 0
                        ):
                            degraded = "worker spawn failed"
                        else:
                            degraded = "worker pool collapsed"
                        finish_inline(leftover)

        report["degraded"] = degraded
        if degraded is not None:
            obs.journal_event("degraded", reason=degraded)

        elapsed = time.perf_counter() - started
        results: Dict[AlphaK, EnumerationResult] = {}
        with obs.span("merge"):
            for index, group in enumerate(groups):
                cliques = sort_cliques(group.found.values())
                group.stats.maximal_found = len(cliques)
                metrics = group.stats.registry.snapshot()
                obs.merge_metrics(metrics)
                results[group.params] = EnumerationResult(
                    cliques=cliques,
                    stats=group.stats,
                    elapsed_seconds=elapsed,
                    timed_out=group.reason == "deadline",
                    parallel=dict(report, grid_group=index, metrics=metrics),
                    interrupted=group.reason is not None,
                    interrupted_reason=group.reason,
                    incomplete_frames=group.incomplete,
                )
    return results
