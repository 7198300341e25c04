"""Fault-tolerant work-stealing scheduler for intra-component parallel MSCE.

The unit of work is a *frame*: a ``(candidates, included)`` bitmask
pair over a shared compiled graph — one node of MSCE's branch-and-bound
tree together with the whole subtree below it. The parent seeds the
pool with root frames (whole small-ish components, plus the
degeneracy-ordered root branches of giant components, see
:func:`repro.fastpath.search.decompose_root`); workers then keep the
pool warm themselves:

* every worker runs :meth:`repro.core.bbe.MSCE.run_frames` with a
  **node budget** — after ``task_budget`` processed frames it stops
  recursing into the deepest unexplored branches (the bottom of its
  DFS stack, which root the largest remaining subtrees) and sends them
  back as ``spawn`` messages;
* the parent re-enqueues spawned frames and assigns them to the
  least-loaded worker, so an idle worker steals exactly the big chunks
  a loaded worker sheds — adaptive re-splitting without any
  shared-state locking in the workers.

Graph data never rides on the queues: workers attach the
:class:`~repro.fastpath.shared.SharedCompiledGraph` block once per
process and every task is three integers. Because each frame is
processed exactly once somewhere with frame-deterministic semantics
(see :class:`~repro.fastpath.search.FrameSearch`), the merged clique
set and the summed :class:`~repro.core.bbe.SearchStats` are
bit-identical across worker counts, scheduling orders and repeated
runs.

Fault tolerance
---------------
Unlike a bare process pool, this scheduler assumes workers *will* die
and frames *will* misbehave on long production runs:

* **Ownership tracking + retry.** Tasks are assigned to a specific
  worker through a per-worker queue, so the parent always knows which
  frames are riding on which process. When a worker dies (nonzero exit,
  unexpected exit, or a ``fatal`` message), its outstanding frames are
  re-queued and the worker slot is respawned with a bumped *epoch*. A
  frame whose attempts exceed ``frame_retries`` is **quarantined** —
  reported in :attr:`quarantined`, never retried forever.
* **Exactly-once accounting under retry.** A worker streams its shed
  frames as ``spawn`` messages tagged with a per-task index, but its
  rows and stats ride only on the final ``done`` message — a crashed
  attempt therefore contributes *nothing*. Because the spawn sequence
  of a task is a pure function of the task (offload points depend only
  on processed-frame counts), a retry re-emits the same spawns in the
  same order; the parent credits each index once and drops replays, so
  no subtree is enqueued twice and no counter is double-summed. This is
  what keeps results bit-identical even under injected worker crashes.
* **Deadline / memory guards.** An absolute ``deadline``
  (``time.monotonic`` scale, shared by parent and workers) and a
  ``max_memory_bytes`` ceiling stop the run cooperatively: workers
  return partial ``interrupted`` results for in-flight tasks, the
  parent stops assigning, and :meth:`run_grouped` hands back the
  unfinished frames instead of raising.
* **Graceful degradation.** If the pool collapses entirely (spawn
  failures, repeated crashes past the respawn budget) the scheduler
  returns the unfinished frames — with their spawn credit, so the
  caller can finish them inline without re-running already-credited
  subtrees. ``strict=True`` turns that into
  :class:`~repro.exceptions.WorkerCrashError` instead.
* **Leak-proof shutdown.** Every path — exhaustion, interruption,
  collapse, ``KeyboardInterrupt`` — drains the result queue for rows
  healthy workers already completed, cancels the task queues' feeder
  joins (so a full queue cannot hang shutdown), joins or terminates
  every child, and closes all queues. A clean exit (every worker
  returned with code 0, none lost during the run) drains without
  waiting: a worker that returned normally has flushed its queue feeder
  into the pipe. Only after a lost, terminated or failed worker does
  the drain wait out the timed salvage window for rows still in
  flight. The shared graph segment itself is owned by the caller (plus
  a crash-path finalizer in
  :class:`~repro.fastpath.shared.SharedCompiledGraph`).

Completion accounting lives entirely in the parent: ``pending`` starts
at the number of seeded tasks, each credited ``spawn`` increments it,
each completed or quarantined task decrements it, and ``pending == 0``
means the tree is exhausted. Worker results stream back per task and
are merged in completion order, so clique construction in the parent
overlaps with straggler subtrees.
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.params import AlphaK
from repro.exceptions import WorkerCrashError
from repro.limits import make_guard
from repro.obs import runtime as obs
from repro.obs.metrics import MetricsRegistry
from repro.testing import faults

#: Frames processed by a worker before it sheds its deepest branches.
DEFAULT_TASK_BUDGET = 512

#: Maximum frames shed per budget overrun.
DEFAULT_MAX_OFFLOAD = 16

#: Failed attempts a frame survives before it is quarantined
#: (``frame_retries = 2`` means three attempts total).
DEFAULT_FRAME_RETRIES = 2

#: Tasks queued to one worker at a time (1 running + 1 prefetched keeps
#: the pipe full without hoarding stealable work).
DEFAULT_PREFETCH = 2

#: Seconds the graceful shutdown path spends draining the result queue
#: for rows healthy workers completed while a sibling failed. The window
#: only bounds the *salvage* sweep that runs when some worker was lost,
#: terminated or exited nonzero — a clean exit drains without waiting —
#: so it trades a small worst-case shutdown delay against losing
#: finished work; ``drain_timeout`` on :class:`WorkStealingScheduler`
#: overrides it per run.
RESULT_DRAIN_TIMEOUT = 0.5

#: A task on the wire: (candidates mask, included mask).
TaskFrame = Tuple[int, int]

#: A finished clique on the wire: (member nodes, positive, negative).
CliqueRow = Tuple[frozenset, int, int]

#: A grouped task: ``(group index, frame)`` — the group selects which
#: parameter setting (one entry of the scheduler's ``params`` sequence)
#: the frame is searched under. Grid runs interleave frames of many
#: (alpha, k) settings through one pool and one shared graph segment.
GroupedTask = Tuple[int, TaskFrame]

#: An unfinished frame handed back to the caller:
#: ``(group, frame, spawns_credited)`` — the credit count lets an inline
#: re-run skip the subtrees that were already shed as separate tasks.
GroupedLeftover = Tuple[int, TaskFrame, int]

# Task lifecycle states (parent-side bookkeeping).
_QUEUED, _ASSIGNED, _COMPLETED, _QUARANTINED = range(4)


def _make_context():
    """Prefer ``fork`` (cheap start, one resource tracker); fall back."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class _Task:
    """Parent-side record of one frame's journey through the pool."""

    __slots__ = (
        "task_id",
        "frame",
        "group",
        "attempts",
        "spawns_credited",
        "state",
        "assigned",
        "origin",
    )

    def __init__(
        self,
        task_id: int,
        frame: TaskFrame,
        origin: Optional[int] = None,
        group: int = 0,
    ):
        self.task_id = task_id
        self.frame = frame
        #: Index into the scheduler's parameter groups.
        self.group = group
        #: Failed attempts so far (crash or in-task exception).
        self.attempts = 0
        #: Spawn messages accepted for this task across all attempts.
        self.spawns_credited = 0
        self.state = _QUEUED
        #: ``(slot, epoch)`` currently holding the task, or ``None``.
        self.assigned: Optional[Tuple[int, int]] = None
        #: Slot that shed this frame (``None`` for parent-seeded tasks);
        #: assignment to any *other* slot is a steal, journalled as such.
        self.origin = origin


class _Worker:
    """One worker slot: a process, its private task queue, its cargo."""

    __slots__ = ("slot", "epoch", "process", "queue", "in_flight")

    def __init__(self, slot: int, epoch: int, process, queue):
        self.slot = slot
        self.epoch = epoch
        self.process = process
        self.queue = queue
        #: Tasks assigned to this incarnation, by task id.
        self.in_flight: Dict[int, _Task] = {}


def _worker_main(slot, epoch, task_queue, result_queue, shared_meta, config) -> None:
    """Worker loop: attach the shared graph once, then drain frames.

    *config* is ``(param_groups, selection, maxtest, seed, task_budget,
    max_offload, deadline, max_memory_bytes, backend, model, top_r)``
    where ``param_groups`` is
    a tuple of :class:`~repro.core.params.AlphaK` settings; each task
    names its group and the worker keeps one lazily-built
    :class:`~repro.core.bbe.MSCE` per group, all sharing the attached
    graph. ``top_r`` turns on the size-based subspace cutoff inside
    every task (``None`` for full enumeration). Each task is searched with
    :meth:`~repro.core.bbe.MSCE.run_frames`; branches shed by the
    node budget go back as indexed ``spawn`` messages *before* the
    task's terminal message, keeping the parent's pending count
    conservative. Terminal messages per task:

    * ``("done", slot, epoch, task_id, rows, stats)`` — exhausted;
    * ``("interrupted", slot, epoch, task_id, rows, stats, dropped,
      reason)`` — the deadline / memory guard tripped mid-task;
    * ``("task_error", slot, epoch, task_id, traceback)`` — the frame
      raised; the worker survives and moves to its next task.

    ``("fatal", slot, epoch, traceback)`` reports an unrecoverable
    worker-level failure (e.g. the shared graph cannot be attached).
    """
    from repro.core.bbe import MSCE
    from repro.fastpath.shared import SharedCompiledGraph

    (
        param_groups,
        selection,
        maxtest,
        seed,
        task_budget,
        max_offload,
        deadline,
        max_memory_bytes,
        backend,
        model,
        top_r,
    ) = config
    tick = faults.worker_tick(slot, epoch, result_queue)
    view = None
    searchers: Dict[int, MSCE] = {}
    try:
        view = SharedCompiledGraph.attach(shared_meta)
        # MSCE materialises the maxtest/emit source graph eagerly, so the
        # one-off reconstruction cost lands here, once per process; the
        # per-group searchers below all share this compiled view.
        compiled = view.graph
        # The parent ships the *resolved* backend and model names, so
        # every worker runs the same kernel tier and constraint no
        # matter what its own environment says (a worker missing numpy
        # still degrades safely).
        searchers[0] = MSCE(
            compiled,
            param_groups[0],
            selection=selection,
            reduction="none",  # the parent already reduced
            maxtest=maxtest,
            seed=seed,
            frame_rng=True,
            backend=backend,
            model=model,
        )
    except BaseException:
        result_queue.put(("fatal", slot, epoch, traceback.format_exc()))
        if view is not None:
            view.close()
        return
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            task_id, group, candidates, included = task
            searcher = searchers.get(group)
            if searcher is None:
                searcher = MSCE(
                    compiled,
                    param_groups[group],
                    selection=selection,
                    reduction="none",
                    maxtest=maxtest,
                    seed=seed,
                    frame_rng=True,
                    backend=backend,
                    model=model,
                )
                searchers[group] = searcher
            spawn_index = 0

            def offload(frame, _task_id=task_id):
                nonlocal spawn_index
                faults.message_delay()
                result_queue.put(("spawn", slot, epoch, _task_id, spawn_index, frame))
                spawn_index += 1

            try:
                faults.check_task(task_id)
                result = searcher.run_frames(
                    [(candidates, included)],
                    budget=task_budget,
                    offload=offload,
                    max_offload=max_offload,
                    deadline=deadline,
                    max_memory_bytes=max_memory_bytes,
                    tick=tick,
                    top_r=top_r,
                )
                rows: List[CliqueRow] = [
                    (clique.nodes, clique.positive_edges, clique.negative_edges)
                    for clique in result.cliques
                ]
                # The task's metrics ride only on its terminal message,
                # keyed by (slot, epoch): a crashed attempt contributes
                # nothing, so the parent's credit dedup gives exactly-once
                # aggregation. The per-task extras are deterministic too
                # (one tasks tick, one recursions observation per frame
                # task, regardless of which worker ran it).
                registry = result.stats.registry
                registry.counter("worker_tasks").inc()
                registry.histogram("task_recursions").observe(result.stats.recursions)
                metrics = registry.snapshot()
                faults.message_delay()
                if result.interrupted:
                    result_queue.put(
                        (
                            "interrupted",
                            slot,
                            epoch,
                            task_id,
                            rows,
                            metrics,
                            result.incomplete_frames,
                            result.interrupted_reason,
                        )
                    )
                else:
                    result_queue.put(("done", slot, epoch, task_id, rows, metrics))
            except Exception:
                # The frame failed but the worker is healthy: report and
                # keep draining — the parent decides retry vs quarantine.
                faults.message_delay()
                result_queue.put(("task_error", slot, epoch, task_id, traceback.format_exc()))
    except BaseException:
        result_queue.put(("fatal", slot, epoch, traceback.format_exc()))
    finally:
        view.close()


class WorkStealingScheduler:
    """Drive frame tasks over a self-healing pool of worker processes.

    Parameters
    ----------
    shared:
        The parent-owned :class:`~repro.fastpath.shared.SharedCompiledGraph`
        every worker attaches to (the parent keeps ownership; this class
        never unlinks it).
    workers:
        Number of worker slots in the pool.
    params, selection, maxtest, seed:
        The enumerator configuration, forwarded verbatim to each
        worker's :class:`~repro.core.bbe.MSCE`. ``params`` is a
        sequence of :class:`~repro.core.params.AlphaK` settings
        (*parameter groups*); tasks submitted through
        :meth:`run_grouped` name which setting each frame is searched
        under, letting one pool serve a whole (alpha, k) grid against
        one shared graph segment.
    task_budget, max_offload:
        Re-splitting knobs: frames processed before shedding, and how
        many bottom-of-stack frames one shed may move. Both only change
        scheduling granularity — never results or stats.
    deadline:
        Absolute ``time.monotonic`` timestamp after which the run stops
        cooperatively and unfinished frames are handed back.
    max_memory_bytes:
        Peak-RSS ceiling enforced in the parent *and* every worker.
    frame_retries:
        Failed attempts a frame survives before quarantine.
    max_respawns:
        Total worker respawns allowed across the run (default
        ``2 * workers``); past the budget, dead slots stay empty.
    prefetch:
        Tasks queued to one worker at a time.
    strict:
        When ``True``, a collapsed pool raises
        :class:`~repro.exceptions.WorkerCrashError` instead of
        returning the unfinished frames for inline completion.
    drain_timeout:
        Seconds the graceful shutdown drains the result queue for rows
        completed by healthy workers (see :data:`RESULT_DRAIN_TIMEOUT`).
    progress:
        Optional ``callback(completed, outstanding)`` invoked by the
        parent loop after every handled message — throttle it with a
        :class:`~repro.obs.progress.ProgressReporter`.
    backend:
        Kernel tier request; resolved once here (see
        :func:`repro.fastpath.backend.resolve_backend`) and shipped to
        every worker, so one run always uses one consistent tier.
    model:
        Signed-cohesion model request; resolved once here (see
        :func:`repro.models.resolve_model`) and shipped to every
        worker, so one run always applies one consistent constraint.
    top_r:
        Enable the top-r subspace cutoff inside every worker task.
        Per-task cutoffs are sound because each task's heap holds only
        sizes of genuine maximal cliques of its own group (its own
        emissions), so it under-estimates that group's r-th-largest
        size at every point.
    """

    def __init__(
        self,
        shared,
        workers: int,
        params: Sequence[AlphaK],
        selection: str,
        maxtest: str,
        seed: int,
        task_budget: int = DEFAULT_TASK_BUDGET,
        max_offload: int = DEFAULT_MAX_OFFLOAD,
        deadline: Optional[float] = None,
        max_memory_bytes: Optional[int] = None,
        frame_retries: int = DEFAULT_FRAME_RETRIES,
        max_respawns: Optional[int] = None,
        prefetch: int = DEFAULT_PREFETCH,
        strict: bool = False,
        drain_timeout: float = RESULT_DRAIN_TIMEOUT,
        progress: Optional[Callable[[int, int], None]] = None,
        backend: Optional[str] = None,
        model: Optional[str] = None,
        top_r: Optional[int] = None,
    ):
        self.shared = shared
        self.workers = max(1, workers)
        self.param_groups: Tuple[AlphaK, ...] = tuple(params)
        if not self.param_groups:
            raise ValueError("params must name at least one (alpha, k) setting")
        from repro.fastpath.backend import resolve_backend
        from repro.models import resolve_model

        #: Resolved kernel tier shipped to every worker, so parent and
        #: workers can never disagree on the tier mid-run.
        self.backend = resolve_backend(backend)
        #: Resolved model name shipped alongside, for the same reason.
        self.model = resolve_model(model)
        self.config = (
            self.param_groups,
            selection,
            maxtest,
            seed,
            task_budget,
            max_offload,
            deadline,
            max_memory_bytes,
            self.backend,
            self.model,
            top_r,
        )
        self.deadline = deadline
        self.max_memory_bytes = max_memory_bytes
        self.frame_retries = frame_retries
        self.max_respawns = 2 * self.workers if max_respawns is None else max_respawns
        self.prefetch = max(1, prefetch)
        self.strict = strict
        self.drain_timeout = drain_timeout
        self.progress = progress
        #: Filled by :meth:`run_grouped`: scheduling + fault-tolerance
        #: counters.
        self.report: Dict[str, int] = {}
        #: Filled by :meth:`run_grouped`: ``(task_id, frame, last_error)``
        #: per quarantined frame.
        self.quarantined: List[Tuple[int, TaskFrame, str]] = []
        #: Per-group worker metrics, merged snapshot by snapshot as
        #: terminal messages are accepted (exactly-once under retry).
        self.group_metrics: Dict[int, MetricsRegistry] = {
            group: MetricsRegistry() for group in range(len(self.param_groups))
        }
        #: Per-group subtrees workers abandoned inside interrupted tasks
        #: (the deadline / memory guard tripped mid-task).
        self.incomplete_by_group: Dict[int, int] = {
            group: 0 for group in range(len(self.param_groups))
        }

        # Run-state (created in run_grouped()).
        self._ctx = None
        self._result_queue = None
        self._records: Dict[int, _Task] = {}
        self._backlog: deque = deque()
        self._pool: Dict[int, _Worker] = {}
        self._retired_queues: List = []
        self._rows_by_group: Dict[int, List[CliqueRow]] = {
            group: [] for group in range(len(self.param_groups))
        }
        self._next_id = 0
        self._pending = 0
        self._completed = 0
        self._spawned = 0
        self._retries = 0
        self._respawns = 0
        self._workers_lost = 0
        self._spawn_failures: List[str] = []
        self._corrupt_messages = 0
        self._interrupted_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # Public entry point
    # ------------------------------------------------------------------
    def run_grouped(
        self,
        tasks: List[GroupedTask],
        local_work: Optional[Callable[[], None]] = None,
    ) -> Tuple[Dict[int, List[CliqueRow]], Dict[int, Dict[str, Dict]], List[GroupedLeftover]]:
        """Execute ``(group, frame)`` tasks; return per-group results.

        Frames of every parameter group ride the same backlog, pool and
        stealing policy, so a straggler component of one (alpha, k)
        setting overlaps with the whole rest of the grid. Returns
        ``(rows by group, metrics snapshot by group, leftovers)``.

        The metrics snapshots (see
        :meth:`repro.obs.metrics.MetricsRegistry.snapshot`) hold the
        summed ``msce_*`` search counters plus per-task scheduling
        metrics (``worker_tasks``, the ``task_recursions`` histogram).

        *local_work* (the parent's inline small-component sweep) runs
        after the workers are spawned and handed their first tasks (up
        to ``prefetch`` each) and before result pumping, so it overlaps
        with the workers' first tasks. The returned clique rows are
        duplicate-free by construction (frames partition the search
        tree; a retried frame's rows are counted exactly once).
        The leftovers list frames that did **not** finish — empty on a
        healthy exhaustive run, populated when a deadline / memory
        guard tripped or the pool collapsed. Each leftover carries its
        spawn credit so the caller can finish it inline without
        duplicating already-credited subtrees.
        """
        self._ctx = _make_context()
        self._result_queue = self._ctx.Queue()
        guard = make_guard(self.deadline, self.max_memory_bytes)
        for group, frame in tasks:
            if not 0 <= group < len(self.param_groups):
                raise ValueError(
                    f"task group {group} out of range for "
                    f"{len(self.param_groups)} parameter groups"
                )
            record = _Task(self._next_id, (frame[0], frame[1]), group=group)
            self._records[record.task_id] = record
            self._backlog.append(record)
            self._next_id += 1
        self._pending = len(tasks)

        try:
            if guard is not None and guard.check() is not None:
                # Dead on arrival (e.g. time_limit=0): never spawn.
                self._interrupted_reason = guard.tripped
                if local_work is not None:
                    local_work()
            else:
                for slot in range(self.workers):
                    self._try_spawn(slot, 0)
                # Seed the pool before the inline sweep, so the workers
                # search while the parent does.
                self._assign()
                if local_work is not None:
                    local_work()
                self._pump(guard)
            self._shutdown(graceful=True)
        except BaseException:
            # KeyboardInterrupt or an unexpected parent-side failure:
            # kill the children immediately, never hang on a queue, and
            # let the caller's finally unlink the shared segment.
            self._shutdown(graceful=False)
            raise

        leftover: List[GroupedLeftover] = [
            (record.group, record.frame, record.spawns_credited)
            for record in self._records.values()
            if record.state in (_QUEUED, _ASSIGNED)
        ]
        self.report = {
            "workers": self.workers,
            "parameter_groups": len(self.param_groups),
            "tasks_seeded": len(tasks),
            "tasks_completed": self._completed,
            "frames_resplit": self._spawned,
            "shared_graph_bytes": self.shared.nbytes,
            "interrupted": self._interrupted_reason is not None,
            "interrupted_reason": self._interrupted_reason,
            "incomplete_frames": len(leftover) + sum(self.incomplete_by_group.values()),
            "retries": self._retries,
            "respawns": self._respawns,
            "workers_lost": self._workers_lost,
            "quarantined_frames": len(self.quarantined),
            "spawn_failures": len(self._spawn_failures),
            "corrupt_messages": self._corrupt_messages,
        }
        if self.strict and leftover and self._interrupted_reason is None:
            raise WorkerCrashError(
                f"worker pool collapsed with {len(leftover)} unfinished frames "
                f"({self._workers_lost} workers lost, "
                f"{len(self._spawn_failures)} spawn failures)"
            )
        return (
            self._rows_by_group,
            {
                group: registry.snapshot()
                for group, registry in self.group_metrics.items()
            },
            leftover,
        )

    # ------------------------------------------------------------------
    # Parent loop
    # ------------------------------------------------------------------
    def _pump(self, guard) -> None:
        """Assign, receive and merge until exhaustion or interruption."""
        messages = 0
        while self._pending > 0:
            if guard is not None:
                reason = guard.check()
                if reason is not None:
                    self._interrupted_reason = reason
                    return
            if not self._pool:
                return  # collapsed: survivors become leftovers
            self._assign()
            try:
                message = self._result_queue.get(timeout=0.2)
            except queue_module.Empty:
                self._reap_dead()
                if not self._pool and not self._backlog:
                    return
                continue
            except (EOFError, OSError):  # pragma: no cover - torn message
                self._corrupt_messages += 1
                self._reap_dead()
                continue
            self._handle(message)
            messages += 1
            if self.progress is not None:
                self.progress(self._completed, self._pending)
            faults.parent_message_tick(messages)

    def _assign(self) -> None:
        """Feed queued tasks to the least-loaded live workers."""
        while self._backlog and self._pool:
            record = self._backlog[0]
            if record.state != _QUEUED:
                self._backlog.popleft()  # completed by a stale message
                continue
            worker = min(
                self._pool.values(), key=lambda w: (len(w.in_flight), w.slot)
            )
            if len(worker.in_flight) >= self.prefetch:
                return
            self._backlog.popleft()
            record.state = _ASSIGNED
            record.assigned = (worker.slot, worker.epoch)
            worker.in_flight[record.task_id] = record
            if record.origin is not None and record.origin != worker.slot:
                obs.journal_event(
                    "frame_steal",
                    task=record.task_id,
                    origin=record.origin,
                    slot=worker.slot,
                )
            worker.queue.put(
                (record.task_id, record.group, record.frame[0], record.frame[1])
            )

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "spawn":
            _, slot, epoch, task_id, index, frame = message
            parent = self._records.get(task_id)
            if parent is None:
                return
            if index < parent.spawns_credited:
                return  # deterministic replay by a retried attempt
            parent.spawns_credited = index + 1
            # A shed branch is a subtree of its parent's frame, so it is
            # searched under the same parameter group.
            child = _Task(
                self._next_id, (frame[0], frame[1]), origin=slot, group=parent.group
            )
            self._next_id += 1
            self._records[child.task_id] = child
            self._backlog.append(child)
            self._pending += 1
            self._spawned += 1
            obs.journal_event(
                "frame_spawn", task=child.task_id, parent=task_id, slot=slot
            )
        elif kind in ("done", "interrupted"):
            task_id, rows, metrics = message[3], message[4], message[5]
            record = self._records.get(task_id)
            if record is None or record.state in (_COMPLETED, _QUARANTINED):
                return  # duplicate terminal message from a stale attempt
            self._release(record)
            record.state = _COMPLETED
            self._pending -= 1
            self._completed += 1
            self._rows_by_group[record.group].extend(rows)
            self.group_metrics[record.group].merge_snapshot(metrics)
            if kind == "interrupted":
                self.incomplete_by_group[record.group] += message[6]
                if self._interrupted_reason is None:
                    self._interrupted_reason = message[7]
        elif kind == "task_error":
            _, slot, epoch, task_id, tb = message
            record = self._records.get(task_id)
            if (
                record is None
                or record.state != _ASSIGNED
                or record.assigned != (slot, epoch)
            ):
                return  # stale report from a superseded attempt
            self._release(record)
            self._retry_or_quarantine(record, tb)
        elif kind == "fatal":
            _, slot, epoch, tb = message
            worker = self._pool.get(slot)
            if worker is not None and worker.epoch == epoch:
                self._fail_worker(worker, f"worker reported fatal error:\n{tb}")
        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unknown worker message kind {kind!r}")

    def _release(self, record: _Task) -> None:
        """Detach *record* from whichever worker currently holds it."""
        if record.assigned is None:
            return
        worker = self._pool.get(record.assigned[0])
        if worker is not None:
            worker.in_flight.pop(record.task_id, None)
        record.assigned = None

    def _retry_or_quarantine(self, record: _Task, why: str) -> None:
        record.attempts += 1
        if record.attempts > self.frame_retries:
            record.state = _QUARANTINED
            self._pending -= 1
            last_line = why.strip().splitlines()[-1] if why.strip() else "unknown"
            self.quarantined.append((record.task_id, record.frame, last_line))
            obs.journal_event(
                "frame_quarantine",
                task=record.task_id,
                attempts=record.attempts,
                why=last_line,
            )
        else:
            record.state = _QUEUED
            self._backlog.appendleft(record)
            self._retries += 1
            obs.journal_event(
                "frame_retry", task=record.task_id, attempts=record.attempts
            )

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _try_spawn(self, slot: int, epoch: int) -> bool:
        queue = None
        try:
            faults.check_worker_spawn(slot, epoch)
            queue = self._ctx.Queue()
            process = self._ctx.Process(
                target=_worker_main,
                args=(slot, epoch, queue, self._result_queue, self.shared.meta, self.config),
                daemon=True,
            )
            process.start()
        except (OSError, faults.InjectedFault) as exc:
            self._spawn_failures.append(f"slot {slot} epoch {epoch}: {exc}")
            obs.journal_event(
                "worker_spawn_failed", slot=slot, epoch=epoch, why=str(exc)
            )
            if queue is not None:
                self._retired_queues.append(queue)
            return False
        self._pool[slot] = _Worker(slot, epoch, process, queue)
        obs.journal_event("worker_spawn", slot=slot, epoch=epoch, pid=process.pid)
        return True

    def _reap_dead(self) -> None:
        """Detect crashed workers; requeue their cargo and respawn."""
        for worker in list(self._pool.values()):
            code = worker.process.exitcode
            if code is not None:
                # Any exit during the run loop is abnormal — sentinels
                # are only sent at shutdown.
                self._fail_worker(worker, f"worker died with exit code {code}")

    def _fail_worker(self, worker: _Worker, why: str) -> None:
        self._pool.pop(worker.slot, None)
        self._workers_lost += 1
        obs.journal_event(
            "worker_lost",
            slot=worker.slot,
            epoch=worker.epoch,
            in_flight=len(worker.in_flight),
            why=why.strip().splitlines()[0] if why.strip() else "unknown",
        )
        # Credit whatever the dead worker managed to flush before dying
        # (completed rows, shed frames) before deciding what to retry.
        self._drain_available()
        for record in list(worker.in_flight.values()):
            if record.state == _ASSIGNED:
                record.assigned = None
                self._retry_or_quarantine(record, why)
        worker.in_flight.clear()
        self._retired_queues.append(worker.queue)
        if not worker.process.is_alive():
            worker.process.join(timeout=0.5)
        if self._respawns < self.max_respawns:
            self._respawns += 1
            if self._try_spawn(worker.slot, worker.epoch + 1):
                obs.journal_event(
                    "worker_respawn", slot=worker.slot, epoch=worker.epoch + 1
                )

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def _drain_available(self) -> None:
        """Apply every message already readable, without blocking."""
        while True:
            try:
                message = self._result_queue.get_nowait()
            except queue_module.Empty:
                return
            except (EOFError, OSError):  # pragma: no cover - torn message
                self._corrupt_messages += 1
                return
            try:
                self._handle(message)
            except Exception:  # pragma: no cover - defensive
                self._corrupt_messages += 1

    def _shutdown(self, graceful: bool) -> None:
        """Stop the pool; never hang, never silently drop finished rows.

        The graceful path sends sentinels and joins briefly. If every
        worker then exited with code 0 and none was lost during the run,
        it drains what is already readable without waiting. Otherwise it
        drains for up to ``drain_timeout`` seconds, so rows completed by
        healthy workers while another one failed are still merged. The
        emergency path (unexpected parent exception,
        ``KeyboardInterrupt``) terminates children immediately. Both
        paths ``cancel_join_thread()`` every task queue — the parent is
        their only writer, and a full queue must not block interpreter
        exit — and close all queues.
        """
        workers = list(self._pool.values())
        self._pool.clear()
        if graceful:
            for worker in workers:
                try:
                    worker.queue.put(None)
                except Exception:  # pragma: no cover - feeder already dead
                    pass
            for worker in workers:
                worker.process.join(timeout=2.0)
            for worker in workers:
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=1.0)
            if self._workers_lost == 0 and all(
                worker.process.exitcode == 0 for worker in workers
            ):
                # Every worker returned normally, and a normal exit joins
                # the result queue's feeder thread, so every message the
                # pool sent is already readable.
                self._drain_available()
            else:
                # Salvage completed rows that were still in flight (a
                # crashed sibling must not cost a healthy worker its
                # finished tasks).
                deadline = time.monotonic() + self.drain_timeout
                while time.monotonic() < deadline:
                    try:
                        message = self._result_queue.get(timeout=0.05)
                    except queue_module.Empty:
                        break
                    except (EOFError, OSError):  # pragma: no cover
                        self._corrupt_messages += 1
                        break
                    try:
                        self._handle(message)
                    except Exception:  # pragma: no cover - defensive
                        self._corrupt_messages += 1
        else:
            for worker in workers:
                worker.process.terminate()
            for worker in workers:
                worker.process.join(timeout=1.0)
        for queue in [worker.queue for worker in workers] + self._retired_queues:
            queue.cancel_join_thread()
            queue.close()
        self._retired_queues = []
        if self._result_queue is not None:
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
