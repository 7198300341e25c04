"""Parent-led work-stealing scheduler for intra-component parallel MSCE.

The unit of work is a *frame*: a ``(candidates, included)`` bitmask
pair over the compiled graph — one node of MSCE's branch-and-bound
tree together with the whole subtree below it. The caller seeds a
backlog with root frames (whole medium components, plus the
degeneracy-ordered root branches of giant components, see
:func:`repro.fastpath.search.decompose_root`) and is itself worker 0
of the pool:

* the parent pops queued frames and searches them itself, through one
  :class:`~repro.fastpath.search.FrameSearch` per parameter group that
  writes straight into that group's :class:`SearchGroup` accumulators;
* every task runs under a **node budget** — after ``task_budget``
  processed frames it sheds its deepest unexplored branches (the
  bottom of its DFS stack, which root the largest remaining subtrees)
  back to the backlog as credited *spawns*;
* once the parent has searched :data:`HELPER_START_BUDGETS` task
  budgets of frames and work is still queued, it forks ``workers - 1``
  helper processes. They inherit the compiled graph and the groups'
  :class:`~repro.core.bbe.MSCE` objects (masks already built) through
  ``fork``, so a task on the wire is four integers. Each helper holds
  one task at a time and streams its shed frames back as ``spawn``
  messages;
* between tasks, and at every budget boundary inside one, the parent
  merges helper messages without blocking and feeds idle helpers. It
  blocks on the result queue only when it has nothing queued, and
  searches the components too small to ship (*local* frames) while
  the helpers finish.

A search that stays below the threshold never starts a process, and
``workers=1`` is the same loop with no helpers. Because each frame is
processed exactly once somewhere with frame-deterministic semantics
(see :class:`~repro.fastpath.search.FrameSearch`), the merged clique
set and the summed :class:`~repro.core.bbe.SearchStats` are
bit-identical across worker counts, scheduling orders and repeated
runs.

Fault tolerance
---------------
Unlike a bare process pool, this scheduler assumes helpers *will* die
and frames *will* misbehave on long production runs:

* **Ownership tracking + retry.** Tasks are assigned to a specific
  helper through a per-helper queue, so the parent always knows which
  frames are riding on which process. When a helper dies (nonzero exit,
  unexpected exit, or a ``fatal`` message), its outstanding frames go
  back to the backlog, and the parent or a surviving helper re-runs
  them. That is the only recovery rule: a lost helper is not replaced,
  so a slot names one process for the whole run. A frame whose failed
  attempts exceed :data:`FRAME_RETRIES` is **quarantined** — reported
  in :attr:`quarantined`, never retried forever. Parent-run tasks that
  raise take the same retry / quarantine path, unless the scheduler was
  built with ``quarantine=False`` (a plain sequential ``MSCE`` run),
  which re-raises them.
* **Exactly-once accounting under retry.** A helper streams its shed
  frames as ``spawn`` messages tagged with a per-task index, but its
  rows and stats ride only on the final ``done`` message — a crashed
  attempt therefore contributes *nothing*. Because the spawn sequence
  of a task is a pure function of the task (offload points depend only
  on processed-frame counts), a retry re-emits the same spawns in the
  same order, whether a helper or the parent re-runs it; the parent
  credits each index once and drops replays, so no subtree is enqueued
  twice and no counter is double-summed. This is what keeps results
  bit-identical even under injected helper crashes.
* **Deadline / memory guards.** An absolute ``deadline``
  (``time.monotonic`` scale, shared by parent and helpers) and a
  ``max_memory_bytes`` ceiling stop the run cooperatively: helpers
  return partial ``interrupted`` results for in-flight tasks, the
  parent stops searching and assigning, and the unfinished frames are
  counted against their groups instead of raising.
* **Graceful degradation.** If the pool collapses (the helpers failed
  to start, or every helper was lost) the parent keeps draining the
  backlog itself — same frames, same answers — and the report's
  ``degraded`` names why.
* **Leak-proof shutdown.** Every path — exhaustion, interruption,
  collapse, ``KeyboardInterrupt`` — drains the result queue for rows
  healthy helpers already completed, cancels the task queues' feeder
  joins (so a full queue cannot hang shutdown), joins or terminates
  every child, and closes all queues. A clean exit (every helper
  returned with code 0, none lost during the run) drains without
  waiting: a helper that returned normally has flushed its queue feeder
  into the pipe. Only after a lost, terminated or failed helper does
  the drain wait out the timed salvage window for rows still in
  flight.

Completion accounting lives entirely in the parent: ``pending`` starts
at the number of seeded tasks, each credited spawn increments it, each
completed or quarantined task decrements it, and ``pending == 0``
means the tree is exhausted.
"""

from __future__ import annotations

import queue as queue_module
import time
import traceback
from collections import deque
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.bbe import SearchStats, _StopSearch
from repro.core.cliques import SignedClique
from repro.fastpath.search import FrameSearch
from repro.limits import make_guard
from repro.obs import runtime as obs
from repro.testing import faults

#: Frames processed by a task before it sheds its deepest branches.
DEFAULT_TASK_BUDGET = 512

#: Failed attempts a frame survives before it is quarantined (three
#: attempts in total).
FRAME_RETRIES = 2

#: Task budgets of frames the parent searches alone before it forks
#: helpers (8 x 512 = 4,096 frames at the default budget). Two
#: processes give about 1.2x on a 2-vCPU host, so helpers only pay on
#: searches well above the fixed cost of starting them.
HELPER_START_BUDGETS = 8

#: Seconds the graceful shutdown path spends draining the result queue
#: for rows healthy helpers completed while a sibling failed. The window
#: only bounds the *salvage* sweep that runs when some helper was lost,
#: terminated or exited nonzero — a clean exit drains without waiting —
#: so it trades a small worst-case shutdown delay against losing
#: finished work.
RESULT_DRAIN_TIMEOUT = 0.5

#: Slot of the parent in task records and journal events; helper slots
#: are ``0 .. workers - 2``.
PARENT_SLOT = -1

#: A task on the wire: (candidates mask, included mask).
TaskFrame = Tuple[int, int]

#: A finished clique on the wire: (member nodes, positive, negative).
CliqueRow = Tuple[frozenset, int, int]

#: A grouped task: ``(group index, frame)`` — the group selects which
#: :class:`SearchGroup` (one (alpha, k) setting) the frame is searched
#: under. Grid runs interleave frames of many settings through one pool.
GroupedTask = Tuple[int, TaskFrame]

# Task lifecycle states (parent-side bookkeeping).
_QUEUED, _ASSIGNED, _COMPLETED, _QUARANTINED = range(4)


def _require_positive_int(name: str, value) -> int:
    """Reject bools, non-ints and values below 1 with a clear message."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{name} must be a positive integer, got {value!r} ({type(value).__name__})"
        )
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _fork_context():
    """The ``fork`` start method, or ``None`` where the platform lacks it."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


class SearchGroup:
    """Per-(alpha, k) search state that one scheduler run writes into.

    ``searcher`` is the group's configured :class:`~repro.core.bbe.MSCE`
    and ``compiled`` the graph its frames index (the searcher's own
    compilation unless given; helpers inherit both through ``fork``).
    ``stats``, ``found`` and ``size_heap`` accumulate every frame
    searched for the group, by the parent or by a helper; ``reason`` /
    ``incomplete`` record a resource-guard interruption.
    """

    __slots__ = (
        "params",
        "searcher",
        "compiled",
        "stats",
        "found",
        "size_heap",
        "reason",
        "incomplete",
    )

    def __init__(self, searcher, compiled=None):
        self.params = searcher.params
        self.searcher = searcher
        self.compiled = searcher.compiled if compiled is None else compiled
        self.stats = SearchStats()
        self.stats.model = searcher.model
        self.found: Dict[FrozenSet, SignedClique] = {}
        self.size_heap: List[int] = []
        self.reason: Optional[str] = None
        self.incomplete = 0

    def search(self, top_r: Optional[int], guard, tick=None) -> FrameSearch:
        """A frame processor writing into this group's accumulators."""
        return FrameSearch(
            self.searcher,
            self.stats,
            self.found,
            self.size_heap,
            top_r,
            guard,
            tick=tick,
            compiled=self.compiled,
        )

    def interrupt(self, reason: str, frames: int) -> None:
        """Record *frames* abandoned subtrees; the first reason sticks."""
        if self.reason is None:
            self.reason = reason
        self.incomplete += frames


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

    def __init__(self, task_id: int, frame: TaskFrame, origin: Optional[int], group: int):
        self.task_id = task_id
        self.frame = frame
        #: Index into the scheduler's groups.
        self.group = group
        #: Failed attempts so far (crash or in-task exception).
        self.attempts = 0
        #: Spawns accepted for this task across all attempts.
        self.spawns_credited = 0
        self.state = _QUEUED
        #: Slot currently holding the task (:data:`PARENT_SLOT` for the
        #: parent), or ``None``.
        self.assigned: Optional[int] = None
        #: Slot that shed this frame (``None`` for seeded tasks);
        #: assignment to any *other* slot is a steal, journalled as such.
        self.origin = origin


class _Worker:
    """One helper slot: a process, its private task queue, its cargo."""

    __slots__ = ("slot", "process", "queue", "in_flight")

    def __init__(self, slot: int, process, queue):
        self.slot = slot
        self.process = process
        self.queue = queue
        #: Tasks assigned to this helper, by task id.
        self.in_flight: Dict[int, _Task] = {}


class WorkStealingScheduler:
    """Search frame tasks in the parent, with helpers forked on demand.

    Parameters
    ----------
    groups:
        One :class:`SearchGroup` per (alpha, k) setting. Tasks submitted
        through :meth:`run_grouped` name the group each frame is
        searched under; cliques and counters land in the group.
    workers:
        Processes in the pool, the parent included: at most
        ``workers - 1`` helpers are forked.
    task_budget:
        Frames a task processes before it sheds up to
        :data:`~repro.fastpath.search.MAX_OFFLOAD` bottom-of-stack
        frames. It only changes scheduling granularity — never results
        or stats — and also sets the helper threshold,
        ``HELPER_START_BUDGETS * task_budget`` parent-searched frames.
    deadline:
        Absolute ``time.monotonic`` timestamp after which the run stops
        cooperatively and unfinished frames are counted as incomplete.
    max_memory_bytes:
        Peak-RSS ceiling enforced in the parent *and* every helper.
    progress:
        Optional ``callback(completed, outstanding)`` invoked after
        every parent-run task and every handled helper message —
        throttle it with a :class:`~repro.obs.progress.ProgressReporter`.
    top_r:
        Enable the top-r subspace cutoff inside every task. Cutoffs are
        sound because each heap holds only sizes of genuine maximal
        cliques of its own group, so it under-estimates that group's
        r-th-largest size at every point.
    quarantine:
        Retry, then quarantine, a parent-run task that raises. ``False``
        re-raises it instead, so a plain sequential ``MSCE`` run
        propagates an audit failure, an invariant violation or a bug
        as any library call does, rather than returning the surviving
        cliques as a complete answer.
    """

    def __init__(
        self,
        groups: Sequence[SearchGroup],
        workers: int,
        task_budget: int = DEFAULT_TASK_BUDGET,
        deadline: Optional[float] = None,
        max_memory_bytes: Optional[int] = None,
        progress: Optional[Callable[[int, int], None]] = None,
        top_r: Optional[int] = None,
        quarantine: bool = True,
    ):
        self.groups: Tuple[SearchGroup, ...] = tuple(groups)
        if not self.groups:
            raise ValueError("groups must name at least one (alpha, k) setting")
        self.workers = _require_positive_int("workers", workers)
        self.task_budget = _require_positive_int("task_budget", task_budget)
        self.helper_threshold = HELPER_START_BUDGETS * task_budget
        self.deadline = deadline
        self.max_memory_bytes = max_memory_bytes
        self.progress = progress
        self.top_r = top_r
        self.quarantine = quarantine
        #: Filled by :meth:`run_grouped`: scheduling + fault-tolerance
        #: counters.
        self.report: Dict[str, object] = {}
        #: Filled by :meth:`run_grouped`: ``(task_id, frame, last_error)``
        #: per quarantined frame.
        self.quarantined: List[Tuple[int, TaskFrame, str]] = []

        #: ``None`` when no helper can ever start; tasks then run
        #: unbudgeted, since nothing could steal what they shed.
        self._ctx = _fork_context() if self.workers > 1 else None
        # Run-state (created in run_grouped()).
        self._guard = None
        self._searches: Dict[int, FrameSearch] = {}
        self._result_queue = None
        self._records: Dict[int, _Task] = {}
        self._backlog: deque = deque()
        self._pool: Dict[int, _Worker] = {}
        self._retired_queues: List = []
        self._next_id = 0
        self._pending = 0
        self._completed = 0
        self._spawned = 0
        self._messages = 0
        self._parent_frames = 0
        #: ``(recursions counter, value at task start)`` of the parent's
        #: running task, so the helper threshold sees its live progress.
        self._running: Optional[Tuple[object, int]] = None
        self._helpers = 0
        self._helpers_started_after: Optional[int] = None
        self._collapsed = False
        self._retries = 0
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
        local: Sequence[GroupedTask] = (),
    ) -> None:
        """Search ``(group, frame)`` tasks and *local* frames to exhaustion.

        Frames of every group ride the same backlog, pool and stealing
        policy, so a straggler component of one (alpha, k) setting
        overlaps with the whole rest of the grid. Cliques and counters
        land in each :class:`SearchGroup`; scheduling counters in
        :attr:`report`. *local* frames (components too small to ship)
        are searched by the parent alone, in one unbudgeted sweep per
        group, once it has nothing queued.

        A tripped deadline / memory guard stops the run; every frame
        nobody finished is then counted against its group
        (:meth:`SearchGroup.interrupt`) instead of raising.
        """
        self._guard = make_guard(self.deadline, self.max_memory_bytes)
        for group, frame in tasks:
            if not 0 <= group < len(self.groups):
                raise ValueError(
                    f"task group {group} out of range for {len(self.groups)} groups"
                )
            self._enqueue(frame, None, group)
        self._pending = len(tasks)
        try:
            self._loop(local)
            if self._result_queue is not None:
                self._shutdown(graceful=True)
        except BaseException:
            # KeyboardInterrupt or an unexpected parent-side failure:
            # kill the children immediately and never hang on a queue.
            if self._result_queue is not None:
                self._shutdown(graceful=False)
            raise
        unfinished = [
            record for record in self._records.values() if record.state in (_QUEUED, _ASSIGNED)
        ]
        for record in unfinished:
            self.groups[record.group].interrupt(self._interrupted_reason, 1)
        self.report = {
            "workers": self.workers,
            "helpers": self._helpers,
            "helpers_started_after": self._helpers_started_after,
            "parameter_groups": len(self.groups),
            "tasks_seeded": len(tasks),
            "tasks_completed": self._completed,
            "frames_resplit": self._spawned,
            "interrupted": self._interrupted_reason is not None,
            "interrupted_reason": self._interrupted_reason,
            "incomplete_frames": sum(group.incomplete for group in self.groups),
            "retries": self._retries,
            "workers_lost": self._workers_lost,
            "quarantined_frames": len(self.quarantined),
            "spawn_failures": len(self._spawn_failures),
            "corrupt_messages": self._corrupt_messages,
            "degraded": self._degraded(),
        }

    def _degraded(self) -> Optional[str]:
        """Why the run had fewer processes than asked for, or ``None``."""
        if self.workers <= 1:
            return "workers<=1"
        if self._ctx is None:
            return "fork unavailable"
        if not self._collapsed:
            return None
        if self._spawn_failures and self._workers_lost == 0:
            return "worker spawn failed"
        return "worker pool collapsed"

    # ------------------------------------------------------------------
    # Parent loop
    # ------------------------------------------------------------------
    def _loop(self, local: Sequence[GroupedTask]) -> None:
        """Search, feed and merge until exhaustion or interruption.

        The *local* sweep runs the first time the parent has nothing
        queued while helpers still work, else after the loop.
        """
        guard = self._guard
        while self._pending > 0:
            if guard is not None:
                reason = guard.check()
                if reason is not None:
                    self._interrupted_reason = self._interrupted_reason or reason
                    break
            self._service()
            record = self._next_queued()
            if record is not None:
                self._run_here(record)
                self._report_progress()
            elif local:
                self._sweep(local)
                local = ()
            elif self._pool:
                self._receive(block=True)
            else:
                break  # pragma: no cover - every pending record is queued or held
        self._sweep(local)

    def _service(self) -> None:
        """Merge helper messages, reap dead helpers, feed idle ones.

        Never blocks. Before the helpers exist it only checks the
        threshold: the parent has searched ``helper_threshold`` frames
        and work is still queued.
        """
        if (
            self._result_queue is None
            and self._ctx is not None
            and self._backlog
            and self._frames_searched() >= self.helper_threshold
        ):
            self._start_helpers()
        if self._result_queue is not None:
            while self._receive(block=False):
                pass
            self._reap_dead()
            if not self._pool and self._pending > 0:
                self._collapsed = True
        self._assign()

    def _frames_searched(self) -> int:
        """Frames the parent has searched, its running task included."""
        if self._running is None:
            return self._parent_frames
        counter, start = self._running
        return self._parent_frames + counter.value - start

    def _next_queued(self) -> Optional[_Task]:
        while self._backlog:
            record = self._backlog.popleft()
            if record.state == _QUEUED:
                return record
        return None

    def _search(self, group: int) -> FrameSearch:
        """The parent's frame processor for *group* (built once per run)."""
        search = self._searches.get(group)
        if search is None:
            search = self.groups[group].search(self.top_r, self._guard)
            self._searches[group] = search
        return search

    def _run_here(self, record: _Task) -> None:
        """Search one queued task in the parent, as worker 0.

        Runs under the node budget whenever helpers can exist, shedding
        through the same credited spawn path as a helper's messages — a
        retried task drops its first ``spawns_credited`` spawns — and
        servicing the pool at every budget boundary. With no helper
        possible it runs unbudgeted.
        """
        group = self.groups[record.group]
        search = self._search(record.group)
        record.state = _ASSIGNED
        record.assigned = PARENT_SLOT
        recursions = group.stats.counter("recursions")
        start = recursions.value
        self._running = (recursions, start)
        spawn_index = 0
        serviced_at = start

        def offload(frame):
            nonlocal spawn_index, serviced_at
            self._credit_spawn(record, spawn_index, frame, PARENT_SLOT)
            spawn_index += 1
            if recursions.value != serviced_at:  # once per budget boundary
                serviced_at = recursions.value
                self._service()

        if self.top_r is not None and record.spawns_credited:
            # A replay must shed what the first attempt shed, which ran
            # against a per-task heap, as helpers do.
            search.size_heap = []
        try:
            faults.check_task(record.task_id)
            if self._ctx is None:
                reason = search.run([(record.frame[0], record.frame[1], None)])
            else:
                reason = search.run(
                    [(record.frame[0], record.frame[1], None)],
                    budget=self.task_budget,
                    offload=offload,
                )
        except _StopSearch:
            raise  # a max_results cap ends the run; it is no task failure
        except Exception:
            if not self.quarantine:
                raise
            record.assigned = None
            # Frames already searched stay counted, so only a task that
            # failed before its first frame can be retried exactly.
            self._retry_or_quarantine(
                record, traceback.format_exc(), retry=recursions.value == start
            )
            return
        finally:
            search.size_heap = group.size_heap
            self._parent_frames += recursions.value - start
            self._running = None
        record.assigned = None
        record.state = _COMPLETED
        self._pending -= 1
        self._completed += 1
        registry = group.stats.registry
        registry.counter("worker_tasks").inc()
        registry.histogram("task_recursions").observe(recursions.value - start)
        if reason is not None:
            group.interrupt(reason, len(search.incomplete))
            search.incomplete.clear()
            self._interrupted_reason = self._interrupted_reason or reason

    def _sweep(self, local: Sequence[GroupedTask]) -> None:
        """Search the *local* frames, one unbudgeted run per group."""
        by_group: Dict[int, List[TaskFrame]] = {}
        for group, frame in local:
            by_group.setdefault(group, []).append(frame)
        for group, frames in by_group.items():
            search = self._search(group)
            recursions = self.groups[group].stats.counter("recursions")
            start = recursions.value
            reason = search.run(
                [(candidates, included, None) for candidates, included in frames]
            )
            self._parent_frames += recursions.value - start
            if reason is not None:
                self.groups[group].interrupt(reason, len(search.incomplete))
                search.incomplete.clear()

    def _report_progress(self) -> None:
        if self.progress is not None:
            self.progress(self._completed, self._pending)

    def _enqueue(self, frame: TaskFrame, origin: Optional[int], group: int) -> _Task:
        record = _Task(self._next_id, (frame[0], frame[1]), origin, group)
        self._next_id += 1
        self._records[record.task_id] = record
        self._backlog.append(record)
        return record

    def _credit_spawn(self, parent: _Task, index: int, frame: TaskFrame, slot: int) -> None:
        """Enqueue spawn *index* of *parent* unless an earlier attempt did."""
        if index < parent.spawns_credited:
            return  # deterministic replay by a retried attempt
        parent.spawns_credited = index + 1
        # A shed branch is a subtree of its parent's frame, so it is
        # searched under the same group.
        child = self._enqueue(frame, slot, parent.group)
        self._pending += 1
        self._spawned += 1
        obs.journal_event("frame_spawn", task=child.task_id, parent=parent.task_id, slot=slot)

    def _assign(self) -> None:
        """Hand the next queued task to every idle helper (prefetch 1)."""
        for worker in self._pool.values():
            if worker.in_flight:
                continue
            record = self._next_queued()
            if record is None:
                return
            record.state = _ASSIGNED
            record.assigned = worker.slot
            worker.in_flight[record.task_id] = record
            if record.origin is not None and record.origin != worker.slot:
                obs.journal_event(
                    "frame_steal",
                    task=record.task_id,
                    origin=record.origin,
                    slot=worker.slot,
                )
            worker.queue.put((record.task_id, record.group, record.frame[0], record.frame[1]))

    def _receive(self, block: bool) -> bool:
        """Handle one helper message; ``False`` when none arrived.

        *block* waits up to 0.2 s, then checks for dead helpers.
        """
        try:
            message = self._result_queue.get(timeout=0.2) if block else self._result_queue.get_nowait()
        except queue_module.Empty:
            if block:
                self._reap_dead()
            return False
        except (EOFError, OSError):  # pragma: no cover - torn message
            self._corrupt_messages += 1
            self._reap_dead()
            return False
        try:
            self._handle(message)
        except Exception:  # pragma: no cover - defensive
            self._corrupt_messages += 1
        self._messages += 1
        self._report_progress()
        faults.parent_message_tick(self._messages)
        return True

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "spawn":
            _, slot, task_id, index, frame = message
            parent = self._records.get(task_id)
            if parent is not None:
                self._credit_spawn(parent, index, frame, slot)
        elif kind in ("done", "interrupted"):
            task_id, rows, metrics = message[2], message[3], message[4]
            record = self._records.get(task_id)
            if record is None or record.state in (_COMPLETED, _QUARANTINED):
                return  # duplicate terminal message from a stale attempt
            self._release(record)
            record.state = _COMPLETED
            self._pending -= 1
            self._completed += 1
            group = self.groups[record.group]
            for nodes, positive, negative in rows:
                group.found[nodes] = SignedClique(
                    nodes=nodes,
                    params=group.params,
                    positive_edges=positive,
                    negative_edges=negative,
                )
            group.stats.merge_snapshot(metrics)
            if kind == "interrupted":
                group.interrupt(message[6], message[5])
                self._interrupted_reason = self._interrupted_reason or message[6]
        elif kind == "task_error":
            _, slot, task_id, tb = message
            record = self._records.get(task_id)
            if record is None or record.state != _ASSIGNED or record.assigned != slot:
                return  # stale report from a superseded attempt
            self._release(record)
            self._retry_or_quarantine(record, tb)
        elif kind == "fatal":
            _, slot, tb = message
            worker = self._pool.get(slot)
            if worker is not None:
                self._fail_worker(worker, f"worker reported fatal error:\n{tb}")
        else:  # pragma: no cover - protocol bug
            raise RuntimeError(f"unknown worker message kind {kind!r}")

    def _release(self, record: _Task) -> None:
        """Detach *record* from whichever helper currently holds it."""
        if record.assigned is None:
            return
        worker = self._pool.get(record.assigned)
        if worker is not None:
            worker.in_flight.pop(record.task_id, None)
        record.assigned = None

    def _retry_or_quarantine(self, record: _Task, why: str, retry: bool = True) -> None:
        record.attempts += 1
        if not retry or record.attempts > FRAME_RETRIES:
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
    # Helper lifecycle
    # ------------------------------------------------------------------
    def _start_helpers(self) -> None:
        """Fork the ``workers - 1`` helpers and hand each a task at once."""
        self._helpers_started_after = self._frames_searched()
        self._result_queue = self._ctx.Queue()
        for slot in range(self.workers - 1):
            self._try_spawn(slot)
        self._helpers = len(self._pool)
        obs.journal_event(
            "helpers_start",
            helpers=self._helpers,
            after_frames=self._helpers_started_after,
            queued=len(self._backlog),
        )

    def _helper_loop(self, slot: int, task_queue) -> None:
        """Helper process body: drain frames against the inherited groups.

        Runs in a child forked from the parent, so this scheduler — its
        groups' searchers, compiled graph and settings — is inherited and
        nothing is rebuilt or shipped. Each task is searched, under the
        inherited guard, into a fresh per-task :class:`SearchGroup`, the
        way the parent searches into the run's groups; branches shed by
        the node budget go back as indexed ``spawn`` messages *before*
        the task's terminal message, keeping the parent's pending count
        conservative. Terminal messages per task:

        * ``("done", slot, task_id, rows, metrics)`` — exhausted;
        * ``("interrupted", slot, task_id, rows, metrics, dropped,
          reason)`` — the deadline / memory guard tripped mid-task;
        * ``("task_error", slot, task_id, traceback)`` — the frame
          raised; the helper survives and moves to its next task.

        ``("fatal", slot, traceback)`` reports an unrecoverable
        helper-level failure.
        """
        result_queue = self._result_queue
        tick = faults.worker_tick(slot, result_queue)
        spawn_tick = faults.worker_tick(slot, result_queue, spawns=True)
        try:
            while True:
                task = task_queue.get()
                if task is None:
                    break
                task_id, group, candidates, included = task
                spawn_index = 0

                def offload(frame, _task_id=task_id):
                    nonlocal spawn_index
                    faults.message_delay()
                    result_queue.put(("spawn", slot, _task_id, spawn_index, frame))
                    spawn_index += 1
                    if spawn_tick is not None:
                        spawn_tick()

                try:
                    faults.check_task(task_id)
                    # A fresh per-task accumulator, so a crashed attempt
                    # contributes nothing.
                    state = self.groups[group]
                    accumulator = SearchGroup(state.searcher, state.compiled)
                    search = accumulator.search(self.top_r, self._guard, tick)
                    reason = search.run(
                        [(candidates, included, None)],
                        budget=self.task_budget,
                        offload=offload,
                    )
                    rows: List[CliqueRow] = [
                        (nodes, clique.positive_edges, clique.negative_edges)
                        for nodes, clique in accumulator.found.items()
                    ]
                    # The task's metrics ride only on its terminal message:
                    # a crashed attempt contributes nothing, so the parent's
                    # credit dedup gives exactly-once aggregation. The
                    # per-task extras match the parent's (one tasks tick,
                    # one recursions observation per task).
                    registry = accumulator.stats.registry
                    registry.counter("worker_tasks").inc()
                    registry.histogram("task_recursions").observe(accumulator.stats.recursions)
                    metrics = registry.snapshot()
                    faults.message_delay()
                    if reason is not None:
                        result_queue.put(
                            (
                                "interrupted",
                                slot,
                                task_id,
                                rows,
                                metrics,
                                len(search.incomplete),
                                reason,
                            )
                        )
                    else:
                        result_queue.put(("done", slot, task_id, rows, metrics))
                except Exception:
                    # The frame failed but the helper is healthy: report and
                    # keep draining — the parent decides retry vs quarantine.
                    faults.message_delay()
                    result_queue.put(("task_error", slot, task_id, traceback.format_exc()))
        except BaseException:
            result_queue.put(("fatal", slot, traceback.format_exc()))

    def _try_spawn(self, slot: int) -> None:
        queue = None
        try:
            faults.check_worker_spawn(slot)
            queue = self._ctx.Queue()
            process = self._ctx.Process(target=self._helper_loop, args=(slot, queue), daemon=True)
            process.start()
        except Exception as exc:
            # Whatever stops a helper from starting (no processes left, a
            # daemonic caller, an injected fault), the parent carries on
            # alone: this runs inside the parent's search, whose own
            # failure handling must not see it.
            self._spawn_failures.append(f"slot {slot}: {exc}")
            obs.journal_event("worker_spawn_failed", slot=slot, why=str(exc))
            if queue is not None:
                self._retired_queues.append(queue)
            return
        self._pool[slot] = _Worker(slot, process, queue)
        obs.journal_event("worker_spawn", slot=slot, pid=process.pid)

    def _reap_dead(self) -> None:
        """Detect crashed helpers and requeue their cargo."""
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
            in_flight=len(worker.in_flight),
            why=why.strip().splitlines()[0] if why.strip() else "unknown",
        )
        # Credit whatever the dead helper managed to flush before dying
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
        """Stop the helpers; never hang, never silently drop finished rows.

        Only called once helpers were started. The graceful path sends
        sentinels and joins briefly. If every helper then exited with
        code 0 and none was lost during the run, it drains what is
        already readable without waiting. Otherwise it drains for up to
        :data:`RESULT_DRAIN_TIMEOUT` seconds, so rows completed by
        healthy helpers while another one failed are still merged. The
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
                # Every helper returned normally, and a normal exit joins
                # the result queue's feeder thread, so every message the
                # pool sent is already readable.
                self._drain_available()
            else:
                # Salvage completed rows that were still in flight (a
                # crashed sibling must not cost a healthy helper its
                # finished tasks).
                deadline = time.monotonic() + RESULT_DRAIN_TIMEOUT
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
        self._result_queue.cancel_join_thread()
        self._result_queue.close()
