"""Fault-injection tests for the resilient parallel enumeration stack.

The contract under test: helper crashes, poisoned frames, wall-clock
deadlines, memory ceilings and spawn failures must never corrupt
results — a disturbed run either produces the exact sequential answer
(crash retry, degradation) or an honestly-labelled partial one
(``interrupted``), and no run may leak worker processes. Worker counts honour the ``REPRO_FAULT_WORKERS`` environment
variable (default 2) so CI can stress wider pools; the parent is worker
0, so a run forks ``workers - 1`` helpers once it outgrows its frame
budget.
"""

import json
import multiprocessing
import os
import random
import struct
import sys
import threading
import time
from typing import List

import pytest

from repro.core import (
    MSCE,
    AlphaK,
    WorkStealingScheduler,
    enumerate_grid,
    enumerate_parallel,
)
from repro.core.scheduler import HELPER_START_BUDGETS, PARENT_SLOT, SearchGroup
from repro.fastpath import compile_graph
from repro.graphs import SignedGraph
from repro.limits import REASON_MEMORY, ResourceGuard
from repro.obs import runtime as obs
from repro.obs.metrics import Counter
from repro.testing import FaultPlan, injected
from tests.conftest import make_random_signed_graph

WORKERS = int(os.environ.get("REPRO_FAULT_WORKERS", "2"))

#: Split thresholds small enough that the test graphs actually ship
#: frames to helper processes: ``task_budget=20`` forks the helpers once
#: the parent has searched 160 frames, and these graphs run 850-1,900.
SPLIT_KNOBS = dict(small_component=8, split_component=24, task_budget=20)


def _fault_graph(seed: int, components: int = 3) -> SignedGraph:
    """Disjoint random blobs big enough to seed several helper tasks."""
    rng = random.Random(seed)
    graph = SignedGraph()
    offset = 0
    for _ in range(components):
        blob = make_random_signed_graph(
            rng, n_range=(30, 40), edge_probability_range=(0.3, 0.5)
        )
        for u, v, sign in blob.edges():
            graph.add_edge(u + offset, v + offset, sign)
        offset += 100
    return graph


def _fingerprint(result):
    """Everything that must survive injected faults bit-identically."""
    return (
        [(c.nodes, c.positive_edges, c.negative_edges) for c in result.cliques],
        result.stats.as_dict(),
    )


@pytest.fixture(autouse=True)
def _no_leaks():
    """Every test must leave the process table clean."""
    yield
    # Scheduler children are joined/terminated by every exit path; give
    # freshly-terminated ones a moment to be reaped.
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not multiprocessing.active_children()


class _RecordingQueue:
    """Result-queue proxy that counts blocking ``get`` calls."""

    def __init__(self, queue):
        self._queue = queue
        self.blocking_gets = 0

    def get(self, block=True, timeout=None):
        if block:
            self.blocking_gets += 1
        return self._queue.get(block, timeout)

    def __getattr__(self, name):
        return getattr(self._queue, name)


@pytest.fixture
def shutdown_queues(monkeypatch):
    """The result queue of every ``_shutdown`` call, wrapped in a recorder."""
    recorded = []
    real_shutdown = WorkStealingScheduler._shutdown

    def recording_shutdown(self, graceful):
        self._result_queue = _RecordingQueue(self._result_queue)
        recorded.append(self._result_queue)
        real_shutdown(self, graceful)

    monkeypatch.setattr(WorkStealingScheduler, "_shutdown", recording_shutdown)
    return recorded


class TestSchedulerFixedCosts:
    def test_local_work_overlaps_seeded_workers(self, monkeypatch):
        """Helpers are fed a task in the same step that forks them, so
        they search while the parent keeps working."""
        graph = _fault_graph(seed=13, components=max(3, WORKERS))
        compiled = compile_graph(graph)
        by_component = {}
        for node in graph.nodes():
            by_component.setdefault(node // 100, set()).add(node)
        tasks = [
            (0, (compiled.mask_from_nodes(nodes), 0))
            for _, nodes in sorted(by_component.items())
        ]
        params = AlphaK(1.5, 1)
        searcher = MSCE(compiled, params, reduction="none")
        group = SearchGroup(searcher)
        scheduler = WorkStealingScheduler([group], WORKERS, task_budget=20)
        fed = []
        real_assign = WorkStealingScheduler._assign

        def recording_assign(self):
            real_assign(self)
            if self._pool and not fed:
                fed.append({slot: len(w.in_flight) for slot, w in self._pool.items()})

        monkeypatch.setattr(WorkStealingScheduler, "_assign", recording_assign)
        scheduler.run_grouped(tasks)
        assert len(fed) == 1
        assert sorted(fed[0]) == list(range(WORKERS - 1))
        assert all(count == 1 for count in fed[0].values())
        report = scheduler.report
        assert report["helpers"] == WORKERS - 1
        assert report["helpers_started_after"] >= HELPER_START_BUDGETS * 20
        assert report["tasks_completed"] == len(tasks) + report["frames_resplit"]
        expected = MSCE(compiled, params, reduction="none").enumerate_all()
        assert set(group.found) == {c.nodes for c in expected.cliques}
        assert group.stats.recursions == expected.stats.recursions

    def test_healthy_shutdown_never_waits_on_the_result_queue(self, shutdown_queues):
        graph = _fault_graph(seed=13)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        result = enumerate_parallel(graph, 1.5, 1, workers=WORKERS, **SPLIT_KNOBS)
        assert _fingerprint(result) == expected
        assert result.parallel["workers_lost"] == 0
        assert len(shutdown_queues) == 1
        assert shutdown_queues[0].blocking_gets == 0

    def test_delayed_messages_are_all_merged_by_a_clean_shutdown(self, shutdown_queues):
        """Slow result messages must still be merged when the clean path
        drains without waiting."""
        graph = _fault_graph(seed=13)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        with injected(FaultPlan(message_delay=0.005)):
            result = enumerate_parallel(graph, 1.5, 1, workers=WORKERS, **SPLIT_KNOBS)
        assert _fingerprint(result) == expected
        assert not result.interrupted
        assert shutdown_queues[0].blocking_gets == 0


class TestWorkerCrashRecovery:
    def test_killed_worker_changes_nothing(self, shutdown_queues):
        """Acceptance: a worker killed mid-run yields the same clique set
        and SearchStats as an undisturbed sequential run."""
        graph = _fault_graph(seed=13)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        with injected(FaultPlan(kill_at_frame={0: 5})):
            result = enumerate_parallel(graph, 1.5, 1, workers=WORKERS, **SPLIT_KNOBS)
        assert _fingerprint(result) == expected
        # A lost worker sends shutdown through the timed salvage drain.
        assert shutdown_queues[0].blocking_gets >= 1
        report = result.parallel
        assert report["workers_lost"] >= 1
        assert report["retries"] >= 1
        assert report["quarantined_frames"] == 0
        assert not result.interrupted
        # A lost helper is not replaced: with one helper the parent
        # finishes alone, with more the survivors share the replay.
        assert report["degraded"] == ("worker pool collapsed" if WORKERS == 2 else None)
        assert report["helpers"] == WORKERS - 1
        # Retry accounting: every task still completes exactly once.
        assert report["tasks_completed"] == (
            report["tasks_seeded"] + report["frames_resplit"]
        )

    def test_multiple_killed_workers_change_nothing(self):
        graph = _fault_graph(seed=17)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        # Two helper slots at least, so two distinct helpers can die.
        workers = max(WORKERS, 3)
        kills = {slot: 3 + slot for slot in range(2)}
        with injected(FaultPlan(kill_at_frame=kills)):
            result = enumerate_parallel(graph, 1.5, 1, workers=workers, **SPLIT_KNOBS)
        assert _fingerprint(result) == expected
        assert result.parallel["helpers"] == workers - 1
        assert result.parallel["workers_lost"] >= len(kills)

    def test_parent_reruns_a_dead_helpers_task_without_its_credited_spawns(
        self, monkeypatch
    ):
        """With its one helper lost, the parent itself re-runs the frame
        that helper held, dropping the spawns it already shed."""
        graph = _fault_graph(seed=13)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        dropped = []
        real_credit = WorkStealingScheduler._credit_spawn

        def recording_credit(self, parent, index, frame, slot):
            if slot == PARENT_SLOT and index < parent.spawns_credited:
                dropped.append((parent.task_id, index))
            real_credit(self, parent, index, frame, slot)

        monkeypatch.setattr(WorkStealingScheduler, "_credit_spawn", recording_credit)
        # Killed right after its first spawn, so the task it dies in
        # has one credited spawn for the parent's replay to drop.
        with injected(FaultPlan(kill_after_spawns={0: 1})):
            result = enumerate_parallel(graph, 1.5, 1, workers=2, **SPLIT_KNOBS)
        assert _fingerprint(result) == expected
        report = result.parallel
        assert report["helpers"] == 1
        assert report["workers_lost"] == 1
        assert report["retries"] >= 1
        assert report["degraded"] == "worker pool collapsed"
        assert dropped, "the parent's replay skipped no credited spawn"

    def test_poisoned_frame_is_quarantined_not_retried_forever(self):
        graph = _fault_graph(seed=13)
        sequential = {c.nodes for c in MSCE(graph, AlphaK(1.5, 1)).enumerate_all()}
        with injected(FaultPlan(poison_tasks=frozenset({0}))):
            result = enumerate_parallel(graph, 1.5, 1, workers=WORKERS, **SPLIT_KNOBS)
        report = result.parallel
        assert report["tasks_seeded"] >= 1
        assert report["quarantined_frames"] == 1
        # Default budget: 2 retries -> 3 attempts total, then quarantine.
        assert report["retries"] == 2
        assert not result.interrupted
        # Everything outside the quarantined subtree is still found, and
        # nothing bogus is invented.
        assert {c.nodes for c in result} <= sequential
        assert report["helpers"] == WORKERS - 1

    def test_parent_run_poisoned_frame_is_quarantined_not_raised(self):
        graph = _fault_graph(seed=13)
        sequential = {c.nodes for c in MSCE(graph, AlphaK(1.5, 1)).enumerate_all()}
        with injected(FaultPlan(poison_tasks=frozenset({0}))):
            result = enumerate_parallel(graph, 1.5, 1, workers=1, **SPLIT_KNOBS)
        report = result.parallel
        assert report["helpers"] == 0
        assert report["quarantined_frames"] == 1
        assert report["retries"] == 2
        assert not result.interrupted
        assert {c.nodes for c in result} < sequential


class TestResourceGuards:
    def test_zero_time_limit_returns_partial_result_not_raise(self):
        graph = _fault_graph(seed=13)
        result = enumerate_parallel(
            graph, 1.5, 1, workers=WORKERS, time_limit=0, **SPLIT_KNOBS
        )
        assert result.interrupted
        assert result.interrupted_reason == "deadline"
        assert result.timed_out
        assert result.parallel["interrupted"] is True
        assert result.incomplete_frames > 0
        assert result.parallel["incomplete_frames"] == result.incomplete_frames

    def test_mid_run_deadline_yields_subset(self):
        graph = _fault_graph(seed=19)
        sequential = {c.nodes for c in MSCE(graph, AlphaK(1.5, 1)).enumerate_all()}
        with injected(FaultPlan(message_delay=0.02)):
            result = enumerate_parallel(
                graph, 1.5, 1, workers=WORKERS, time_limit=0.4, **SPLIT_KNOBS
            )
        assert {c.nodes for c in result} <= sequential
        if not result.interrupted:
            assert {c.nodes for c in result} == sequential

    def test_memory_ceiling_interrupts_sequential_enumerator(self):
        graph = _fault_graph(seed=13, components=1)
        result = MSCE(graph, AlphaK(1.5, 1), max_memory_bytes=1).enumerate_all()
        assert result.interrupted
        assert result.interrupted_reason == "memory"
        assert not result.timed_out

    def test_memory_ceiling_interrupts_parallel_enumerator(self):
        graph = _fault_graph(seed=13)
        result = enumerate_parallel(
            graph, 1.5, 1, workers=WORKERS, max_memory_bytes=1, **SPLIT_KNOBS
        )
        assert result.interrupted
        assert result.interrupted_reason == "memory"
        assert not result.timed_out


def _run_without_children():
    """Body of the daemonic-caller test; runs in a pool worker."""
    graph = _fault_graph(seed=13)
    expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
    result = enumerate_parallel(graph, 1.5, 1, workers=2, **SPLIT_KNOBS)
    return _fingerprint(result) == expected, result.parallel


class TestGracefulDegradation:
    def test_caller_that_may_not_fork_runs_without_helpers(self):
        """A daemonic pool worker may not start children: the helper
        launch fails and the parent alone returns the exact answer."""
        with multiprocessing.get_context("fork").Pool(1) as pool:
            exact, report = pool.apply(_run_without_children)
        assert exact
        assert report["degraded"] == "worker spawn failed"
        assert report["spawn_failures"] == 1
        assert report["helpers"] == 0
        assert report["quarantined_frames"] == 0

    def test_worker_spawn_failure_falls_back_inline(self):
        graph = _fault_graph(seed=13)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        with injected(FaultPlan(fail_worker_spawn=True)):
            result = enumerate_parallel(graph, 1.5, 1, workers=WORKERS, **SPLIT_KNOBS)
        assert _fingerprint(result) == expected
        assert result.parallel["degraded"] == "worker spawn failed"
        assert result.parallel["spawn_failures"] == WORKERS - 1
        assert result.parallel["helpers"] == 0
        assert not result.interrupted

    def test_single_worker_records_fallback_reason(self):
        graph = _fault_graph(seed=13)
        result = enumerate_parallel(graph, 1.5, 1, workers=1, **SPLIT_KNOBS)
        assert result.parallel["degraded"] == "workers<=1"


class TestForkSafety:
    def test_counter_lock_held_across_fork_does_not_stall_helpers(self, monkeypatch):
        """A parent thread (a serving request, say) that holds the
        process-wide counter lock while the helpers fork must not
        deadlock them: each helper takes that lock when it finishes
        its first task."""
        graph = _fault_graph(seed=13)
        expected = _fingerprint(MSCE(graph, AlphaK(1.5, 1)).enumerate_all())
        held, release = threading.Event(), threading.Event()
        real_start = WorkStealingScheduler._start_helpers

        def hold_lock():
            with Counter._inc_lock:
                held.set()
                release.wait()

        def start_under_held_lock(self):
            holder = threading.Thread(target=hold_lock)
            holder.start()
            held.wait()
            try:
                real_start(self)
            finally:
                release.set()
                holder.join()

        monkeypatch.setattr(WorkStealingScheduler, "_start_helpers", start_under_held_lock)
        result = enumerate_parallel(
            graph, 1.5, 1, workers=WORKERS, time_limit=5, **SPLIT_KNOBS
        )
        assert held.is_set(), "the helpers never started"
        assert not result.interrupted
        assert result.parallel["helpers"] == WORKERS - 1
        assert _fingerprint(result) == expected


    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs Linux pipe ioctls")
    def test_journal_write_in_flight_across_fork_does_not_stall_helpers(
        self, monkeypatch, tmp_path
    ):
        """A parent thread blocked inside a journal ``write()`` while the
        helpers fork leaves the journal handle's buffer lock held in
        every child. A helper whose guard trips must still journal the
        trip and finish its task."""
        import fcntl
        import termios

        graph = _fault_graph(seed=13)
        fifo = str(tmp_path / "journal.fifo")
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        capacity = fcntl.fcntl(reader, getattr(fcntl, "F_GETPIPE_SZ", 1032))
        forked, stop = threading.Event(), threading.Event()
        drained: List[bytes] = []

        def read_available() -> bool:
            """Read what the pipe holds now; ``True`` if it held anything."""
            got = False
            while True:
                try:
                    chunk = os.read(reader, 1 << 16)
                except BlockingIOError:
                    return got
                if not chunk:
                    return got
                drained.append(chunk)
                got = True

        def drain():
            forked.wait()
            while read_available() or not stop.is_set():
                time.sleep(0.005)

        def unread_bytes() -> int:
            return struct.unpack("i", fcntl.ioctl(reader, termios.FIONREAD, b"\0" * 4))[0]

        real_start = WorkStealingScheduler._start_helpers
        real_fork = multiprocessing.get_context("fork").Process.start
        parent = os.getpid()
        real_check = ResourceGuard.check

        def start_mid_write(self):
            # The record outgrows the emptied pipe, so the write blocks
            # with the handle's lock held until the drainer reads, after
            # the fork.
            read_available()
            writer = threading.Thread(
                target=obs.journal_event, args=("filler",), kwargs={"pad": "x" * 2 * capacity}
            )
            writer.start()
            deadline = time.monotonic() + 10.0
            while unread_bytes() < capacity and time.monotonic() < deadline:
                time.sleep(0.005)
            assert unread_bytes() == capacity, "the journal write never blocked"
            try:
                real_start(self)
            finally:
                forked.set()
                writer.join(timeout=10.0)
            assert not writer.is_alive()

        def fork_then_drain(process):
            real_fork(process)
            forked.set()

        def trip_in_helpers(guard):
            if os.getpid() != parent and guard._tripped is None:
                guard._trip(REASON_MEMORY)
            return real_check(guard)

        monkeypatch.setattr(WorkStealingScheduler, "_start_helpers", start_mid_write)
        monkeypatch.setattr(multiprocessing.get_context("fork").Process, "start", fork_then_drain)
        monkeypatch.setattr(ResourceGuard, "check", trip_in_helpers)
        drainer = threading.Thread(target=drain)
        drainer.start()
        time_limit = 20.0
        started = time.monotonic()
        try:
            with obs.observing(journal_path=fifo):
                result = enumerate_parallel(
                    graph, 1.5, 1, workers=2, time_limit=time_limit, **SPLIT_KNOBS
                )
        finally:
            forked.set()
            stop.set()
            drainer.join(timeout=10.0)
            os.close(reader)
        assert not drainer.is_alive()
        elapsed = time.monotonic() - started
        events = [json.loads(line) for line in b"".join(drained).splitlines()]
        trips = [event for event in events if event["event"] == "guard_trip"]
        assert result.parallel["helpers"] == 1
        assert trips and {event["reason"] for event in trips} == {REASON_MEMORY}
        assert result.interrupted and result.interrupted_reason == REASON_MEMORY
        assert elapsed < time_limit / 4, f"a helper stalled: the run took {elapsed:.1f}s"


class TestKeyboardInterrupt:
    def test_interrupt_reaps_children_and_unlinks_shm(self):
        """Ctrl-C mid-enumeration: helpers terminated and exception
        re-raised (leak checks in the autouse fixture)."""
        graph = _fault_graph(seed=13)
        with injected(FaultPlan(interrupt_parent_after=1)):
            with pytest.raises(KeyboardInterrupt):
                enumerate_parallel(graph, 1.5, 1, workers=WORKERS, **SPLIT_KNOBS)


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"workers": 0}, "workers"),
            ({"workers": -2}, "workers"),
            ({"workers": 1.5}, "workers"),
            ({"workers": True}, "workers"),
            ({"task_budget": 0}, "task_budget"),
            ({"task_budget": -1}, "task_budget"),
        ],
    )
    def test_rejects_bad_arguments_naming_them(self, paper_graph, kwargs, name):
        with pytest.raises(ValueError, match=name):
            enumerate_parallel(paper_graph, 3, 1, **kwargs)
        with pytest.raises(ValueError, match=name):
            enumerate_grid(paper_graph, [AlphaK(3, 1), AlphaK(2, 1)], **kwargs)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_scheduler_rejects_bad_worker_counts(self, paper_graph, workers):
        searcher = MSCE(compile_graph(paper_graph), AlphaK(3, 1), reduction="none")
        with pytest.raises(ValueError, match="workers"):
            WorkStealingScheduler([SearchGroup(searcher)], workers)
