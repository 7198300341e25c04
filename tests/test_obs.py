"""Tests for the observability subsystem (``repro.obs``).

Three layers of guarantees:

1. **Determinism** — with a :class:`FakeClock` every span duration,
   progress event and ETA is exactly reproducible; histograms are exact
   regardless of observation order.
2. **Schema stability** — the JSON trace shape of a sequential MSCE run
   is pinned against a committed golden file
   (``tests/golden/trace_shape.json``); renamed or reparented phases are
   schema drift and must fail CI. Regenerate with
   ``PYTHONPATH=src:. python tests/test_obs.py --regen-golden``.
3. **Crash bit-identity** (the PR's acceptance test) — a 4-worker
   parallel run with an injected worker kill produces aggregated trace
   counters bit-identical to the uninstrumented sequential
   ``SearchStats``, a journal recording the kill and the retry, and
   a valid Prometheus text export.
"""

import json
import re
import sys
import threading
from pathlib import Path

import pytest

from repro.core import MSCE, AlphaK, enumerate_parallel
from repro.core.bbe import SearchStats
from repro.graphs import SignedGraph
from repro.obs import runtime
from repro.obs.clock import FakeClock, MonotonicClock
from repro.obs.export import prometheus_text, trace_shape, trace_to_dict
from repro.obs.journal import NULL_JOURNAL, EventJournal
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry
from repro.obs.progress import ProgressEvent, ProgressReporter
from repro.obs.runtime import Observer, observing
from repro.obs.tracing import NULL_TRACER, Tracer
from repro.testing import FaultPlan, injected
from tests.test_fault_tolerance import SPLIT_KNOBS, _fault_graph, _fingerprint

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TRACE = GOLDEN_DIR / "trace_shape.json"

#: The acceptance test's worker pool (the issue pins a 4-worker run).
ACCEPTANCE_WORKERS = 4


def _small_graph() -> SignedGraph:
    """The fixed graph behind the golden trace (one component, one clique)."""
    return SignedGraph(
        [(1, 2, "+"), (1, 3, "+"), (2, 3, "+"), (3, 4, "+"), (2, 4, "+"), (1, 4, "-")]
    )


# ---------------------------------------------------------------------------
# Clocks
# ---------------------------------------------------------------------------
class TestClocks:
    def test_fake_clock_advances_exactly(self):
        clock = FakeClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_fake_clock_rejects_negative_advance(self):
        with pytest.raises(ValueError):
            FakeClock().advance(-1.0)

    def test_monotonic_clock_is_monotonic(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_basics(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(3.0)
        registry.gauge("g").add(-1.0)
        registry.histogram("h", bounds=(1, 10)).observe(0.5)
        assert registry.counter_value("c") == 5
        assert registry.gauges["g"].value == 2.0
        assert registry.histograms["h"].counts == [1, 0, 0]

    def test_histogram_exact_and_order_independent(self):
        values = [0.5, 5, 50, 1, 10]
        forward = MetricsRegistry().histogram("h", bounds=(1, 10))
        backward = MetricsRegistry().histogram("h", bounds=(1, 10))
        for v in values:
            forward.observe(v)
        for v in reversed(values):
            backward.observe(v)
        assert forward.counts == backward.counts == [2, 2, 1]
        assert forward.total == backward.total == sum(values)
        assert forward.count == backward.count == len(values)

    def test_snapshot_merge_is_commutative(self):
        a = MetricsRegistry()
        a.counter("n").inc(3)
        a.gauge("peak").set(7)
        a.histogram("h", bounds=(1,)).observe(0.5)
        b = MetricsRegistry()
        b.counter("n").inc(4)
        b.gauge("peak").set(5)
        b.histogram("h", bounds=(1,)).observe(2.0)

        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge_snapshot(a.snapshot())
        ab.merge_snapshot(b.snapshot())
        ba.merge_snapshot(b.snapshot())
        ba.merge_snapshot(a.snapshot())
        assert ab.snapshot() == ba.snapshot()
        assert ab.counter_value("n") == 7
        assert ab.gauges["peak"].value == 7  # gauges merge by max
        assert ab.histograms["h"].counts == [1, 1]

    def test_merge_none_is_noop_and_bounds_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.merge_snapshot(None)
        assert registry.snapshot()["counters"] == {}
        registry.histogram("h", bounds=(1, 2))
        bad = {"histograms": {"h": {"bounds": [5], "counts": [0, 0], "sum": 0, "count": 0}}}
        with pytest.raises(ValueError, match="bounds mismatch"):
            registry.merge_snapshot(bad)

    def test_counter_inc_is_atomic_across_threads(self):
        """`inc` is reachable concurrently from the serving layer's
        executor threads (several tenant engines mirror into the same
        ambient counter); a torn read-modify-write would lose counts."""
        import sys
        import threading

        counter = MetricsRegistry().counter("hammered")
        threads, per_thread = 4, 10_000
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force frequent preemption
        try:
            def worker():
                for _ in range(per_thread):
                    counter.inc()

            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join()
        finally:
            sys.setswitchinterval(old_interval)
        assert counter.value == threads * per_thread

    def test_null_registry_discards_everything(self):
        NULL_REGISTRY.counter("x").inc(100)
        NULL_REGISTRY.gauge("y").set(1)
        NULL_REGISTRY.histogram("z").observe(1)
        assert NULL_REGISTRY.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


# ---------------------------------------------------------------------------
# Tracing (fake-clock determinism)
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_durations_and_counter_deltas_are_exact(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=clock)
        with tracer.span("outer", dataset="toy"):
            clock.advance(2.0)
            with tracer.span("inner"):
                clock.advance(0.5)
                registry.counter("work").inc(3)
            clock.advance(1.0)
        (root,) = tracer.roots
        assert root.seconds == 3.5
        assert root.attrs == {"dataset": "toy"}
        (inner,) = root.children
        assert inner.seconds == 0.5
        assert inner.counters == {"work": 3}
        assert root.counters == {"work": 3}

    def test_zero_deltas_are_omitted(self):
        registry = MetricsRegistry()
        registry.counter("idle")
        tracer = Tracer(registry, clock=FakeClock())
        with tracer.span("phase"):
            pass
        assert tracer.roots[0].counters == {}

    def test_exception_closes_dangling_children(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                tracer.span("leaked").__enter__()  # never exited explicitly
                clock.advance(1.0)
                raise RuntimeError("boom")
        root = tracer.roots[0]
        assert root.ended is not None
        assert root.children[0].ended is not None
        assert tracer._open_spans() == ()

    def test_tracers_keep_separate_stacks_and_clear_drops_open_spans(self):
        first, second = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with first.span("a"):
            with second.span("b"):
                with first.span("a.child"):
                    pass
            first.clear()
            with first.span("after-clear"):
                pass
        assert [root.name for root in first.roots] == ["after-clear"]
        assert [root.name for root in second.roots] == ["b"]
        assert second.roots[0].children == []
        assert first._open_spans() == () and second._open_spans() == ()

    def test_threads_build_separate_span_trees(self):
        # Spans opened on different threads must not nest under each
        # other, and closing one thread's span must not close another's.
        threads_n = 6
        tracer = Tracer()
        opened = threading.Barrier(threads_n)
        nested = threading.Barrier(threads_n)
        errors = []

        def work(index):
            try:
                with tracer.span(f"request{index}"):
                    opened.wait(timeout=10)
                    with tracer.span(f"compute{index}"):
                        nested.wait(timeout=10)
                    with tracer.span(f"serialise{index}"):
                        pass
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(root.name for root in tracer.roots) == sorted(
            f"request{i}" for i in range(threads_n)
        )
        for root in tracer.roots:
            index = root.name[len("request"):]
            assert [child.name for child in root.children] == [
                f"compute{index}",
                f"serialise{index}",
            ]
            assert root.ended is not None
            assert all(child.ended is not None for child in root.children)

    def test_root_cap_counts_drops(self):
        tracer = Tracer(clock=FakeClock(), max_roots=2)
        for index in range(4):
            with tracer.span(f"run{index}"):
                pass
        assert len(tracer.roots) == 2
        assert tracer.dropped_roots == 2
        assert trace_to_dict(tracer)["dropped_roots"] == 2

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", attr=1):
            pass
        assert NULL_TRACER.roots == []


# ---------------------------------------------------------------------------
# Progress (fake-clock ETA determinism)
# ---------------------------------------------------------------------------
class TestProgress:
    def test_eta_is_exact_under_fake_clock(self):
        clock = FakeClock()
        events = []
        reporter = ProgressReporter(events.append, clock=clock, min_interval=1.0)

        assert reporter.update(0, 10)  # first sample always fires
        assert events[-1] == ProgressEvent(
            completed=0, outstanding=10, elapsed_seconds=0.0, rate=0.0, eta_seconds=None
        )
        clock.advance(0.5)
        assert not reporter.update(1, 9)  # throttled: 0.5s < min_interval
        clock.advance(0.5)
        assert reporter.update(2, 8)
        assert events[-1] == ProgressEvent(
            completed=2, outstanding=8, elapsed_seconds=1.0, rate=2.0, eta_seconds=4.0
        )
        reporter.finish(10)
        assert events[-1].completed == 10
        assert events[-1].outstanding == 0
        assert reporter.emitted == 3

    def test_finish_bypasses_throttle(self):
        clock = FakeClock()
        events = []
        reporter = ProgressReporter(events.append, clock=clock, min_interval=100.0)
        reporter.update(0, 5)
        reporter.finish(5)
        assert [event.completed for event in events] == [0, 5]


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------
class TestJournal:
    def test_emit_of_kind_and_memory_cap(self):
        journal = EventJournal(clock=FakeClock(start=1.0), max_events=2)
        journal.emit("a", x=1)
        journal.emit("b")
        journal.emit("a", x=2)  # over the cap: dropped from memory
        assert journal.dropped == 1
        assert journal.of_kind("a") == [{"ts": 1.0, "event": "a", "x": 1}]

    def test_jsonl_file_is_valid_line_per_event(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        journal = EventJournal(path=str(path), clock=FakeClock())
        journal.emit("guard_trip", reason="deadline")
        journal.emit("worker_lost", slot=0)
        journal.close()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["guard_trip", "worker_lost"]
        assert all("ts" in r for r in records)

    def test_null_journal_discards(self):
        assert NULL_JOURNAL.emit("anything", x=1) == {}
        assert NULL_JOURNAL.events == []


# ---------------------------------------------------------------------------
# Ambient runtime
# ---------------------------------------------------------------------------
class TestRuntime:
    def test_default_observer_is_disabled(self):
        previous = runtime.install(Observer.disabled())
        try:
            assert not runtime.get_observer().enabled
            with runtime.span("anything"):
                pass  # must be a no-op, not an error
            runtime.journal_event("anything")
        finally:
            runtime.install(previous)

    def test_env_flag_builds_enabled_observer(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS", "1")
        assert runtime._from_env().enabled
        monkeypatch.setenv("REPRO_OBS", "0")
        assert not runtime._from_env().enabled

    def test_observing_installs_and_restores(self):
        before = runtime.get_observer()
        with observing() as observer:
            assert runtime.get_observer() is observer
            assert observer.enabled
            with runtime.span("phase"):
                runtime.counter("n").inc()
        assert runtime.get_observer() is before
        # The observer stays readable after the block.
        assert observer.registry.counter_value("n") == 1
        assert [span.name for span in observer.tracer.roots] == ["phase"]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------
#: One Prometheus 0.0.4 sample line: name, optional {labels}, value.
_PROM_SAMPLE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*(\{le="[^"]+"\})? [0-9.eE+-]+(inf)?$'
)


def _assert_valid_prometheus(text: str) -> None:
    assert text.endswith("\n")
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            assert line.split()[-1] in ("counter", "gauge", "histogram")
        else:
            assert _PROM_SAMPLE.match(line), f"bad exposition line: {line!r}"


class TestExport:
    def test_prometheus_text_is_valid_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("msce_recursions").inc(7)
        registry.gauge("pool-size").set(4)  # dash must be sanitised
        histogram = registry.histogram("task_seconds", bounds=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        text = prometheus_text(registry)
        _assert_valid_prometheus(text)
        assert text == prometheus_text(registry)  # deterministic
        assert "repro_msce_recursions_total 7" in text
        assert "repro_pool_size 4" in text
        assert 'repro_task_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_task_seconds_count 2" in text

    def test_trace_shape_collapses_values_keeps_names(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=clock)
        with tracer.span("msce", alpha=2.0):
            registry.counter("msce_recursions").inc()
            clock.advance(1.0)
        shape = trace_shape(trace_to_dict(tracer))
        (span,) = shape["spans"]
        assert span["name"] == "msce"  # names verbatim: renames are drift
        assert span["attrs"] == ["alpha"]  # values collapse to key lists
        assert span["counters"] == ["msce_recursions"]
        assert span["seconds"] == "float"


# ---------------------------------------------------------------------------
# Golden trace schema (the CI drift gate)
# ---------------------------------------------------------------------------
def _sequential_trace_shape():
    """The trace shape of one sequential MSCE run on the fixed graph."""
    with observing(clock=FakeClock()) as observer:
        MSCE(_small_graph(), AlphaK(2, 1)).enumerate_all()
    return trace_shape(trace_to_dict(observer.tracer))


class TestGoldenTraceSchema:
    def test_sequential_trace_shape_matches_golden(self):
        expected = json.loads(GOLDEN_TRACE.read_text(encoding="utf-8"))
        actual = _sequential_trace_shape()
        assert actual == expected, (
            "trace schema drifted from tests/golden/trace_shape.json — "
            "if intentional, regenerate with "
            "`PYTHONPATH=src:. python tests/test_obs.py --regen-golden`"
        )

    def test_shape_is_stable_across_runs(self):
        assert _sequential_trace_shape() == _sequential_trace_shape()


# ---------------------------------------------------------------------------
# End-to-end: instrumented pipeline runs
# ---------------------------------------------------------------------------
class TestPipelineIntegration:
    def test_sequential_run_produces_phase_tree_and_metrics(self):
        with observing() as observer:
            result = MSCE(_small_graph(), AlphaK(2, 1)).enumerate_all()
        (root,) = observer.tracer.roots
        assert root.name == "msce"
        child_names = [child.name for child in root.children]
        assert "enumerate" in child_names
        assert "merge" in child_names
        # The ambient registry aggregates the run's SearchStats exactly.
        for field_name, value in result.stats.as_dict().items():
            assert observer.registry.counter_value("msce_" + field_name) == value
        _assert_valid_prometheus(prometheus_text(observer.registry))

    def test_plain_run_reports_no_parallel_and_journals_no_degradation(self):
        """A one-process MSCE run goes through the scheduler but keeps its
        own result shape: no scheduling report, no `degraded` event."""
        with observing() as observer:
            result = MSCE(_fault_graph(seed=13), AlphaK(1.5, 1)).enumerate_all()
        assert result.parallel is None
        assert not observer.journal.of_kind("degraded")
        (root,) = observer.tracer.roots
        assert root.name == "msce"

    def test_engine_single_point_miss_keeps_the_msce_shape(self):
        """A single-point engine miss is a one-shot MSCE run: its span,
        no scheduling report and no `degraded` event, and a later hit
        of the same answer has the same shape."""
        from repro.serve import SignedCliqueEngine

        engine = SignedCliqueEngine(_fault_graph(seed=13))
        with observing() as observer:
            computed = engine.enumerate_with_stats(1.5, 1)
            topr = engine.top_r_with_stats(1.5, 1, 3)
            replayed = engine.enumerate_with_stats(1.5, 1)
        assert computed.parallel is None and topr.parallel is None
        assert replayed.parallel is None
        assert not observer.journal.of_kind("degraded")
        for root in observer.tracer.roots[:2]:
            names = [child.name for child in root.children]
            assert "msce" in names and "msce_parallel" not in names

    def test_guard_trip_is_journaled(self):
        graph = _fault_graph(seed=13, components=1)
        with observing() as observer:
            result = MSCE(graph, AlphaK(1.5, 1), max_memory_bytes=1).enumerate_all()
        assert result.interrupted_reason == "memory"
        trips = observer.journal.of_kind("guard_trip")
        assert trips and trips[0]["reason"] == "memory"

    def test_degraded_single_worker_run_is_journaled(self):
        graph = _fault_graph(seed=13)
        with observing() as observer:
            result = enumerate_parallel(graph, 1.5, 1, workers=1, **SPLIT_KNOBS)
        assert result.parallel["degraded"] == "workers<=1"
        (event,) = observer.journal.of_kind("degraded")
        assert event["reason"] == "workers<=1"
        (root,) = observer.tracer.roots
        assert root.name == "msce_parallel"

    def test_parallel_progress_callback_fires(self):
        graph = _fault_graph(seed=19)
        events = []
        result = enumerate_parallel(
            graph, 1.5, 1, workers=2, progress=events.append, **SPLIT_KNOBS
        )
        assert not result.interrupted
        assert events, "progress callback never fired"
        assert all(isinstance(event, ProgressEvent) for event in events)
        completed = [event.completed for event in events]
        assert completed == sorted(completed)
        # finish() forces the terminal sample.
        assert events[-1].completed == result.parallel["tasks_completed"]
        assert events[-1].outstanding == 0


class TestCrashBitIdentity:
    """The PR's acceptance test (see module docstring, point 3)."""

    def test_four_worker_crash_run_matches_uninstrumented_sequential(self, tmp_path):
        graph = _fault_graph(seed=13)
        # Uninstrumented 1-process baseline: the default observer stays
        # disabled, SearchStats counts in its private registry only.
        baseline = MSCE(graph, AlphaK(1.5, 1)).enumerate_all()
        expected = baseline.stats.as_dict()

        journal_path = tmp_path / "journal.jsonl"
        with observing(journal_path=str(journal_path)) as observer:
            with injected(FaultPlan(kill_at_frame={0: 5})):
                result = enumerate_parallel(
                    graph, 1.5, 1, workers=ACCEPTANCE_WORKERS, **SPLIT_KNOBS
                )

        # 1. Results and stats survive the crash bit-identically.
        assert _fingerprint(result) == _fingerprint(baseline)
        assert result.parallel["workers_lost"] >= 1

        # 2. The aggregated registry counters equal the sequential
        #    SearchStats exactly (exactly-once credit under retries).
        for field_name, value in expected.items():
            assert observer.registry.counter_value("msce_" + field_name) == value, (
                f"aggregated msce_{field_name} diverged from sequential"
            )

        # 3. The root span's counter deltas carry the same aggregation
        #    (merge happens before the root span closes).
        trace = trace_to_dict(observer.tracer)
        root = next(s for s in trace["spans"] if s["name"] == "msce_parallel")
        for field_name, value in expected.items():
            assert root["counters"].get("msce_" + field_name, 0) == value

        # 4. Worker extras aggregate without disturbing the stats:
        #    every completed task contributes exactly one worker_tasks
        #    credit and one task_recursions observation.
        tasks = result.parallel["tasks_completed"]
        assert observer.registry.counter_value("worker_tasks") == tasks
        assert observer.registry.histograms["task_recursions"].count == tasks

        # 5. The journal recorded the lifecycle: spawns, the kill and the
        #    retry of the dead worker's frames. A lost helper is not
        #    replaced, so there is one spawn per helper.
        journal = observer.journal
        assert len(journal.of_kind("worker_spawn")) == ACCEPTANCE_WORKERS - 1
        assert journal.of_kind("worker_lost")
        assert journal.of_kind("frame_retry")
        lost = journal.of_kind("worker_lost")[0]
        assert {"slot", "in_flight"} <= set(lost)

        # 6. The JSONL stream on disk is valid and carries the same events.
        records = [
            json.loads(line) for line in journal_path.read_text().splitlines()
        ]
        kinds = {record["event"] for record in records}
        assert {"worker_spawn", "worker_lost", "frame_retry"} <= kinds

        # 7. The metrics registry renders as valid Prometheus exposition.
        _assert_valid_prometheus(prometheus_text(observer.registry))

    def test_aggregation_is_stable_across_worker_counts(self):
        graph = _fault_graph(seed=17)
        expected = MSCE(graph, AlphaK(1.5, 1)).enumerate_all().stats.as_dict()
        for workers in (2, ACCEPTANCE_WORKERS):
            with observing() as observer:
                enumerate_parallel(graph, 1.5, 1, workers=workers, **SPLIT_KNOBS)
            aggregated = {
                field_name: observer.registry.counter_value("msce_" + field_name)
                for field_name in SearchStats.FIELDS
            }
            assert aggregated == expected, f"divergence at workers={workers}"


if __name__ == "__main__":
    import sys

    if "--regen-golden" in sys.argv:
        GOLDEN_DIR.mkdir(exist_ok=True)
        GOLDEN_TRACE.write_text(
            json.dumps(_sequential_trace_shape(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {GOLDEN_TRACE}")
