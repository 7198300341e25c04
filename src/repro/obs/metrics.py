"""Counters, gauges and histograms with deterministic snapshot merging.

A :class:`MetricsRegistry` is the numeric heart of the observability
subsystem: named :class:`Counter`/:class:`Gauge`/:class:`Histogram`
instruments, a plain-dict :meth:`~MetricsRegistry.snapshot` and an
additive :meth:`~MetricsRegistry.merge_snapshot`. Snapshots are what
crosses process boundaries — a worker ships its per-task registry
snapshot on the task's ``done`` message and the parent merges it, so
metric aggregation inherits the scheduler's exactly-once credit
discipline: a crashed attempt contributes nothing, a retried frame is
counted once, and the merged counters are bit-identical across worker
counts and injected crashes (see :mod:`repro.core.scheduler`).

Merging is commutative and associative for counters and histograms
(integer/float addition) and uses ``max`` for gauges, so the merged
registry does not depend on message arrival order — the property that
makes aggregated metrics deterministic under work stealing.

The disabled path is the :data:`NULL_REGISTRY` singleton: every
instrument it hands out is a shared no-op object whose methods do
nothing, so instrumented call sites cost one attribute lookup and one
no-op call when observability is off.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds (generic latency/size scale).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0,
    500.0, 1000.0, 5000.0,
)


class Counter:
    """A monotonically-increasing named value.

    ``value`` is a plain attribute on purpose: hot loops (the MSCE
    search counters) read and write it directly with native attribute
    speed, and :class:`~repro.core.bbe.SearchStats` exposes its fields
    as views over these attributes. Those direct writes are inherently
    single-threaded (one search, one registry). :meth:`inc`, by
    contrast, is reachable concurrently from the serving layer's
    executor threads — several tenant engines mirror into the same
    ambient counters — so it serialises on a shared lock; a plain
    ``value += amount`` there can lose increments between the load and
    the store.
    """

    __slots__ = ("name", "value")

    #: One process-wide lock for every counter: `inc` sits on request
    #: (not search) granularity, so contention is negligible, and a
    #: shared lock keeps Counter slot-only and picklable.
    _inc_lock = threading.Lock()

    def __init__(self, name: str, value: int = 0):
        self.name = name
        self.value = value

    def inc(self, amount: int = 1) -> None:
        """Atomically add *amount* (default 1) to the counter."""
        with Counter._inc_lock:
            self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value!r})"


def _reset_inc_lock() -> None:
    """Give a forked child its own, unheld :attr:`Counter._inc_lock`.

    A thread of the parent (a serving request, say) may hold the lock
    at fork time. The child inherits it held, with no thread left to
    release it, so its first :meth:`Counter.inc` — a scheduler helper's
    first finished task — would block forever.
    """
    Counter._inc_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_inc_lock)


class Gauge:
    """A named value that can go up and down (pool size, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0):
        self.name = name
        self.value = value

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        self.value = value

    def add(self, amount: float = 1) -> None:
        """Shift the gauge by *amount* (may be negative)."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, {self.value!r})"


class Histogram:
    """A cumulative-bucket histogram (Prometheus semantics).

    *bounds* are the inclusive upper edges of the buckets; observations
    above the last bound land in the implicit ``+Inf`` bucket. Counts,
    total and sum are exact, so two histograms built from the same
    multiset of observations are equal regardless of order — the
    property snapshot merging relies on.
    """

    __slots__ = ("name", "bounds", "counts", "total", "count")

    def __init__(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS):
        self.name = name
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must be sorted, got {bounds!r}")
        #: Per-bucket observation counts (one extra slot for +Inf).
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        #: Sum of every observed value.
        self.total: float = 0.0
        #: Number of observations.
        self.count: int = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        self.counts[index] += 1
        self.total += value
        self.count += 1

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.total!r})"


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first use (``registry.counter("x")``)
    and shared thereafter; names are free-form strings (the Prometheus
    exporter sanitises them at render time).
    """

    enabled = True

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self):
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- instrument accessors -------------------------------------------
    def counter(self, name: str) -> Counter:
        """Get or create the counter called *name*."""
        instrument = self.counters.get(name)
        if instrument is None:
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called *name*."""
        instrument = self.gauges.get(name)
        if instrument is None:
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the histogram called *name* (bounds fixed at creation)."""
        instrument = self.histograms.get(name)
        if instrument is None:
            instrument = self.histograms[name] = Histogram(name, bounds)
        return instrument

    def counter_value(self, name: str, default: int = 0) -> int:
        """Read a counter's value without creating it."""
        instrument = self.counters.get(name)
        return default if instrument is None else instrument.value

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict]:
        """Return the registry's state as plain picklable dicts.

        The shape is the wire format of cross-process aggregation:
        ``{"counters": {name: int}, "gauges": {name: float},
        "histograms": {name: {"bounds": [...], "counts": [...],
        "sum": float, "count": int}}}``.
        """
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "gauges": {name: g.value for name, g in self.gauges.items()},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for name, h in self.histograms.items()
            },
        }

    def merge_snapshot(self, snapshot: Optional[Dict[str, Dict]]) -> None:
        """Fold *snapshot* into this registry (``None`` is a no-op).

        Counters and histograms add; gauges keep the maximum (the only
        order-independent choice, suiting high-water-mark semantics).
        Histograms with mismatched bounds raise — that is a programming
        error, never a runtime condition.
        """
        if not snapshot:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            gauge.value = max(gauge.value, value)
        for name, payload in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, payload["bounds"])
            if list(histogram.bounds) != [float(b) for b in payload["bounds"]]:
                raise ValueError(
                    f"histogram {name!r} bounds mismatch: "
                    f"{histogram.bounds} vs {payload['bounds']}"
                )
            for i, count in enumerate(payload["counts"]):
                histogram.counts[i] += count
            histogram.total += payload["sum"]
            histogram.count += payload["count"]

    def clear(self) -> None:
        """Drop every instrument (used between test runs)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


class _NullCounter(Counter):
    """Shared write-sink counter: increments vanish."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """The disabled path: every accessor returns a shared no-op instrument.

    ``snapshot`` is always empty and ``merge_snapshot`` discards its
    argument, so code can treat an observer's registry uniformly whether
    observability is on or off.
    """

    enabled = False

    __slots__ = ("_counter", "_gauge", "_histogram")

    def __init__(self):
        super().__init__()
        self._counter = _NullCounter("null")
        self._gauge = _NullGauge("null")
        self._histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._counter

    def gauge(self, name: str) -> Gauge:
        return self._gauge

    def histogram(self, name: str, bounds: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._histogram

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def merge_snapshot(self, snapshot: Optional[Dict[str, Dict]]) -> None:
        pass


#: Process-wide disabled registry (the default observer's backing store).
NULL_REGISTRY = NullRegistry()
