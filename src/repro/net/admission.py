"""Admission control: shed early, shed cheap, never melt.

A clique search is seconds of CPU; a socket accept is microseconds. An
overloaded server that admits everything therefore dies the slow way —
queues grow, every request times out, memory climbs, and *no one* gets
an answer. The robust alternative is classic admission control: a
hard bound on concurrently admitted work, a bounded wait queue on top,
and a cheap structured rejection (HTTP 503 + ``Retry-After``) for
everything past the bound, issued *before* the request costs anything.

:class:`AdmissionController` implements that bound as plain counters on
the server's event loop (no locks needed — admission decisions happen
on loop callbacks; tickets are released via ``call_soon_threadsafe``
when the work ran on an executor thread):

* at most ``max_concurrency`` tickets are *running* (this also sizes
  the server's executor pool);
* at most ``max_queue_depth`` more are admitted-but-waiting;
* anything beyond is shed with reason ``"queue_full"``;
* when the process's peak RSS exceeds the optional soft
  ``memory_budget_bytes`` (see :func:`repro.limits.rss_bytes`), *new*
  work is shed with reason ``"memory"`` while admitted work finishes —
  the budget sheds load instead of tripping running searches.

``Retry-After`` is not a constant: the controller keeps an exponential
moving average of recent service times and suggests
``(standing work / concurrency) * EMA`` seconds, clamped to
``[1, 30]`` — an overloaded server tells its clients roughly when the
backlog will actually drain, which is what turns a retry storm into a
staggered trickle.

Only *leaders* take tickets: requests that coalesce onto an in-flight
computation (:mod:`repro.net.coalesce`) are always admitted, because
their marginal cost is one waiter slot, not a search. This pairing is
what keeps goodput flat on duplicate-heavy overload — the benchmark
``benchmarks/test_serve_http.py`` gates exactly that.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.limits import rss_bytes

__all__ = ["AdmissionController", "Shed", "Ticket"]

#: Clamp bounds for the suggested Retry-After (seconds).
RETRY_AFTER_MIN = 1.0
RETRY_AFTER_MAX = 30.0

#: Smoothing factor of the service-time EMA (higher = more reactive).
SERVICE_EMA_ALPHA = 0.3


class Shed(Exception):
    """Raised when admission is refused; carries the client guidance."""

    def __init__(self, reason: str, retry_after: float):
        super().__init__(f"admission refused: {reason}")
        self.reason = reason
        #: Suggested client back-off in whole seconds (>= 1).
        self.retry_after = retry_after


class Ticket:
    """One admitted unit of work; release exactly once when done."""

    __slots__ = ("_controller", "_started", "_released")

    def __init__(self, controller: "AdmissionController"):
        self._controller = controller
        self._started = controller._clock()
        self._released = False

    def release(self) -> None:
        """Return the ticket and feed the service-time EMA."""
        if self._released:
            return
        self._released = True
        self._controller._release(self._controller._clock() - self._started)

    def __enter__(self) -> "Ticket":
        return self

    def __exit__(self, *_exc) -> None:
        self.release()


class AdmissionController:
    """Bounded-admission gate with load-aware ``Retry-After`` estimates.

    Parameters
    ----------
    max_concurrency:
        Tickets allowed to run at once (size the executor to match).
    max_queue_depth:
        Additional tickets admitted beyond *max_concurrency*; the total
        standing bound is the sum of the two.
    memory_budget_bytes:
        Optional soft peak-RSS bound in bytes (positive); above it, new
        admissions shed with reason ``"memory"`` (``None`` disables the
        check).
    initial_service_seconds:
        Seed of the service-time EMA before any work completed.
    """

    def __init__(
        self,
        max_concurrency: int = 4,
        max_queue_depth: int = 16,
        memory_budget_bytes: Optional[int] = None,
        initial_service_seconds: float = 0.5,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_concurrency < 1:
            raise ValueError(f"max_concurrency must be >= 1, got {max_concurrency}")
        if max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth}")
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError(f"memory_budget_bytes must be > 0, got {memory_budget_bytes}")
        self.max_concurrency = max_concurrency
        self.max_queue_depth = max_queue_depth
        self.memory_budget_bytes = memory_budget_bytes
        self._clock = clock
        self._standing = 0
        self._service_ema = max(1e-3, initial_service_seconds)
        #: Monotone counters (exported via the server's /metrics).
        self.admitted = 0
        self.completed = 0
        self.shed: Dict[str, int] = {"queue_full": 0, "memory": 0}

    @property
    def capacity(self) -> int:
        """Total standing bound (running + queued)."""
        return self.max_concurrency + self.max_queue_depth

    @property
    def standing(self) -> int:
        """Tickets currently admitted and not yet released."""
        return self._standing

    def retry_after(self) -> float:
        """Suggested client back-off, from the backlog drain estimate."""
        backlog = max(1, self._standing - self.max_concurrency + 1)
        estimate = backlog * self._service_ema / self.max_concurrency
        return float(min(RETRY_AFTER_MAX, max(RETRY_AFTER_MIN, estimate)))

    def over_memory_budget(self) -> bool:
        """Whether peak RSS currently exceeds the soft budget."""
        if self.memory_budget_bytes is None:
            return False
        peak = rss_bytes()
        return peak is not None and peak > self.memory_budget_bytes

    def admit(self) -> Ticket:
        """Take a ticket, or raise :class:`Shed` with client guidance."""
        if self._standing >= self.capacity:
            self.shed["queue_full"] += 1
            raise Shed("queue_full", self.retry_after())
        if self.over_memory_budget():
            self.shed["memory"] += 1
            raise Shed("memory", self.retry_after())
        self._standing += 1
        self.admitted += 1
        return Ticket(self)

    def _release(self, elapsed: float) -> None:
        self._standing = max(0, self._standing - 1)
        self.completed += 1
        self._service_ema += SERVICE_EMA_ALPHA * (max(0.0, elapsed) - self._service_ema)

    def stats(self) -> Dict[str, object]:
        """Counter snapshot for introspection endpoints."""
        return {
            "standing": self._standing,
            "capacity": self.capacity,
            "max_concurrency": self.max_concurrency,
            "max_queue_depth": self.max_queue_depth,
            "admitted": self.admitted,
            "completed": self.completed,
            "shed": dict(self.shed),
            "service_ema_seconds": self._service_ema,
            "retry_after_seconds": self.retry_after(),
        }
