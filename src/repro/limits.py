"""Cooperative wall-clock and memory guards for long-running searches.

A :class:`ResourceGuard` is a small, shareable "should I stop?" oracle
threaded from the public entry points (``enumerate_parallel``, ``MSCE``)
down into the frame loop of
:class:`repro.fastpath.search.FrameSearch`. Instead of raising out of
the middle of a branch-and-bound recursion, a tripped guard lets the
search stop *cooperatively*: the remaining frames are recorded as
incomplete work and a partial result is returned, which is what lets a
deadline or memory ceiling yield a usable
:class:`~repro.core.bbe.EnumerationResult` instead of losing minutes of
completed subtrees.

The guard is latched: once it trips, every subsequent :meth:`check`
returns the same reason immediately, so a loop over many components (or
many queued frames) drains fast after the first trip. Deadlines are
compared against a caller-supplied clock — ``time.monotonic`` for
cross-process deadlines (``CLOCK_MONOTONIC`` is system-wide on the
POSIX platforms the parallel path runs on), ``time.perf_counter`` for
the single-process enumerator's ``time_limit``.

Memory is measured with ``resource.getrusage`` (peak RSS), polled every
:data:`MEMORY_STRIDE` checks to keep the per-frame cost to one integer
comparison. On platforms without the ``resource`` module the memory
guard is inert.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional

#: Frames between two peak-RSS polls (must be a power of two).
MEMORY_STRIDE = 64

#: Reason strings a tripped guard reports.
REASON_DEADLINE = "deadline"
REASON_MEMORY = "memory"

_BUDGET_SUFFIXES = {"kb": 1 << 10, "mb": 1 << 20, "gb": 1 << 30,
                    "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}

#: Suffix -> seconds scale for :func:`parse_deadline`. Ordered so the
#: longer suffix is tried first ("150ms" must not parse as "150m" + s).
_DEADLINE_SUFFIXES = (("ms", 1e-3), ("s", 1.0))

try:  # pragma: no cover - import guard for non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover - Windows
    _resource = None


def rss_bytes() -> Optional[int]:
    """Peak resident-set size of this process in bytes (``None`` if unknown).

    ``ru_maxrss`` is a high-water mark, which is exactly the right
    semantics for a ceiling: a search that ever exceeded the budget
    stays tripped even if the allocator returned pages to the OS.
    """
    if _resource is None:  # pragma: no cover - Windows
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS reports bytes.
    return peak if sys.platform == "darwin" else peak * 1024


def parse_memory_budget(text: str) -> int:
    """Parse a byte count with an optional ``kb``/``mb``/``gb`` suffix.

    Non-positive counts are rejected: as an admission budget
    (:mod:`repro.net.admission`) zero bytes would shed every request.
    """
    value = text.strip().lower()
    scale = 1
    for suffix, multiplier in _BUDGET_SUFFIXES.items():
        if value.endswith(suffix):
            value = value[: -len(suffix)].strip()
            scale = multiplier
            break
    try:
        budget = int(value) * scale
    except ValueError as exc:
        raise ValueError(
            f"invalid memory budget {text!r}: expected bytes with an "
            "optional kb/mb/gb suffix"
        ) from exc
    if budget <= 0:
        raise ValueError(f"invalid memory budget {text!r}: must be a positive byte count")
    return budget


def parse_deadline(text: str) -> float:
    """Parse a duration with an optional ``ms``/``s`` suffix into seconds.

    Mirrors :func:`parse_memory_budget`: a bare number means seconds,
    ``"150ms"`` means 0.15 and ``"2.5s"`` means 2.5. The serving layer
    (:mod:`repro.net`) uses this for per-request deadline strings
    (``?deadline=`` / ``X-Deadline``). Non-positive or non-finite
    durations are rejected — a deadline of zero would shed every
    request before it started.
    """
    value = text.strip().lower()
    scale = 1.0
    for suffix, multiplier in _DEADLINE_SUFFIXES:
        if value.endswith(suffix):
            value = value[: -len(suffix)].strip()
            scale = multiplier
            break
    try:
        seconds = float(value) * scale
    except ValueError as exc:
        raise ValueError(
            f"invalid deadline {text!r}: expected seconds with an "
            "optional ms/s suffix"
        ) from exc
    if not seconds > 0 or seconds != seconds or seconds == float("inf"):
        raise ValueError(f"invalid deadline {text!r}: must be a positive, finite duration")
    return seconds


class ResourceGuard:
    """Latched deadline / memory-ceiling check, cheap enough per frame.

    Parameters
    ----------
    deadline:
        Absolute timestamp (on *clock*'s scale) after which the guard
        trips with reason ``"deadline"``, or ``None`` for no deadline.
    max_memory_bytes:
        Peak-RSS ceiling tripping with reason ``"memory"``, or ``None``.
    clock:
        The time source *deadline* is compared against. Use
        ``time.monotonic`` when worker processes must agree on the same
        deadline, ``time.perf_counter`` for process-local limits.
    """

    __slots__ = (
        "deadline",
        "max_memory_bytes",
        "clock",
        "_calls",
        "_tripped",
    )

    def __init__(
        self,
        deadline: Optional[float] = None,
        max_memory_bytes: Optional[int] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.deadline = deadline
        self.max_memory_bytes = max_memory_bytes
        self.clock = clock
        self._calls = 0
        self._tripped: Optional[str] = None

    @property
    def enabled(self) -> bool:
        """Whether any limit is configured at all."""
        return self.deadline is not None or self.max_memory_bytes is not None

    @property
    def tripped(self) -> Optional[str]:
        """The latched trip reason, without re-checking the limits."""
        return self._tripped

    def remaining_time(self) -> Optional[float]:
        """Seconds left until the deadline (``None`` without one).

        Clamped at ``0.0`` once the deadline has passed, so the value
        can be handed straight to ``time_limit=`` parameters
        (:func:`repro.core.parallel.enumerate_parallel`,
        :meth:`repro.serve.SignedCliqueEngine.enumerate_with_stats`) —
        this is how the network layer propagates a request deadline
        into the search it admits: the compute inherits exactly the
        budget its request has left, never more.
        """
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.clock())

    def check(self) -> Optional[str]:
        """Return the trip reason (``"deadline"`` / ``"memory"``) or ``None``.

        The first memory poll happens on the first call, then every
        :data:`MEMORY_STRIDE` calls; the deadline is compared on every
        call (one clock read).
        """
        if self._tripped is not None:
            return self._tripped
        if self.deadline is not None and self.clock() > self.deadline:
            self._trip(REASON_DEADLINE)
            return self._tripped
        if self.max_memory_bytes is not None:
            if (self._calls & (MEMORY_STRIDE - 1)) == 0:
                peak = rss_bytes()
                if peak is not None and peak > self.max_memory_bytes:
                    self._trip(REASON_MEMORY)
                    self._calls += 1
                    return self._tripped
            self._calls += 1
        return None

    def _trip(self, reason: str) -> None:
        """Latch *reason* and journal the (one-time) trip event."""
        self._tripped = reason
        # Imported lazily: limits must stay importable before repro.obs
        # (and the event is emitted at most once per guard).
        from repro.obs import runtime as obs

        obs.journal_event(
            "guard_trip",
            reason=reason,
            deadline=self.deadline,
            max_memory_bytes=self.max_memory_bytes,
        )

    def __repr__(self) -> str:
        return (
            f"ResourceGuard(deadline={self.deadline!r}, "
            f"max_memory_bytes={self.max_memory_bytes!r}, "
            f"tripped={self._tripped!r})"
        )


def make_guard(
    deadline: Optional[float],
    max_memory_bytes: Optional[int],
    clock: Callable[[], float] = time.monotonic,
) -> Optional[ResourceGuard]:
    """Build a guard, or ``None`` when no limit is configured."""
    if deadline is None and max_memory_bytes is None:
        return None
    return ResourceGuard(deadline, max_memory_bytes, clock=clock)
