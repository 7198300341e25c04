"""Span-based tracing: a wall-clock phase tree with counter deltas.

A :class:`Span` is one timed phase of a pipeline run — ``load``,
``reduce``, ``mccore``, ``compile``, ``enumerate``, ``merge`` — opened
and closed through :meth:`Tracer.span`'s context-manager API. Spans
nest: entering a span while another is open makes it a child, so a full
MSCE run produces a tree mirroring the call structure (reduction inside
the run, MCCore inside the reduction, and so on).

Besides wall time (read from an injectable :class:`~repro.obs.clock`
clock, so tests pin durations exactly), every span records the **delta
of every counter** in the tracer's bound registry between entry and
exit. A phase's cost is therefore visible in both dimensions at once:
seconds spent, and how many recursions / prunes / retries happened
inside it — which is exactly the data the paper's pruning ablations
(and those of the balanced-clique work of Chen et al.) tabulate.

The stack of open spans is context-local (one module-level
:class:`contextvars.ContextVar` shared by every tracer). Each thread,
and each asyncio task, nests its spans under its own open spans only,
so engine computes running side by side on the ``repro.net`` thread
pool build separate trees. Counter deltas still read the shared
registry, so they include whatever other threads counted meanwhile.

The disabled path is :class:`NullTracer`: ``span()`` hands back one
shared re-entrant no-op context manager, so tracing call sites cost a
method call and nothing else when observability is off.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Dict, List, Optional, Tuple

from repro.obs.clock import MONOTONIC
from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry

#: Root spans kept per tracer; later roots are counted but not stored
#: (bounds memory when a long-lived process traces thousands of runs).
MAX_ROOT_SPANS = 512


class Span:
    """One timed phase: name, duration, attributes, counter deltas, children."""

    __slots__ = ("name", "attrs", "started", "ended", "children", "counters", "_before")

    def __init__(self, name: str, attrs: Dict[str, object], started: float):
        self.name = name
        #: Caller-supplied labels (reduction method, dataset, ...).
        self.attrs = attrs
        self.started = started
        self.ended: Optional[float] = None
        self.children: List["Span"] = []
        #: Registry counter deltas over the span's lifetime (non-zero only).
        self.counters: Dict[str, int] = {}
        self._before: Dict[str, int] = {}

    @property
    def seconds(self) -> float:
        """Wall-clock duration (0.0 while the span is still open)."""
        return 0.0 if self.ended is None else self.ended - self.started

    def to_dict(self) -> Dict[str, object]:
        """Nested plain-dict form (the JSON trace exporter's unit)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "counters": dict(self.counters),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        state = f"{self.seconds:.6f}s" if self.ended is not None else "open"
        return f"Span({self.name!r}, {state}, children={len(self.children)})"


class _SpanContext:
    """Context manager closing one span on exit (exception or not)."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._span)


#: Spans open in the current context as ``(tracer, generation, span)``
#: entries, innermost last. An immutable tuple: a context copied from
#: another (an asyncio task, ``contextvars.copy_context``) starts under
#: the spans open at the copy and cannot alter its parent's stack.
_OPEN_SPANS: "ContextVar[Tuple[Tuple[Tracer, int, Span], ...]]" = ContextVar(
    "repro_open_spans", default=()
)


class Tracer:
    """Builds the span tree for one process, one phase at a time.

    Parameters
    ----------
    registry:
        The metrics registry whose counters are snapshotted at span
        entry and diffed at exit. Defaults to the shared null registry
        (deltas then stay empty).
    clock:
        Injectable time source (see :mod:`repro.obs.clock`).
    max_roots:
        Completed root spans retained; further roots are dropped and
        counted in :attr:`dropped_roots` so a long-lived service cannot
        grow without bound.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry = NULL_REGISTRY,
        clock=MONOTONIC,
        max_roots: int = MAX_ROOT_SPANS,
    ):
        self.registry = registry
        self.clock = clock
        self.max_roots = max_roots
        #: Completed + currently-open top-level spans, oldest first.
        self.roots: List[Span] = []
        #: Root spans discarded after :attr:`max_roots` was reached.
        self.dropped_roots = 0
        #: Bumped by :meth:`clear`; open spans of older generations are
        #: ignored, so no span opened after a clear nests under them.
        self._generation = 0

    def _open_spans(self) -> Tuple[Span, ...]:
        """This tracer's spans open in the current context, innermost last."""
        return tuple(
            span
            for tracer, generation, span in _OPEN_SPANS.get()
            if tracer is self and generation == self._generation
        )

    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a span named *name*; use as ``with tracer.span("reduce"):``.

        The span becomes a child of the span this context has open, or a
        new root. Counter deltas cover the tracer's bound registry.
        """
        span = Span(name, attrs, self.clock.now())
        span._before = {
            key: counter.value for key, counter in self.registry.counters.items()
        }
        stack = self._open_spans()
        if stack:
            stack[-1].children.append(span)
        elif len(self.roots) < self.max_roots:
            self.roots.append(span)
        else:
            self.dropped_roots += 1
        _OPEN_SPANS.set(_OPEN_SPANS.get() + ((self, self._generation, span),))
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.ended = self.clock.now()
        before = span._before
        span._before = {}
        for key, counter in self.registry.counters.items():
            delta = counter.value - before.get(key, 0)
            if delta:
                span.counters[key] = delta
        entries = _OPEN_SPANS.get()
        for depth in range(len(entries) - 1, -1, -1):
            if entries[depth][2] is span:
                kept = entries[:depth]
                for entry in entries[depth + 1 :]:
                    if entry[0] is not self:
                        kept += (entry,)
                    elif entry[2].ended is None:
                        # A child left open by an exception.
                        entry[2].ended = span.ended
                _OPEN_SPANS.set(kept)
                break

    def to_dict(self) -> Dict[str, object]:
        """The whole trace as a plain dict (see :mod:`repro.obs.export`)."""
        return {
            "spans": [span.to_dict() for span in self.roots],
            "dropped_roots": self.dropped_roots,
        }

    def clear(self) -> None:
        """Drop every recorded span (used between test runs)."""
        self.roots.clear()
        self._generation += 1
        _OPEN_SPANS.set(tuple(e for e in _OPEN_SPANS.get() if e[0] is not self))
        self.dropped_roots = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(roots={len(self.roots)}, open={len(self._open_spans())})"


class _NullSpanContext:
    """Shared re-entrant no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpanContext()


class NullTracer(Tracer):
    """The disabled path: ``span()`` returns one shared no-op context."""

    enabled = False

    def __init__(self):
        super().__init__(NULL_REGISTRY)

    def span(self, name: str, **attrs) -> _NullSpanContext:  # type: ignore[override]
        return _NULL_SPAN


#: Process-wide disabled tracer (the default observer's tracer).
NULL_TRACER = NullTracer()
