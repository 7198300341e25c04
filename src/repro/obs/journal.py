"""JSONL event journal for scheduler and guard lifecycle events.

Counters say *how much*; the journal says *what happened, in order*:
helper starts, spawns and deaths, spawn failures, frame spawns / steals
/ retries / quarantines, degradations and resource guard trips. Each event is one flat JSON object with a monotonic
``ts`` and an ``event`` name, held in memory (bounded) and optionally
appended to a JSONL file as it happens.

File writes are one ``write()`` call per event on a line-buffered
append-mode handle. A forked worker process reopens the file for itself
(see :func:`_reopen_after_fork`) and appends to the same path, so events
from parent and workers interleave per line, never mid-line — the file
stays valid JSONL under the parallel enumerator.

The disabled path is the :data:`NULL_JOURNAL` singleton whose ``emit``
does nothing.
"""

from __future__ import annotations

import json
import os
import weakref
from typing import Dict, List, Optional, TextIO

from repro.obs.clock import MONOTONIC

#: In-memory events retained per journal; older events stay only in the
#: JSONL file (if any) once the cap is reached.
MAX_EVENTS = 10_000


#: Journals with an open file handle (reopened in forked children).
_OPEN_JOURNALS: "weakref.WeakSet[EventJournal]" = weakref.WeakSet()

#: Handles a forked child inherited, kept alive so they are never flushed.
_INHERITED_HANDLES: List[TextIO] = []


def _open_append(path: str) -> TextIO:
    return open(path, "a", encoding="utf-8", buffering=1)


def _reopen_after_fork() -> None:
    """Give a forked child its own handle on every open journal's file.

    A parent thread may be inside ``write()`` on a journal handle at fork
    time. The child inherits the handle's buffer lock held, with no
    thread left to release it, so its first event — a helper's
    ``guard_trip``, say — would block forever. The child writes through
    a fresh handle on the same path instead. The inherited handle stays
    referenced and is never closed: deallocating it would flush it,
    which takes the same lock.
    """
    for journal in list(_OPEN_JOURNALS):
        _INHERITED_HANDLES.append(journal._handle)
        try:
            journal._handle = _open_append(journal.path)
        except OSError:
            # The child keeps its events in memory only.
            journal._handle = None
            _OPEN_JOURNALS.discard(journal)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reopen_after_fork)


class EventJournal:
    """An append-only event log, in memory and optionally on disk.

    Parameters
    ----------
    path:
        When given, every event is also appended to this file as one
        JSON line (created if missing, opened in append mode).
    clock:
        Injectable time source for the ``ts`` field.
    max_events:
        In-memory retention cap; excess events are dropped from memory
        (counted in :attr:`dropped`) but still written to the file.
    """

    enabled = True

    def __init__(self, path: Optional[str] = None, clock=MONOTONIC, max_events: int = MAX_EVENTS):
        self.clock = clock
        self.path = str(path) if path is not None else None
        self.max_events = max_events
        #: In-memory event dicts, oldest first.
        self.events: List[Dict[str, object]] = []
        #: Events evicted from memory by the cap (the file keeps them).
        self.dropped = 0
        self._handle = _open_append(self.path) if self.path else None
        if self._handle is not None:
            _OPEN_JOURNALS.add(self)

    def emit(self, event: str, **fields) -> Dict[str, object]:
        """Record one event; returns the event dict."""
        record: Dict[str, object] = {"ts": self.clock.now(), "event": event}
        record.update(fields)
        if len(self.events) < self.max_events:
            self.events.append(record)
        else:
            self.dropped += 1
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return record

    def of_kind(self, event: str) -> List[Dict[str, object]]:
        """The in-memory events with the given ``event`` name."""
        return [record for record in self.events if record["event"] == event]

    def close(self) -> None:
        """Close the JSONL file handle (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            _OPEN_JOURNALS.discard(self)

    def clear(self) -> None:
        """Drop the in-memory events (the file, if any, is untouched)."""
        self.events.clear()
        self.dropped = 0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(events={len(self.events)}, path={self.path!r})"


class NullJournal(EventJournal):
    """The disabled path: ``emit`` discards everything."""

    enabled = False

    def __init__(self):
        super().__init__(path=None)

    def emit(self, event: str, **fields) -> Dict[str, object]:
        return {}


#: Process-wide disabled journal (the default observer's journal).
NULL_JOURNAL = NullJournal()
