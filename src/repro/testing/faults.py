"""Fault-injection harness for the parallel enumeration stack.

The resilient scheduler (:mod:`repro.core.scheduler`) is only worth
trusting if its failure paths are exercised deterministically. This
module provides the injection points the execution layer consults at
its seams:

* **helper death** — :func:`worker_tick` returns a per-frame callback
  that hard-kills a helper process (``os._exit``) once it has
  processed a chosen number of frames. A lost helper is never
  replaced, so each planned kill fires at most once per run; the
  parent, which searches as worker 0, is never killed. The same
  callback can instead fire on a helper's spawn messages, killing it
  mid-task right after it shed a frame.

  The queue feeder is flushed before exiting, so the death is abrupt
  for the scheduler (no ``done`` message) but leaves no torn message in
  the pipe.
* **poisoned tasks** — :func:`check_task` raises :class:`InjectedFault`
  for chosen task ids on *every* attempt, in a helper or the parent,
  driving the retry budget to exhaustion and the frame into quarantine.
* **message delay** — :func:`message_delay` sleeps before each helper
  result message, widening race windows and making deadline tests
  deterministic.
* **spawn failure** — :func:`check_worker_spawn` makes every helper
  process launch fail, collapsing the pool when it starts.
* **parent interrupt** — :func:`parent_message_tick` raises
  ``KeyboardInterrupt`` in the scheduler's parent loop after a chosen
  number of handled helper messages, simulating Ctrl-C mid-enumeration.

Plans are installed process-globally (:func:`install` / :func:`clear`,
or the :func:`injected` context manager). The scheduler's helper
processes are forked *after* the parent seeds its state, so an
installed plan is inherited by every helper automatically — no
environment variables or pickled configuration needed. With no plan
installed every hook short-circuits on one ``None`` comparison, so the
harness costs nothing in production.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional


class InjectedFault(RuntimeError):
    """An artificial failure raised by the fault-injection harness.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults simulate arbitrary runtime breakage (a segfaulting kernel, a
    refused process launch), so the production code must handle them through
    the same generic paths it uses for real failures.
    """


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run.

    Attributes
    ----------
    kill_at_frame:
        ``{helper slot: frame count}`` — hard-kill the slot's helper
        once it has processed that many search frames.
    kill_after_spawns:
        ``{helper slot: spawn count}`` — hard-kill the slot's helper
        right after it has sent that many spawn messages,
        so the task it dies in has credited spawns to replay.
    poison_tasks:
        Task ids whose processing always raises :class:`InjectedFault`
        (every attempt, helper or parent) — exercises retry + quarantine.
    message_delay:
        Seconds each helper sleeps before sending a result message.
    fail_worker_spawn:
        Make every helper process launch fail.
    interrupt_parent_after:
        Raise ``KeyboardInterrupt`` in the scheduler's parent loop after
        this many helper messages have been handled (``None`` = never).
    """

    kill_at_frame: Dict[int, int] = field(default_factory=dict)
    kill_after_spawns: Dict[int, int] = field(default_factory=dict)
    poison_tasks: FrozenSet[int] = frozenset()
    message_delay: float = 0.0
    fail_worker_spawn: bool = False
    interrupt_parent_after: Optional[int] = None


_PLAN: Optional[FaultPlan] = None


def install(plan: FaultPlan) -> None:
    """Install *plan* process-wide (inherited by forked workers)."""
    global _PLAN
    _PLAN = plan


def clear() -> None:
    """Remove any installed plan (every hook becomes a no-op again)."""
    global _PLAN
    _PLAN = None


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or ``None``."""
    return _PLAN


@contextmanager
def injected(plan: FaultPlan):
    """Context manager: install *plan*, then always clear it."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# ---------------------------------------------------------------------------
# Hooks consulted by the production code
# ---------------------------------------------------------------------------
def check_worker_spawn(slot: int) -> None:
    """Raise :class:`InjectedFault` when worker spawn failure is planned."""
    if _PLAN is not None and _PLAN.fail_worker_spawn:
        raise InjectedFault(f"injected fault: spawn of worker slot {slot} refused")


def check_task(task_id: int) -> None:
    """Raise :class:`InjectedFault` for poisoned task ids."""
    if _PLAN is not None and task_id in _PLAN.poison_tasks:
        raise InjectedFault(f"injected fault: task {task_id} is poisoned")


def worker_tick(
    slot: int, result_queue, spawns: bool = False
) -> Optional[Callable[[], None]]:
    """Per-frame kill callback for a helper, or ``None`` when unplanned.

    With *spawns* the callback counts spawn messages instead of frames.
    The returned callable ``os._exit(1)``s the process once the slot's
    frame (spawn) count is reached; the parent or a surviving helper
    then re-runs its task. The result queue's feeder thread is flushed
    first: messages already sent (task spawns) reach the parent, while
    the in-progress task's ``done`` never will — exactly the
    abrupt-death scenario the scheduler's retry accounting must absorb. Flushing also releases the
    queue's shared write lock, which a raw ``os._exit`` could leave
    held, deadlocking sibling workers.
    """
    if _PLAN is None:
        return None
    limit = (_PLAN.kill_after_spawns if spawns else _PLAN.kill_at_frame).get(slot)
    if limit is None:
        return None
    remaining = [limit]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] <= 0:
            try:
                result_queue.close()
                result_queue.join_thread()
            finally:
                os._exit(1)

    return tick


def message_delay() -> None:
    """Sleep before a worker result message when a delay is planned."""
    if _PLAN is not None and _PLAN.message_delay > 0.0:
        time.sleep(_PLAN.message_delay)


def parent_message_tick(messages_handled: int) -> None:
    """Raise ``KeyboardInterrupt`` at the planned parent message count."""
    if (
        _PLAN is not None
        and _PLAN.interrupt_parent_after is not None
        and messages_handled >= _PLAN.interrupt_parent_after
    ):
        raise KeyboardInterrupt(
            f"injected fault: parent interrupted after {messages_handled} messages"
        )
