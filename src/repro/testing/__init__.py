"""Test-support utilities shipped with the library.

:mod:`repro.testing.faults` is a fault-injection harness for the
parallel execution layer: it lets tests kill helper processes at chosen
frame or spawn counts, poison individual tasks, delay queue messages,
refuse helper launches and interrupt the scheduler's parent loop — all through
hooks the production code consults at its failure-prone seams. With no
plan installed every hook is a no-op costing one ``None`` comparison.

:mod:`repro.testing.chaos` is the companion harness for the network
serving layer: a background-thread :class:`~repro.testing.chaos.ServerHarness`
running a real :class:`~repro.net.server.CliqueServer`, a raw-socket
HTTP client, a slow-loris generator, an abandon-the-request client, and
closed/open-loop load drivers producing
:class:`~repro.testing.chaos.LoadReport` summaries.
"""

from repro.testing.chaos import (
    HttpReply,
    LoadReport,
    ServerHarness,
    closed_loop,
    half_request,
    http_request,
    open_loop,
    slow_loris,
)
from repro.testing.faults import FaultPlan, InjectedFault, clear, injected, install

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "install",
    "clear",
    "injected",
    "HttpReply",
    "LoadReport",
    "ServerHarness",
    "closed_loop",
    "half_request",
    "http_request",
    "open_loop",
    "slow_loris",
]
