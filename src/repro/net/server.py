"""`CliqueServer`: the asyncio HTTP front door over the serving engine.

One process, one event loop, one bounded thread pool. The loop owns all
protocol work (parsing, routing, admission, coalescing bookkeeping);
the pool runs the actual clique searches, sized exactly to the
admission controller's ``max_concurrency`` so admitted work is the only
work. Per request the server:

1. **parses** under hard limits and timeouts (:mod:`repro.net.http` —
   a slow-loris client gets a 408, an oversized body a 413);
2. **resolves the tenant** (:mod:`repro.net.tenants`) and its current
   graph-version fingerprint — a lock-free read: the event loop never
   takes an engine lock, so a slow search cannot stall the loop (and
   with it every tenant, ``/healthz`` and the timeouts);
3. **derives a deadline** from ``?deadline=`` / ``X-Deadline``
   (:func:`repro.limits.parse_deadline`, capped by the server maximum)
   and builds a :class:`~repro.limits.ResourceGuard` whose
   :meth:`~repro.limits.ResourceGuard.remaining_time` propagates into
   the engine as the compute's ``time_limit``;
4. **coalesces** onto an in-flight identical computation when one
   exists — the single-flight key is ``(tenant, fingerprint, kind,
   params)``, so mutations (which bump the fingerprint) start new
   flights. A flight's compute holds the engine lock and re-reads the
   fingerprint inside it, and the response carries that
   computed-against fingerprint; if a write slipped in between keying
   and compute, the response is flagged ``version_changed`` rather
   than mislabelled;
5. otherwise **admits** the new computation through the
   :class:`~repro.net.admission.AdmissionController` — or sheds it
   with a 503 + ``Retry-After`` *before* it costs a search;
6. **awaits within the deadline**: a request whose budget runs out
   gets a structured 504 (the shared computation keeps running for
   other waiters and warms the cache for the retry);
7. **renders** the answer on the loop. The ``cliques`` array is the bulk
   of a body (up to ``max_response_cliques`` cliques), so its JSON text
   is encoded once per complete answer and kept in the tenant's memo
   (:attr:`Tenant.encoded <repro.net.tenants.Tenant>`), keyed by the
   flight key with the fingerprint the answer was *computed on*; a
   repeat read of the same graph version splices the stored text in
   and encodes only the small per-request fields (``stats``, ``count``,
   ``elapsed_ms``, ``coalesced``, ...). ``"cliques"`` sorts first among
   the payload's keys, so ``{"cliques": <text>, <rest>}`` is byte for
   byte the ``json.dumps(payload, sort_keys=True)`` of the whole
   payload. A partial answer (deadline, truncation, interruption) is
   encoded for its own response and never stored.

Every failure is answered as a structured JSON envelope
``{"error": {"code", "message", "status"}}`` scoped to its own request;
the connection loop and the listener survive anything a request throws.
Counters mirror to the ambient observer as ``net_*`` metrics and the
event journal (``net_shed`` / ``net_deadline`` / ``net_error`` ...), so
the existing Prometheus exporter — mounted at ``GET /metrics`` — tells
the whole overload story, per tenant where it matters.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.limits import ResourceGuard, parse_deadline
from repro.models import resolve_model
from repro.net.admission import AdmissionController, Shed
from repro.net.coalesce import SingleFlight
from repro.net.http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    Request,
    json_body,
    read_request,
    render_response,
)
from repro.net.tenants import Tenant, TenantError, TenantRegistry, UnknownTenant
from repro.obs import runtime as obs
from repro.obs.export import prometheus_text

__all__ = ["CliqueServer", "ServerConfig"]

#: Server counter names, mirrored as ``net_<name>`` observer counters.
COUNTER_NAMES = (
    "connections",
    "requests",
    "responses",
    "errors",
    "bad_requests",
    "shed",
    "deadline_exceeded",
    "flights",
    "coalesced",
    "computes",
    "edits",
    "slow_client_drops",
    "encodes",
    "encode_hits",
)


@dataclass
class ServerConfig:
    """Tunables of one :class:`CliqueServer` (all have safe defaults)."""

    host: str = "127.0.0.1"
    port: int = 8265
    #: Searches allowed to run at once (executor width).
    max_concurrency: int = 4
    #: Admitted-but-waiting bound on top of ``max_concurrency``.
    max_queue_depth: int = 16
    #: Deadline applied when the request names none (seconds).
    default_deadline: float = 30.0
    #: Hard cap on any requested deadline (seconds).
    max_deadline: float = 300.0
    #: Budget for reading a request head / body chunk (slow-loris cap).
    read_timeout: float = 10.0
    #: Budget for draining a response to a slow reader.
    write_timeout: float = 10.0
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    #: Soft peak-RSS bound; above it new computations are shed.
    memory_budget_bytes: Optional[int] = None
    #: Single-flight coalescing of identical in-flight requests.
    coalesce: bool = True
    #: Maximum cliques serialised into one response payload.
    max_response_cliques: int = 1000


def _clique_payload(clique) -> Dict[str, object]:
    return {
        "nodes": sorted(clique.nodes, key=repr),
        "size": clique.size,
        "positive_edges": clique.positive_edges,
        "negative_edges": clique.negative_edges,
    }


def _nodes_digest(nodes) -> str:
    payload = "\x1f".join(sorted(repr(node) for node in nodes))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class CliqueServer:
    """Serve signed-clique queries for a :class:`TenantRegistry` over HTTP.

    Lifecycle: :meth:`start` binds the listener (resolving ``port=0``
    to the real ephemeral port), :meth:`serve_forever` blocks, and
    :meth:`stop` closes the listener, cancels connection handlers and
    shuts the executor down. The server never dies from request-scoped
    failures; only :meth:`stop` (or loop teardown) ends it.
    """

    def __init__(self, registry: TenantRegistry, config: Optional[ServerConfig] = None):
        self.registry = registry
        self.config = config or ServerConfig()
        self.flights = SingleFlight()
        self.admission = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_queue_depth=self.config.max_queue_depth,
            memory_budget_bytes=self.config.memory_budget_bytes,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-net",
        )
        self._server: Optional["asyncio.base_events.Server"] = None
        self._connections: "set[asyncio.Task]" = set()
        self._started_at = time.time()
        #: Plain mirror of the ``net_*`` observer counters.
        self.counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self.host = self.config.host
        self.port = self.config.port

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listener; returns the (host, actual port) pair."""
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        obs.journal_event("net_started", host=self.host, port=self.port)
        return self.host, self.port

    async def serve_forever(self) -> None:
        """Accept connections until cancelled / stopped."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass

    async def stop(self) -> None:
        """Stop accepting, drop live connections, release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        self._executor.shutdown(wait=True)
        obs.journal_event("net_stopped", host=self.host, port=self.port)

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        obs.counter("net_" + name).inc(amount)

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    def _on_connection(self, reader, writer) -> None:
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _handle_connection(self, reader, writer) -> None:
        """Serve keep-alive requests on one socket; outlive any failure."""
        self._bump("connections")
        try:
            while True:
                try:
                    request = await read_request(
                        reader,
                        read_timeout=self.config.read_timeout,
                        max_body_bytes=self.config.max_body_bytes,
                    )
                except HttpError as error:
                    self._bump("bad_requests")
                    if error.status == 408:
                        self._bump("slow_client_drops")
                        obs.journal_event("net_slow_client", code=error.code)
                    await self._write(writer, *self._error_response(error, close=True))
                    return
                if request is None:
                    return  # client closed between requests
                status, payload, extra = await self._safe_dispatch(request)
                keep_alive = not request.wants_close() and status < 500
                content_type = (
                    "text/plain; version=0.0.4; charset=utf-8"
                    if request.path == "/metrics"
                    and isinstance(payload, str)
                    else "application/json"
                )
                blob, keep_alive = render_response(
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=extra,
                    content_type=content_type,
                )
                if not await self._write(writer, blob, keep_alive):
                    return
                if not keep_alive:
                    return
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - connection must never kill the server
            obs.journal_event("net_connection_error", detail=traceback.format_exc(limit=3))
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    async def _write(self, writer, blob: bytes, keep_alive: bool) -> bool:
        """Write + drain under the write timeout; False = drop client."""
        try:
            writer.write(blob)
            await asyncio.wait_for(writer.drain(), self.config.write_timeout)
        except asyncio.TimeoutError:
            self._bump("slow_client_drops")
            obs.journal_event("net_slow_client", code="write_timeout")
            return False
        except (ConnectionError, BrokenPipeError, OSError):
            return False
        return keep_alive

    def _error_response(
        self, error: HttpError, close: bool = False
    ) -> Tuple[bytes, bool]:
        payload = {
            "error": {
                "code": error.code,
                "message": error.message,
                "status": error.status,
            }
        }
        if error.detail:
            payload["error"]["detail"] = error.detail
        extra = {}
        if error.retry_after is not None:
            extra["Retry-After"] = str(max(1, int(round(error.retry_after))))
        return render_response(
            error.status, payload, keep_alive=not close, extra_headers=extra
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _safe_dispatch(
        self, request: Request
    ) -> Tuple[int, object, Dict[str, str]]:
        """Dispatch one request; every failure becomes a structured error."""
        self._bump("requests")
        try:
            status, payload, extra = await self._dispatch(request)
            self._bump("responses")
            return status, payload, extra
        except HttpError as error:
            return self._structured_error(request, error)
        except Shed as shed:
            self._bump("shed")
            obs.journal_event(
                "net_shed",
                reason=shed.reason,
                retry_after=shed.retry_after,
                path=request.path,
            )
            return self._structured_error(
                request,
                HttpError(
                    503,
                    "shed_" + shed.reason,
                    "server over capacity; retry later",
                    retry_after=shed.retry_after,
                ),
            )
        except asyncio.TimeoutError:
            self._bump("deadline_exceeded")
            obs.journal_event("net_deadline", path=request.path)
            return self._structured_error(
                request,
                HttpError(504, "deadline_exceeded", "request deadline elapsed"),
            )
        except UnknownTenant as error:
            return self._structured_error(
                request, HttpError(404, "unknown_graph", str(error))
            )
        except (ReproError, ValueError) as error:
            return self._structured_error(
                request, HttpError(400, "bad_request", str(error))
            )
        except asyncio.CancelledError:
            raise
        except Exception as error:  # noqa: BLE001 - poisoned request firewall
            obs.journal_event(
                "net_error",
                path=request.path,
                error=type(error).__name__,
                detail=traceback.format_exc(limit=5),
            )
            return self._structured_error(
                request,
                HttpError(500, "internal", f"{type(error).__name__}: {error}"),
            )

    def _structured_error(
        self, request: Request, error: HttpError
    ) -> Tuple[int, object, Dict[str, str]]:
        self._bump("errors")
        tenant_name = (
            request.parts[2]
            if len(request.parts) >= 3 and request.parts[:2] == ["v1", "graphs"]
            else None
        )
        if tenant_name is not None and tenant_name in self.registry:
            self.registry.get(tenant_name).errors += 1
        payload = {
            "error": {
                "code": error.code,
                "message": error.message,
                "status": error.status,
            }
        }
        if error.detail:
            payload["error"]["detail"] = error.detail
        extra: Dict[str, str] = {}
        if error.retry_after is not None:
            extra["Retry-After"] = str(max(1, int(round(error.retry_after))))
        return error.status, payload, extra

    async def _dispatch(self, request: Request) -> Tuple[int, object, Dict[str, str]]:
        parts = request.parts
        if request.path == "/healthz" and request.method == "GET":
            return 200, {"status": "ok", "uptime_seconds": time.time() - self._started_at}, {}
        if request.path == "/metrics" and request.method == "GET":
            return 200, prometheus_text(obs.get_observer().registry), {}
        if parts == ["v1", "server"] and request.method == "GET":
            return 200, self.describe(), {}
        if parts[:2] == ["v1", "graphs"]:
            if len(parts) == 2 and request.method == "GET":
                return 200, {"graphs": self.registry.describe()}, {}
            if len(parts) == 3:
                return await self._graph_endpoint(request, parts[2])
            if len(parts) == 4:
                return await self._tenant_endpoint(request, parts[2], parts[3])
        raise HttpError(404, "not_found", f"no route for {request.method} {request.path}")

    async def _graph_endpoint(self, request: Request, name: str):
        if request.method in ("PUT", "POST"):
            return await self._create_tenant(request, name)
        if request.method == "DELETE":
            self.registry.drop(name)
            return 200, {"dropped": name}, {}
        if request.method == "GET":
            return 200, self.registry.get(name).describe(), {}
        raise HttpError(405, "method_not_allowed", f"{request.method} not allowed here")

    async def _tenant_endpoint(self, request: Request, name: str, action: str):
        tenant = self.registry.get(name)
        tenant.requests += 1
        if action == "cliques" and request.method == "GET":
            return await self._cliques(request, tenant)
        if action == "query" and request.method == "POST":
            return await self._community_query(request, tenant)
        if action == "edits" and request.method == "POST":
            return await self._edits(request, tenant)
        if action == "stats" and request.method == "GET":
            info = tenant.describe()
            info["cache"] = tenant.engine.cache_info()
            info["encoded"] = tenant.encoded.stats()
            return 200, info, {}
        raise HttpError(404, "not_found", f"no tenant action {action!r}")

    async def _create_tenant(self, request: Request, name: str):
        from repro.graphs.builder import SignedGraphBuilder

        body = json_body(request)
        if not isinstance(body, dict) or not isinstance(body.get("edges"), list):
            raise HttpError(400, "bad_graph", 'expected {"edges": [[u, v, sign], ...]}')
        builder = SignedGraphBuilder(on_duplicate="error")
        try:
            for edge in body["edges"]:
                if not isinstance(edge, (list, tuple)) or len(edge) != 3:
                    raise HttpError(
                        400, "bad_graph", f"edge {edge!r} is not a [u, v, sign] triple"
                    )
                builder.add(edge[0], edge[1], edge[2])
            for node in body.get("nodes", []):
                builder.add_node(node)
            graph = builder.build()
        except ReproError as error:
            raise HttpError(400, "bad_graph", str(error))
        try:
            tenant = self.registry.create(name, graph)
        except TenantError as error:
            status = 404 if isinstance(error, UnknownTenant) else 400
            raise HttpError(status, "bad_tenant", str(error))
        return 201, tenant.describe(), {}

    # ------------------------------------------------------------------
    # Query serving (admission + coalescing + deadlines)
    # ------------------------------------------------------------------
    def _deadline_guard(self, request: Request) -> ResourceGuard:
        raw = request.param("deadline")
        if raw is None:
            seconds = self.config.default_deadline
        else:
            seconds = parse_deadline(raw)  # ValueError -> 400 via dispatch
        seconds = min(seconds, self.config.max_deadline)
        return ResourceGuard(deadline=time.monotonic() + seconds)

    async def _run_flight(
        self,
        tenant: Tenant,
        key_parts: Tuple,
        guard: ResourceGuard,
        compute: Callable[[], object],
    ) -> Tuple[object, bool]:
        """Coalesce-or-admit *compute*, await it within the deadline.

        Returns ``(result, coalesced)``. The admission ticket belongs
        to the flight (released when the computation finishes, even if
        every waiter timed out) and is only taken for flight leaders —
        joining an in-flight computation is always admitted.
        """
        key = key_parts if self.config.coalesce else (id(guard), key_parts)
        flight = self.flights.get(key) if self.config.coalesce else None
        if flight is not None:
            # No await separates this lookup from the wait below, so the
            # flight cannot complete-and-unregister in between.
            self.flights.coalesced += 1
            flight.served += 1
            self._bump("coalesced")
            coalesced = True
        else:
            ticket = self.admission.admit()  # Shed -> 503 via dispatch
            loop = asyncio.get_running_loop()

            async def factory():
                try:
                    return await loop.run_in_executor(self._executor, compute)
                finally:
                    ticket.release()

            flight, _leader = self.flights.join(key, factory)
            self._bump("flights")
            self._bump("computes")
            coalesced = False
        result = await self.flights.wait(flight, timeout=guard.remaining_time())
        return result, coalesced

    async def _cliques(self, request: Request, tenant: Tenant):
        try:
            alpha = float(request.param("alpha", "4"))
            k = int(request.param("k", "3"))
        except ValueError:
            raise HttpError(400, "bad_params", "alpha must be a float, k an integer")
        mode = request.param("mode", "all")
        if mode not in ("all", "top"):
            raise HttpError(400, "bad_params", f"unknown mode {mode!r} (all / top)")
        try:
            model = resolve_model(request.param("model"))
        except ReproError as error:
            raise HttpError(400, "bad_params", str(error))
        r = None
        if mode == "top":
            try:
                r = int(request.param("r", "10"))
            except ValueError:
                raise HttpError(400, "bad_params", "r must be an integer")
            if r < 1:
                raise HttpError(400, "bad_params", "r must be >= 1")
        guard = self._deadline_guard(request)
        fingerprint = tenant.fingerprint
        engine = tenant.engine
        started = time.perf_counter()

        # Each compute pins the engine lock, re-reads the fingerprint
        # inside it and returns (fingerprint, result): the response is
        # labelled with the version it was actually computed against,
        # even if an edit slipped in after `fingerprint` was keyed.
        if mode == "all":
            def compute():
                with engine.pinned():
                    computed_on = engine.fingerprint
                    grid = engine.run_grid(
                        [alpha], [k], time_limit=guard.remaining_time(), model=model
                    )
                    return computed_on, grid[(alpha, k)]
        else:
            def compute(r=r):
                with engine.pinned():
                    computed_on = engine.fingerprint
                    return computed_on, engine.top_r_with_stats(
                        alpha,
                        k,
                        r,
                        time_limit=guard.remaining_time(),
                        model=model,
                    )

        key = (tenant.name, fingerprint, mode, alpha, k, r, model)
        flight_result, coalesced = await self._run_flight(tenant, key, guard, compute)
        computed_on, result = flight_result
        return self._result_payload(
            tenant, key, computed_on, result,
            {"alpha": alpha, "k": k, "mode": mode, "r": r, "model": model},
            coalesced, started,
        )

    async def _community_query(self, request: Request, tenant: Tenant):
        body = json_body(request)
        if not isinstance(body, dict) or not isinstance(body.get("nodes"), list):
            raise HttpError(400, "bad_query", 'expected {"nodes": [...], "alpha": ..., "k": ...}')
        try:
            alpha = float(body.get("alpha", 4))
            k = int(body.get("k", 3))
        except (TypeError, ValueError):
            raise HttpError(400, "bad_params", "alpha must be a float, k an integer")
        nodes = body["nodes"]
        if not nodes:
            raise HttpError(400, "bad_query", "query nodes must be non-empty")
        guard = self._deadline_guard(request)
        fingerprint = tenant.fingerprint
        engine = tenant.engine
        started = time.perf_counter()

        def compute():
            with engine.pinned():
                computed_on = engine.fingerprint
                return computed_on, engine.query_with_stats(
                    nodes, alpha, k, time_limit=guard.remaining_time()
                )

        key = (tenant.name, fingerprint, "query", alpha, k, _nodes_digest(nodes))
        flight_result, coalesced = await self._run_flight(tenant, key, guard, compute)
        computed_on, result = flight_result
        return self._result_payload(
            tenant, key, computed_on, result,
            {"alpha": alpha, "k": k, "mode": "query", "nodes": sorted(nodes, key=repr)},
            coalesced, started,
        )

    async def _edits(self, request: Request, tenant: Tenant):
        body = json_body(request)
        if not isinstance(body, dict) or not isinstance(body.get("edits"), list):
            raise HttpError(
                400, "bad_edits", 'expected {"edits": [["add"|"remove"|"flip", u, v(, sign)], ...]}'
            )
        edits: List[tuple] = []
        arity = {"add": 4, "flip": 4, "remove": 3}
        for edit in body["edits"]:
            if not isinstance(edit, (list, tuple)) or not edit:
                raise HttpError(400, "bad_edits", f"edit {edit!r} is malformed")
            expected = arity.get(edit[0])
            if expected is None:
                raise HttpError(400, "bad_edits", f"unknown edit operation {edit[0]!r}")
            if len(edit) != expected:
                raise HttpError(
                    400,
                    "bad_edits",
                    f"edit {edit!r}: {edit[0]!r} takes {expected - 1} arguments",
                )
            edits.append(tuple(edit))
        guard = self._deadline_guard(request)
        engine = tenant.engine
        before = tenant.fingerprint
        ticket = self.admission.admit()
        loop = asyncio.get_running_loop()
        deadline_fired = threading.Event()

        def apply():
            # Pinned so the returned fingerprint is exactly this edit's
            # resulting version, not a later write's.
            with engine.pinned():
                engine.apply_edits(edits)
                return engine.fingerprint

        future = self._executor.submit(apply)

        def settle(done, _loop=loop):
            # Runs when the executor thread actually finishes. Only now
            # is the admission slot truly free: `wait_for` cannot cancel
            # a running thread, so releasing from the await path on a
            # deadline would hand out capacity the edit still occupies.
            try:
                _loop.call_soon_threadsafe(ticket.release)
            except RuntimeError:  # loop already closed (server stopping)
                ticket.release()
            if deadline_fired.is_set():
                # The 504 already went out; journal how the ambiguous
                # edit actually settled so operators can reconcile.
                error = None if done.cancelled() else done.exception()
                obs.journal_event(
                    "net_edit_after_deadline",
                    tenant=tenant.name,
                    edits=len(edits),
                    applied=not done.cancelled() and error is None,
                    error=type(error).__name__ if error is not None else None,
                )

        future.add_done_callback(settle)
        try:
            after = await asyncio.wait_for(
                asyncio.wrap_future(future), guard.remaining_time()
            )
        except asyncio.TimeoutError:
            deadline_fired.set()
            self._bump("deadline_exceeded")
            obs.journal_event("net_deadline", path=request.path, kind="edit")
            # The mutation may still land after this response: tell the
            # client which fingerprint it *had*, so a follow-up GET of
            # the graph reveals whether the edit applied.
            raise HttpError(
                504,
                "deadline_exceeded",
                "edit deadline elapsed; the mutation may still apply",
                detail={"fingerprint_before": before, "edit_outcome": "unknown"},
            )
        self._bump("edits")
        obs.journal_event(
            "net_edit", tenant=tenant.name, edits=len(edits),
            fingerprint_before=before[:16], fingerprint_after=after[:16],
        )
        return 200, {
            "tenant": tenant.name,
            "applied": len(edits),
            "fingerprint_before": before,
            "fingerprint_after": after,
        }, {}

    def _encoded_cliques(self, tenant: Tenant, key: Tuple, result, partial: bool) -> str:
        """JSON text of the answer's shown cliques, from the tenant's memo.

        *key* is the flight key with the fingerprint the answer was
        computed on in place of the one the request was keyed under, so
        an answer is reused only for the graph version it was computed on.
        """
        memo = tenant.encoded
        if tenant.encoded_fingerprint != key[1]:
            memo.clear()
            tenant.encoded_fingerprint = key[1]
        if not partial:
            encoded = memo.get(key)
            if encoded is not None:
                self._bump("encode_hits")
                return encoded
        shown = list(result.cliques)[: self.config.max_response_cliques]
        encoded = json.dumps(
            [_clique_payload(clique) for clique in shown], sort_keys=True, default=str
        )
        self._bump("encodes")
        if not partial:
            memo.put(key, encoded, size=len(encoded))
        return encoded

    def _result_payload(
        self,
        tenant: Tenant,
        key: Tuple,
        computed_on: str,
        result,
        params: Dict[str, object],
        coalesced: bool,
        started: float,
    ):
        requested = key[1]  # the fingerprint the flight was keyed under
        count = len(result.cliques)
        partial = bool(
            getattr(result, "timed_out", False)
            or getattr(result, "truncated", False)
            or getattr(result, "interrupted", False)
        )
        encoded = self._encoded_cliques(
            tenant, (key[0], computed_on) + key[2:], result, partial
        )
        payload = {
            "tenant": tenant.name,
            # The version the result was computed against vs. the one
            # the request was keyed under; they differ only when a
            # write landed between keying and compute.
            "fingerprint": computed_on,
            "fingerprint_requested": requested,
            "version_changed": computed_on != requested,
            "params": params,
            "count": count,
            "stats": result.stats.as_dict() if result.stats is not None else None,
            "partial": partial,
            "interrupted_reason": getattr(result, "interrupted_reason", None),
            "payload_truncated": count > self.config.max_response_cliques,
            "coalesced": coalesced,
            "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
        }
        # "cliques" sorts before every other key, so this is byte for byte
        # json.dumps({"cliques": ..., **payload}, sort_keys=True) + "\n".
        rest = json.dumps(payload, sort_keys=True, default=str)
        return 200, '{"cliques": ' + encoded + ", " + rest[1:] + "\n", {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """JSON-ready snapshot of server-level state (``/v1/server``)."""
        return {
            "host": self.host,
            "port": self.port,
            "uptime_seconds": time.time() - self._started_at,
            "coalesce": self.config.coalesce,
            "counters": dict(self.counters),
            "admission": self.admission.stats(),
            "flights": self.flights.stats(),
            "graphs": self.registry.names(),
        }
