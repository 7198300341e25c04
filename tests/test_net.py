"""Chaos and contract tests for the network serving layer (``repro.net``).

The server's promises, each pinned here against a live server driven by
:mod:`repro.testing.chaos`:

* **shed, never melt** — past capacity, requests get an immediate
  structured 503 with ``Retry-After``; the listener stays up;
* **deadlines hold** — no accepted request outlives its budget, and a
  504 is a response, not a hang;
* **coalescing is invisible** — duplicate in-flight requests share one
  computation and every waiter receives the identical answer; a waiter
  that disconnects or times out never cancels the shared flight;
* **failures are request-scoped** — poisoned requests, worker-pool
  collapse and cache-dir corruption produce structured errors or
  degraded-but-correct answers while the server keeps serving;
* **mutations are versioned** — in-flight readers finish against the
  fingerprint they started on.
"""

import asyncio
import dataclasses
import json
import socket
import threading
import time

import pytest

from repro.core import MSCE, AlphaK
from repro.generators import gnp_signed
from repro.graphs import SignedGraph
from repro.limits import ResourceGuard, parse_deadline, parse_memory_budget
from repro.net import (
    AdmissionController,
    ServerConfig,
    Shed,
    SingleFlight,
)
from repro.net.http import HttpError, Request
from repro.testing import FaultPlan, injected
from repro.testing.chaos import (
    ServerHarness,
    closed_loop,
    half_request,
    http_request,
    slow_loris,
)
from tests.conftest import PAPER_EDGES


@pytest.fixture
def paper_graph():
    return SignedGraph(PAPER_EDGES)


@pytest.fixture
def random_graph():
    return gnp_signed(36, 0.3, negative_fraction=0.25, seed=11)


def _result_core(payload):
    """The deterministic part of a result payload (drops timings)."""
    return {
        key: value
        for key, value in payload.items()
        if key not in ("elapsed_ms", "coalesced")
    }


def _expected_cliques(graph, alpha, k):
    result = MSCE(graph, AlphaK(alpha, k)).enumerate_all()
    return sorted(frozenset(c.nodes) for c in result.cliques)


def _payload_cliques(payload):
    return sorted(frozenset(c["nodes"]) for c in payload["cliques"])


# ---------------------------------------------------------------------------
# Satellite: memory-budget and deadline parsing + guard propagation
# ---------------------------------------------------------------------------
class TestParseMemoryBudget:
    @pytest.mark.parametrize(
        "text,expected",
        [("100", 100), ("64kb", 64 << 10), (" 2 g ", 2 << 30), ("512M", 512 << 20)],
    )
    def test_accepts_suffixes(self, text, expected):
        assert parse_memory_budget(text) == expected

    @pytest.mark.parametrize("text", ["", "lots", "0", "0kb", "-1", "-1g", "1.5g"])
    def test_rejects_non_positive_and_garbage(self, text):
        with pytest.raises(ValueError, match="memory budget"):
            parse_memory_budget(text)


class TestParseDeadline:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("30", 30.0),
            ("2.5s", 2.5),
            ("150ms", 0.15),
            (" 500 ms ", 0.5),
            ("1S", 1.0),
        ],
    )
    def test_accepts_suffixes(self, text, expected):
        assert parse_deadline(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "fast", "-1s", "0", "0ms", "inf", "nan", "1h"])
    def test_rejects_bad_durations(self, text):
        with pytest.raises(ValueError):
            parse_deadline(text)

    def test_remaining_time_counts_down(self):
        clock = [100.0]
        guard = ResourceGuard(deadline=103.0, clock=lambda: clock[0])
        assert guard.remaining_time() == pytest.approx(3.0)
        clock[0] = 102.5
        assert guard.remaining_time() == pytest.approx(0.5)
        clock[0] = 110.0
        assert guard.remaining_time() == 0.0  # floored, never negative

    def test_remaining_time_without_deadline(self):
        assert ResourceGuard().remaining_time() is None


# ---------------------------------------------------------------------------
# Unit: single-flight coalescing (cancellation semantics live here)
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_duplicates_share_one_computation(self):
        async def scenario():
            flights = SingleFlight()
            computes = []

            async def compute():
                computes.append(1)
                await asyncio.sleep(0.01)
                return "answer"

            a, leader_a = flights.join("key", compute)
            b, leader_b = flights.join("key", compute)
            assert leader_a and not leader_b
            assert a is b
            results = await asyncio.gather(flights.wait(a), flights.wait(b))
            assert results == ["answer", "answer"]
            assert computes == [1]
            assert len(flights) == 0  # unregistered on completion
            assert flights.stats() == {"in_flight": 0, "started": 1, "coalesced": 1}

        asyncio.run(scenario())

    def test_waiter_cancellation_does_not_cancel_the_flight(self):
        """The satellite regression test: a waiter disconnecting
        mid-flight detaches only itself; the shared computation runs to
        completion and the remaining waiters get the answer."""

        async def scenario():
            flights = SingleFlight()
            finished = asyncio.Event()

            async def compute():
                await asyncio.sleep(0.05)
                finished.set()
                return 42

            flight, _ = flights.join("key", compute)
            doomed = asyncio.ensure_future(flights.wait(flight))
            survivor = asyncio.ensure_future(flights.wait(flight))
            await asyncio.sleep(0.01)
            doomed.cancel()
            with pytest.raises(asyncio.CancelledError):
                await doomed
            assert not flight.task.cancelled()
            assert await survivor == 42
            assert finished.is_set()
            assert flight.peak_waiters == 2

        asyncio.run(scenario())

    def test_timed_out_waiter_leaves_the_flight_running(self):
        async def scenario():
            flights = SingleFlight()

            async def compute():
                await asyncio.sleep(0.05)
                return "late"

            flight, _ = flights.join("key", compute)
            with pytest.raises(asyncio.TimeoutError):
                await flights.wait(flight, timeout=0.005)
            assert not flight.task.done()
            assert await flights.wait(flight) == "late"

        asyncio.run(scenario())

    def test_failures_fan_out_to_every_waiter(self):
        async def scenario():
            flights = SingleFlight()

            async def compute():
                await asyncio.sleep(0)
                raise RuntimeError("poisoned")

            flight, _ = flights.join("key", compute)
            waits = [flights.wait(flight) for _ in range(3)]
            results = await asyncio.gather(*waits, return_exceptions=True)
            assert all(isinstance(r, RuntimeError) for r in results)
            assert len(flights) == 0

        asyncio.run(scenario())

    def test_new_flight_after_completion(self):
        async def scenario():
            flights = SingleFlight()

            async def compute():
                return "v"

            first, leader = flights.join("key", compute)
            assert await flights.wait(first) == "v"
            second, leader_again = flights.join("key", compute)
            assert leader and leader_again
            assert second is not first
            assert await flights.wait(second) == "v"

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Unit: admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def test_sheds_past_capacity_with_retry_after(self):
        gate = AdmissionController(max_concurrency=2, max_queue_depth=1)
        tickets = [gate.admit() for _ in range(3)]
        with pytest.raises(Shed) as shed:
            gate.admit()
        assert shed.value.reason == "queue_full"
        assert 1.0 <= shed.value.retry_after <= 30.0
        assert gate.shed["queue_full"] == 1
        tickets[0].release()
        gate.admit().release()  # capacity freed

    def test_ticket_release_is_idempotent(self):
        gate = AdmissionController(max_concurrency=1, max_queue_depth=0)
        ticket = gate.admit()
        ticket.release()
        ticket.release()
        assert gate.standing == 0
        assert gate.completed == 1

    def test_ticket_context_manager(self):
        gate = AdmissionController(max_concurrency=1, max_queue_depth=0)
        with gate.admit():
            assert gate.standing == 1
        assert gate.standing == 0

    def test_retry_after_tracks_service_time(self):
        clock = [0.0]
        gate = AdmissionController(
            max_concurrency=1, max_queue_depth=10, clock=lambda: clock[0]
        )
        for _ in range(6):  # six 10-second services drive the EMA up
            ticket = gate.admit()
            clock[0] += 10.0
            ticket.release()
        for _ in range(5):  # standing backlog of 5
            gate.admit()
        assert gate.retry_after() > 5.0
        assert gate.retry_after() <= 30.0

    def test_memory_budget_sheds_new_work(self, monkeypatch):
        from repro.net import admission as admission_module

        gate = AdmissionController(
            max_concurrency=4, max_queue_depth=4, memory_budget_bytes=100
        )
        monkeypatch.setattr(admission_module, "rss_bytes", lambda: 101)
        with pytest.raises(Shed) as shed:
            gate.admit()
        assert shed.value.reason == "memory"
        monkeypatch.setattr(admission_module, "rss_bytes", lambda: 99)
        gate.admit().release()

    def test_validates_bounds(self):
        with pytest.raises(ValueError):
            AdmissionController(max_concurrency=0)
        with pytest.raises(ValueError):
            AdmissionController(max_queue_depth=-1)

    @pytest.mark.parametrize("budget", [0, -1, -(1 << 30)])
    def test_rejects_non_positive_memory_budget(self, budget):
        # A zero or negative budget is always "over", so it would shed
        # every request with a 503.
        with pytest.raises(ValueError, match="memory_budget_bytes"):
            AdmissionController(memory_budget_bytes=budget)


# ---------------------------------------------------------------------------
# Unit: HTTP parsing limits
# ---------------------------------------------------------------------------
class TestHttpParsing:
    def _parse(self, blob, **kwargs):
        from repro.net.http import read_request

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(blob)
            reader.feed_eof()
            return await read_request(reader, **kwargs)

        return asyncio.run(scenario())

    def test_parses_request_with_body(self):
        request = self._parse(
            b"POST /v1/graphs/g/query?x=1&x=2 HTTP/1.1\r\n"
            b"Host: h\r\nX-Deadline: 2s\r\nContent-Length: 2\r\n\r\n{}"
        )
        assert request.method == "POST"
        assert request.parts == ["v1", "graphs", "g", "query"]
        assert request.query == {"x": "1"}  # first value wins
        assert request.param("deadline") == "2s"
        assert request.body == b"{}"

    def test_clean_eof_returns_none(self):
        assert self._parse(b"") is None

    @pytest.mark.parametrize(
        "blob,code",
        [
            (b"NONSENSE\r\n\r\n", "bad_request_line"),
            (b"GET / HTTP/2.0\r\n\r\n", "bad_version"),
            (b"GET / HTTP/1.1\r\nbroken line\r\n\r\n", "bad_header"),
            (b"GET / HTTP/1.1\r\nContent-Length: x\r\n\r\n", "bad_content_length"),
            (b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n", "bad_content_length"),
            (b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", "unsupported_encoding"),
            (b"GET / HTT", "truncated_head"),
        ],
    )
    def test_malformed_requests_get_structured_errors(self, blob, code):
        with pytest.raises(HttpError) as error:
            self._parse(blob)
        assert error.value.code == code

    def test_oversized_body_rejected_before_reading(self):
        with pytest.raises(HttpError) as error:
            self._parse(
                b"POST / HTTP/1.1\r\nContent-Length: 999\r\n\r\n" + b"x" * 999,
                max_body_bytes=100,
            )
        assert error.value.status == 413

    def test_request_helpers(self):
        request = Request("GET", "/a/b?q=1", {"connection": "close"}, b"")
        assert request.wants_close()
        assert request.param("q") == "1"
        assert request.param("missing", "d") == "d"


# ---------------------------------------------------------------------------
# Live server: basic serving contract
# ---------------------------------------------------------------------------
class TestServerBasics:
    def test_round_trip_and_differential_answers(self, paper_graph):
        with ServerHarness({"paper": paper_graph}, config=ServerConfig(port=0)) as h:
            assert h.get("/healthz").json()["status"] == "ok"

            reply = h.get("/v1/graphs/paper/cliques?alpha=3&k=1")
            assert reply.status == 200
            payload = reply.json()
            assert payload["tenant"] == "paper"
            assert not payload["partial"]
            assert _payload_cliques(payload) == _expected_cliques(paper_graph, 3.0, 1)

            # A repeat must produce a bit-identical result core.
            again = h.get("/v1/graphs/paper/cliques?alpha=3&k=1").json()
            assert _result_core(again) == _result_core(payload)

            top = h.get("/v1/graphs/paper/cliques?alpha=3&k=1&mode=top&r=2").json()
            assert top["count"] >= 1
            assert top["params"]["mode"] == "top"

            query = h.post(
                "/v1/graphs/paper/query", {"nodes": [1, 2], "alpha": 3, "k": 1}
            ).json()
            assert all(
                {1, 2} <= set(clique["nodes"]) for clique in query["cliques"]
            )

            stats = h.get("/v1/graphs/paper/stats").json()
            assert stats["name"] == "paper"
            assert "cache" in stats

            described = h.get("/v1/server").json()
            assert described["graphs"] == ["paper"]
            assert described["counters"]["responses"] >= 5

    def test_structured_errors_keep_the_connection_cheap(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            assert h.get("/nope").json()["error"]["code"] == "not_found"
            assert h.get("/v1/graphs/ghost/cliques").status == 404
            assert h.get("/v1/graphs/ghost/cliques").json()["error"]["code"] == "unknown_graph"
            assert h.get("/v1/graphs/g/cliques?alpha=zap").json()["error"]["code"] == "bad_params"
            assert h.get("/v1/graphs/g/cliques?mode=sideways").json()["error"]["code"] == "bad_params"
            assert (
                h.get("/v1/graphs/g/cliques?deadline=-1s").json()["error"]["code"]
                == "bad_request"
            )
            reply = h.request("PATCH", "/v1/graphs/g")
            assert reply.status == 405
            bad_json = h.post("/v1/graphs/g/query", b"{not json")
            assert bad_json.json()["error"]["code"] == "bad_json"
            # After all that abuse, normal service continues.
            assert h.get("/healthz").status == 200

    def test_server_route_is_exact(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            assert h.get("/v1/server").status == 200
            assert h.get("/v1/server/anything").status == 404
            assert h.get("/v1/server/anything/else").status == 404

    def test_loop_stays_responsive_while_search_holds_engine_lock(self, paper_graph):
        """Regression: fingerprint/describe/stats reads must never take
        the engine lock on the event loop. A slow search used to stall
        /healthz, listings, and every other tenant for its duration."""
        other = SignedGraph([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with ServerHarness(
            {"g": paper_graph, "other": other}, config=ServerConfig(port=0)
        ) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid
            entered = threading.Event()

            def slow(*args, **kwargs):
                entered.set()  # engine lock is held from here on
                time.sleep(2.5)
                return original(*args, **kwargs)

            engine.run_grid = slow
            blocker = threading.Thread(
                target=http_request,
                args=(h.host, h.port, "GET", "/v1/graphs/g/cliques?alpha=3&k=1"),
                kwargs={"timeout": 30},
            )
            blocker.start()
            assert entered.wait(5.0)
            # Every loop-served read — including the blocked tenant's
            # own stats and a *different* tenant's query — answers
            # promptly while the lock is held for 2.5s.
            for path in (
                "/healthz",
                "/v1/server",
                "/v1/graphs",
                "/v1/graphs/g",
                "/v1/graphs/g/stats",
                "/metrics",
                "/v1/graphs/other/cliques?alpha=3&k=0",
            ):
                reply = h.get(path, timeout=10)
                assert reply.status == 200, path
                assert reply.elapsed < 1.0, path
            blocker.join()
        with ServerHarness({"a": paper_graph}, config=ServerConfig(port=0)) as h:
            created = h.request(
                "PUT",
                "/v1/graphs/b",
                body={"edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
            )
            assert created.status == 201
            assert [g["name"] for g in h.get("/v1/graphs").json()["graphs"]] == ["a", "b"]
            assert h.get("/v1/graphs/b/cliques?alpha=3&k=0").json()["count"] == 1
            dupe = h.request("PUT", "/v1/graphs/b", body={"edges": [[0, 1, 1]]})
            assert dupe.status == 400
            bad_name = h.request("PUT", "/v1/graphs/-x", body={"edges": [[0, 1, 1]]})
            assert bad_name.status == 400
            assert h.request("DELETE", "/v1/graphs/b").status == 200
            assert h.get("/v1/graphs/b").status == 404


# ---------------------------------------------------------------------------
# Live server: coalescing
# ---------------------------------------------------------------------------
class TestCoalescing:
    def _slow_engine(self, harness, tenant, seconds):
        """Wrap the tenant engine's grid entry point with a fixed delay."""
        engine = harness.registry.get(tenant).engine
        original = engine.run_grid

        def slow(*args, **kwargs):
            time.sleep(seconds)
            return original(*args, **kwargs)

        engine.run_grid = slow
        return engine

    def _await_flight(self, harness, timeout=5.0):
        deadline = time.time() + timeout
        while time.time() < deadline:
            if len(harness.server.flights) > 0:
                return
            time.sleep(0.005)
        raise TimeoutError("no flight appeared")

    def test_identical_requests_share_one_compute(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            self._slow_engine(h, "g", 0.4)
            path = "/v1/graphs/g/cliques?alpha=3&k=1"
            replies = []
            lock = threading.Lock()

            def client():
                reply = http_request(h.host, h.port, "GET", path, timeout=30)
                with lock:
                    replies.append(reply)

            leader = threading.Thread(target=client)
            leader.start()
            self._await_flight(h)
            followers = [threading.Thread(target=client) for _ in range(4)]
            for thread in followers:
                thread.start()
            leader.join()
            for thread in followers:
                thread.join()

            assert all(reply.status == 200 for reply in replies)
            cores = [_result_core(reply.json()) for reply in replies]
            assert all(core == cores[0] for core in cores)
            assert h.server.counters["computes"] == 1
            assert h.server.counters["coalesced"] == 4
            assert sum(1 for r in replies if r.json()["coalesced"]) == 4

    def test_waiter_disconnect_mid_flight_keeps_the_flight(self, paper_graph):
        """Satellite: a client that vanishes mid-flight must not cancel
        the shared computation other clients are waiting on."""
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            self._slow_engine(h, "g", 0.5)
            path = "/v1/graphs/g/cliques?alpha=3&k=1"
            survivor_reply = []

            def survivor():
                survivor_reply.append(
                    http_request(h.host, h.port, "GET", path, timeout=30)
                )

            leader = threading.Thread(target=survivor)
            leader.start()
            self._await_flight(h)
            # Two clients join the flight and abandon it immediately.
            half_request(h.host, h.port, path)
            half_request(h.host, h.port, path)
            leader.join()

            assert survivor_reply[0].status == 200
            payload = survivor_reply[0].json()
            assert _payload_cliques(payload) == _expected_cliques(paper_graph, 3.0, 1)
            assert h.server.counters["computes"] == 1
            # And the server is still healthy afterwards.
            assert h.get("/healthz").status == 200

    def test_no_coalesce_mode_computes_every_request(self, paper_graph):
        config = ServerConfig(port=0, coalesce=False)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            path = "/v1/graphs/g/cliques?alpha=3&k=1"
            for _ in range(3):
                assert h.get(path).status == 200
            assert h.server.counters["computes"] == 3
            assert h.server.counters["coalesced"] == 0

    def test_edits_version_the_coalescing_keys(self, paper_graph):
        """An in-flight reader whose compute already holds the engine
        lock finishes on its fingerprint (the edit waits its turn);
        post-edit requests see the new one."""
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid
            entered = threading.Event()

            def slow(*args, **kwargs):
                entered.set()  # the compute holds the engine lock here
                time.sleep(0.5)
                return original(*args, **kwargs)

            engine.run_grid = slow
            path = "/v1/graphs/g/cliques?alpha=3&k=1"
            reader_reply = []

            def reader():
                reader_reply.append(
                    http_request(h.host, h.port, "GET", path, timeout=30)
                )

            before = h.get("/v1/graphs/g").json()["fingerprint"]
            thread = threading.Thread(target=reader)
            thread.start()
            assert entered.wait(5.0)  # reader's compute owns the lock
            edited = h.post(
                "/v1/graphs/g/edits", {"edits": [["add", 1, 100, 1]]}
            ).json()
            thread.join()

            assert edited["fingerprint_before"] == before
            assert edited["fingerprint_after"] != before
            # The in-flight reader answered against its own version,
            # and the payload says so exactly.
            payload = reader_reply[0].json()
            assert payload["fingerprint"] == before
            assert payload["fingerprint_requested"] == before
            assert not payload["version_changed"]
            after = h.get(path).json()
            assert after["fingerprint"] == edited["fingerprint_after"]

    def test_version_skew_is_labelled_not_mislabelled(self, paper_graph):
        """When an edit wins the race between a request's keying and
        its compute, the response carries the fingerprint the result
        was *computed* against and flags ``version_changed`` — it is
        never returned silently mislabelled with the stale key."""
        config = ServerConfig(port=0, max_concurrency=1, max_queue_depth=4)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid
            entered = threading.Event()

            def slow_once(*args, **kwargs):
                if not entered.is_set():
                    entered.set()
                    time.sleep(0.8)
                return original(*args, **kwargs)

            engine.run_grid = slow_once
            before = h.get("/v1/graphs/g").json()["fingerprint"]
            replies = {}

            def client(name, method, path, body=None):
                replies[name] = http_request(
                    h.host, h.port, method, path, body=body, timeout=30
                )

            # One slow occupier pins the single executor thread; the
            # edit queues behind it; the reader keys under `before` but
            # its compute queues behind the edit.
            occupier = threading.Thread(
                target=client, args=("occupier", "GET", "/v1/graphs/g/cliques?alpha=3&k=1")
            )
            occupier.start()
            assert entered.wait(5.0)
            editor = threading.Thread(
                target=client,
                args=("edit", "POST", "/v1/graphs/g/edits"),
                kwargs={"body": {"edits": [["add", 1, 100, 1]]}},
            )
            editor.start()
            time.sleep(0.2)  # edit's apply is queued before the reader's compute
            reader = threading.Thread(
                target=client, args=("reader", "GET", "/v1/graphs/g/cliques?alpha=2&k=1")
            )
            reader.start()
            for thread in (occupier, editor, reader):
                thread.join()

            after = replies["edit"].json()["fingerprint_after"]
            assert after != before
            payload = replies["reader"].json()
            assert payload["fingerprint_requested"] == before
            assert payload["fingerprint"] == after
            assert payload["version_changed"]


# ---------------------------------------------------------------------------
# Live server: overload, deadlines, slow clients
# ---------------------------------------------------------------------------
class TestOverload:
    def test_sheds_with_retry_after_past_capacity(self, paper_graph):
        config = ServerConfig(port=0, max_concurrency=1, max_queue_depth=0)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid

            def slow(*args, **kwargs):
                time.sleep(0.6)
                return original(*args, **kwargs)

            engine.run_grid = slow
            occupier = threading.Thread(
                target=http_request,
                args=(h.host, h.port, "GET", "/v1/graphs/g/cliques?alpha=3&k=1"),
                kwargs={"timeout": 30},
            )
            occupier.start()
            deadline = time.time() + 5
            shed_reply = None
            while time.time() < deadline:
                if len(h.server.flights) > 0:
                    # Distinct key -> needs a fresh ticket -> shed.
                    shed_reply = h.get("/v1/graphs/g/cliques?alpha=2&k=1")
                    break
                time.sleep(0.005)
            occupier.join()
            assert shed_reply is not None and shed_reply.status == 503
            body = shed_reply.json()
            assert body["error"]["code"] == "shed_queue_full"
            assert int(shed_reply.headers["retry-after"]) >= 1
            assert h.server.counters["shed"] == 1
            # The shed was cheap and the server still answers.
            assert h.get("/healthz").status == 200

    def test_deadline_exceeded_is_a_504_not_a_hang(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid

            def slow(*args, **kwargs):
                time.sleep(1.5)
                return original(*args, **kwargs)

            engine.run_grid = slow
            started = time.perf_counter()
            reply = h.get("/v1/graphs/g/cliques?alpha=3&k=1&deadline=100ms", timeout=30)
            elapsed = time.perf_counter() - started
            assert reply.status == 504
            assert reply.json()["error"]["code"] == "deadline_exceeded"
            assert elapsed < 1.0  # answered at the deadline, not after the compute
            assert h.server.counters["deadline_exceeded"] == 1

    def test_edit_deadline_reports_ambiguity_and_keeps_the_slot(self, paper_graph):
        """An edit that outlives its deadline answers 504 carrying the
        pre-edit fingerprint (so clients can tell whether it landed),
        keeps its admission slot until the executor thread actually
        finishes, and journals how the ambiguous edit settled."""
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            engine = h.registry.get("g").engine
            original = engine.apply_edits
            release = threading.Event()

            def stalled(edits):
                release.wait(10.0)
                return original(edits)

            engine.apply_edits = stalled
            before = h.get("/v1/graphs/g").json()["fingerprint"]
            reply = h.post(
                "/v1/graphs/g/edits?deadline=100ms",
                {"edits": [["add", 1, 100, 1]]},
            )
            assert reply.status == 504
            error = reply.json()["error"]
            assert error["code"] == "deadline_exceeded"
            assert error["detail"]["fingerprint_before"] == before
            assert error["detail"]["edit_outcome"] == "unknown"
            assert h.server.counters["deadline_exceeded"] == 1
            # The 504 went out but the edit still occupies a worker:
            # its admission slot must not be handed back yet.
            assert h.server.admission.standing == 1
            release.set()
            deadline = time.time() + 5
            while time.time() < deadline and h.server.admission.standing:
                time.sleep(0.01)
            assert h.server.admission.standing == 0
            # The mutation landed after the deadline — fingerprint
            # moved, and the journal recorded the late settlement.
            deadline = time.time() + 5
            while (
                time.time() < deadline
                and h.get("/v1/graphs/g").json()["fingerprint"] == before
            ):
                time.sleep(0.01)
            assert h.get("/v1/graphs/g").json()["fingerprint"] != before
            settled = h.observer.journal.of_kind("net_edit_after_deadline")
            assert settled and settled[-1]["applied"] is True
        config = ServerConfig(port=0, read_timeout=0.4)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            elapsed = slow_loris(h.host, h.port, max_seconds=10.0)
            assert elapsed < 5.0
            deadline = time.time() + 2
            while time.time() < deadline and h.server.counters["slow_client_drops"] == 0:
                time.sleep(0.01)
            assert h.server.counters["slow_client_drops"] >= 1
            assert h.get("/healthz").status == 200

    def test_deadline_longer_than_cap_is_clamped(self, paper_graph):
        config = ServerConfig(port=0, max_deadline=0.2)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid

            def slow(*args, **kwargs):
                time.sleep(1.0)
                return original(*args, **kwargs)

            engine.run_grid = slow
            started = time.perf_counter()
            reply = h.get("/v1/graphs/g/cliques?alpha=3&k=1&deadline=300s", timeout=30)
            assert reply.status == 504
            assert time.perf_counter() - started < 1.0


# ---------------------------------------------------------------------------
# Live server: graceful degradation
# ---------------------------------------------------------------------------
class TestDegradation:
    def test_poisoned_request_is_a_500_and_the_server_survives(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            engine = h.registry.get("g").engine

            def poisoned(*args, **kwargs):
                raise RuntimeError("engine poisoned")

            engine.query_with_stats = poisoned
            reply = h.post("/v1/graphs/g/query", {"nodes": [1], "alpha": 3, "k": 1})
            assert reply.status == 500
            assert reply.json()["error"]["code"] == "internal"
            # Other endpoints (and other tenants' code paths) still work.
            assert h.get("/v1/graphs/g/cliques?alpha=3&k=1").status == 200
            assert h.get("/healthz").status == 200
            assert h.observer.journal.of_kind("net_error")

    def test_worker_pool_collapse_degrades_to_a_correct_answer(self, random_graph):
        expected = _expected_cliques(random_graph, 2.0, 1)
        with ServerHarness(
            {"g": random_graph}, config=ServerConfig(port=0), workers=2
        ) as h:
            with injected(FaultPlan(fail_worker_spawn=True)):
                reply = h.get("/v1/graphs/g/cliques?alpha=2&k=1", timeout=60)
            assert reply.status == 200
            payload = reply.json()
            assert not payload["partial"]
            assert _payload_cliques(payload) == expected
            assert h.get("/healthz").status == 200

    def test_cache_dir_corruption_is_survived(self, paper_graph, tmp_path):
        expected = _expected_cliques(paper_graph, 3.0, 1)
        with ServerHarness(
            {"g": paper_graph}, config=ServerConfig(port=0), cache_dir=tmp_path
        ) as h:
            first = h.get("/v1/graphs/g/cliques?alpha=3&k=1")
            assert first.status == 200
            # Corrupt every cache artifact on disk, then force disk reads.
            corrupted = 0
            for path in (tmp_path / "g").rglob("*"):
                if path.is_file():
                    path.write_bytes(b"\x00garbage\xff")
                    corrupted += 1
            assert corrupted > 0
            h.registry.get("g").engine.memory.clear()
            second = h.get("/v1/graphs/g/cliques?alpha=3&k=1")
            assert second.status == 200
            assert _payload_cliques(second.json()) == expected


# ---------------------------------------------------------------------------
# Live server: observability
# ---------------------------------------------------------------------------
class TestMetricsExposure:
    def test_per_tenant_lru_series_and_net_counters(self, paper_graph):
        other = SignedGraph([(0, 1, 1), (1, 2, 1), (0, 2, 1)])
        with ServerHarness(
            {"acme": paper_graph, "beta": other}, config=ServerConfig(port=0)
        ) as h:
            for _ in range(2):  # second pass hits the memory tier
                h.get("/v1/graphs/acme/cliques?alpha=3&k=1")
                h.get("/v1/graphs/beta/cliques?alpha=3&k=0")
            text = h.metrics()
            assert 'repro_serve_lru_hits_total{tenant="acme"}' in text
            assert 'repro_serve_lru_hits_total{tenant="beta"}' in text
            assert "# TYPE repro_serve_lru_hits_total counter" in text
            assert "repro_net_requests_total" in text
            assert "repro_net_computes_total" in text
            reply = h.get("/metrics")
            assert reply.headers["content-type"].startswith("text/plain")

    def test_shed_and_journal_events_are_recorded(self, paper_graph):
        config = ServerConfig(port=0, max_concurrency=1, max_queue_depth=0)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid

            def slow(*args, **kwargs):
                time.sleep(0.4)
                return original(*args, **kwargs)

            engine.run_grid = slow
            blocker = threading.Thread(
                target=http_request,
                args=(h.host, h.port, "GET", "/v1/graphs/g/cliques?alpha=3&k=1"),
                kwargs={"timeout": 30},
            )
            blocker.start()
            deadline = time.time() + 5
            while time.time() < deadline and len(h.server.flights) == 0:
                time.sleep(0.005)
            h.get("/v1/graphs/g/cliques?alpha=2&k=2")  # shed
            blocker.join()
            assert "repro_net_shed_total 1" in h.metrics()
            assert h.observer.journal.of_kind("net_shed")


# ---------------------------------------------------------------------------
# Live server: the encoded-answer memo
# ---------------------------------------------------------------------------
def _whole_payload_body(reply, result, fingerprint, params, max_cliques=1000):
    """The body as one ``json.dumps`` of the whole payload, computed from
    an independent engine answer; only the volatile fields come from
    *reply*."""
    cliques = list(result.cliques)
    payload = {
        "tenant": reply["tenant"],
        "fingerprint": fingerprint,
        "fingerprint_requested": fingerprint,
        "version_changed": False,
        "params": params,
        "count": len(cliques),
        "cliques": [
            {
                "nodes": sorted(clique.nodes, key=repr),
                "size": clique.size,
                "positive_edges": clique.positive_edges,
                "negative_edges": clique.negative_edges,
            }
            for clique in cliques[:max_cliques]
        ],
        "stats": result.stats.as_dict(),
        "partial": False,
        "interrupted_reason": None,
        "payload_truncated": len(cliques) > max_cliques,
        "coalesced": reply["coalesced"],
        "elapsed_ms": reply["elapsed_ms"],
    }
    return (json.dumps(payload, sort_keys=True, default=str) + "\n").encode("utf-8")


class TestEncodedAnswers:
    #: The three read routes of the benchmark's ``http_read`` mix.
    SETTINGS = ((3.0, 1), (2.0, 1), (1.0, 0))

    def test_bodies_equal_one_dump_of_the_whole_payload(self, paper_graph):
        from repro.serve.engine import SignedCliqueEngine

        reference = SignedCliqueEngine(paper_graph)
        fingerprint = reference.fingerprint
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            for alpha, k in self.SETTINGS:
                base = f"/v1/graphs/g/cliques?alpha={alpha:g}&k={k}"
                routes = [
                    (
                        lambda: h.get(base),
                        reference.run_grid([alpha], [k])[(alpha, k)],
                        {"alpha": alpha, "k": k, "mode": "all", "r": None, "model": "msce"},
                    ),
                    (
                        lambda: h.get(base + "&mode=top&r=10"),
                        reference.top_r_with_stats(alpha, k, 10),
                        {"alpha": alpha, "k": k, "mode": "top", "r": 10, "model": "msce"},
                    ),
                    (
                        lambda: h.post(
                            "/v1/graphs/g/query", {"nodes": [5], "alpha": alpha, "k": k}
                        ),
                        reference.query_with_stats([5], alpha, k),
                        {"alpha": alpha, "k": k, "mode": "query", "nodes": [5]},
                    ),
                ]
                for send, result, params in routes:
                    for _ in range(2):  # first read encodes, the repeat splices
                        reply = send()
                        assert reply.status == 200
                        assert reply.body == _whole_payload_body(
                            reply.json(), result, fingerprint, params
                        )
            counters = h.server.counters
            assert counters["encodes"] == counters["encode_hits"] == 3 * len(self.SETTINGS)

    def test_a_flip_is_answered_on_the_new_graph(self, paper_graph):
        path = "/v1/graphs/g/cliques?alpha=3&k=1"
        edited = paper_graph.copy()
        edited.set_sign(1, 2, -1)
        assert _expected_cliques(edited, 3.0, 1) != _expected_cliques(paper_graph, 3.0, 1)
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            for _ in range(2):
                before = h.get(path).json()
                assert _payload_cliques(before) == _expected_cliques(paper_graph, 3.0, 1)
            flipped = h.post("/v1/graphs/g/edits", {"edits": [["flip", 1, 2, -1]]})
            assert flipped.status == 200
            after = h.get(path).json()
            assert after["fingerprint"] == flipped.json()["fingerprint_after"]
            assert _payload_cliques(after) == _expected_cliques(edited, 3.0, 1)
            assert after["count"] == len(after["cliques"])

    def test_a_partial_answer_is_never_served_again(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid
            calls = []

            def timed_out_first(alphas, ks, **kwargs):
                grid = original(alphas, ks, **kwargs)
                calls.append(1)
                if len(calls) in (1, 4):
                    full = grid[(alphas[0], ks[0])]
                    grid = {
                        (alphas[0], ks[0]): dataclasses.replace(
                            full, cliques=full.cliques[1:], timed_out=True
                        )
                    }
                return grid

            engine.run_grid = timed_out_first
            path = "/v1/graphs/g/cliques?alpha=2&k=1"
            expected = _expected_cliques(paper_graph, 2.0, 1)

            def read_partial():
                partial = h.get(path).json()
                assert partial["partial"] and partial["count"] == len(expected) - 1
                assert len(partial["cliques"]) == len(expected) - 1
                assert set(_payload_cliques(partial)) < set(expected)

            read_partial()
            assert len(h.registry.get("g").encoded) == 0
            for _ in range(2):
                full = h.get(path).json()
                assert not full["partial"]
                assert full["count"] == len(expected)
                assert _payload_cliques(full) == expected
            # A partial answer arriving while the full one is memoised is
            # answered with its own cliques.
            read_partial()
            assert h.server.counters["encodes"] == 3
            assert h.server.counters["encode_hits"] == 1

    def test_memo_is_bounded_and_holds_one_version(self, paper_graph):
        with ServerHarness(
            {"g": paper_graph}, config=ServerConfig(port=0), cache_mem_entries=2
        ) as h:
            tenant = h.registry.get("g")
            for alpha, k in ((3, 1), (2, 1), (1, 1), (1, 0), (3, 1)):
                assert h.get(f"/v1/graphs/g/cliques?alpha={alpha}&k={k}").status == 200
                assert len(tenant.encoded) <= 2
            assert tenant.encoded.evictions >= 2
            before = tenant.fingerprint
            assert {key[1] for key in tenant.encoded.keys()} == {before}
            h.post("/v1/graphs/g/edits", {"edits": [["flip", 1, 2, -1]]})
            h.get("/v1/graphs/g/cliques?alpha=3&k=1")
            assert tenant.fingerprint != before
            assert {key[1] for key in tenant.encoded.keys()} == {tenant.fingerprint}

    def test_memo_keys_carry_the_computed_on_fingerprint(self, paper_graph):
        """A flight keyed under one version but computed on the next one
        (a write slipped in between) is memoised under the version it
        was computed on, never the requested one."""
        from repro.net.server import CliqueServer

        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            tenant = h.registry.get("g")
            result = tenant.engine.run_grid([3.0], [1])[(3.0, 1)]
        server = CliqueServer(h.registry, ServerConfig(port=0))
        try:
            key = ("g", "requested-fp", "all", 3.0, 1, None, "msce")
            status, body, _ = server._result_payload(
                tenant, key, "computed-fp", result, {}, False, time.perf_counter()
            )
            payload = json.loads(body)
            assert payload["fingerprint"] == "computed-fp"
            assert payload["fingerprint_requested"] == "requested-fp"
            assert tenant.encoded.keys() == [("g", "computed-fp") + key[2:]]
        finally:
            server._executor.shutdown(wait=True)

    def test_memo_traffic_is_exposed(self, paper_graph):
        with ServerHarness({"g": paper_graph}, config=ServerConfig(port=0)) as h:
            for _ in range(2):
                h.get("/v1/graphs/g/cliques?alpha=3&k=1")
            counters = h.get("/v1/server").json()["counters"]
            assert counters["encodes"] == 1
            assert counters["encode_hits"] == 1
            encoded = h.get("/v1/graphs/g/stats").json()["encoded"]
            assert encoded["entries"] == 1 and encoded["hits"] == 1
            assert encoded["approximate_bytes"] > 0
            text = h.metrics()
            assert "repro_net_encodes_total 1" in text
            assert "repro_net_encode_hits_total 1" in text


# ---------------------------------------------------------------------------
# Load shape sanity (the benchmark gates the ratio; this pins behaviour)
# ---------------------------------------------------------------------------
class TestLoadShapes:
    def test_duplicate_burst_all_served_under_tiny_capacity(self, paper_graph):
        config = ServerConfig(port=0, max_concurrency=1, max_queue_depth=0)
        with ServerHarness({"g": paper_graph}, config=config) as h:
            engine = h.registry.get("g").engine
            original = engine.run_grid

            def slow(*args, **kwargs):
                time.sleep(0.3)
                return original(*args, **kwargs)

            engine.run_grid = slow
            path = "/v1/graphs/g/cliques?alpha=3&k=1"
            report = closed_loop(
                lambda client, index: http_request(
                    h.host, h.port, "GET", path, timeout=30
                ),
                clients=8,
                requests_per_client=1,
            )
            # Capacity is ONE compute; coalescing serves all eight.
            assert report.ok == 8
            assert report.shed == 0
            assert h.server.counters["computes"] <= 2

    def test_cli_serve_smoke(self, paper_graph, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.io import write_signed_edgelist

        path = tmp_path / "g.sg"
        write_signed_edgelist(paper_graph, path)
        code = cli_main(
            [
                "serve",
                f"demo={path}",
                "--port",
                "0",
                "--exit-after",
                "0.3",
                "--default-deadline",
                "5s",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving demo on http://" in out
