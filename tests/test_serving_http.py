"""The shared HTTP helper and the JSON frontend over a real socket.

Every test binds an ephemeral port (``port=0``) and talks plain
``urllib`` — the same path an external client takes.  The frontend tests
run one module-scoped pool on tiny tiles; the full round trip boots its
own server per shard runtime (thread and subprocess) and checks the
served point against direct pricing and the trace against every layer.
"""

from __future__ import annotations

import http.client
import json
import re
import socket
import statistics
import threading
import time
from contextlib import contextmanager
import urllib.error
import urllib.request

import pytest

from repro.core.approximation import ApproxSpec
from repro.runtime.comparison import ComparisonHarness
from repro.serving import CrossbarPool, JsonHttpServer
from repro.serving.frontend import build_server
from repro.serving.http import JSON_CONTENT_TYPE, PROMETHEUS_CONTENT_TYPE
from repro.units import MIB
from repro.workloads import workload_by_name
from tests.conftest import emptied_memos
from tests.test_tracing import REQUIRED_LAYERS

TILE = 1 << 9


def fetch(url, payload=None, method=None, headers=None):
    """One urllib round trip -> (status, headers, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json", **(headers or {})},
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            raw = response.read()
            info = dict(response.headers)
            status = response.status
    except urllib.error.HTTPError as exc:
        raw = exc.read()
        info = dict(exc.headers)
        status = exc.code
    content_type = info.get("Content-Type", "")
    body = json.loads(raw) if "json" in content_type else raw.decode()
    return status, info, body


def raw_exchange(server, request: bytes, timeout: float = 3.0) -> bytes:
    """Send raw request bytes; read the reply until the server closes.

    The socket timeout makes a server that never answers fail the test
    (``TimeoutError``) instead of hanging it.
    """
    with socket.create_connection(
        (server.host, server.port), timeout=timeout
    ) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


@pytest.fixture()
def echo_server():
    def echo(_match, body):
        return 200, {"echo": body}

    def greet(match, _body):
        return 200, {"hello": match.group("name")}, {"X-Custom": "yes"}

    def scrape(_match, _body):
        return 200, "metric_total 1\n"

    def explode(_match, _body):
        raise RuntimeError("handler bug")

    def nonfinite(_match, _body):
        return 200, {"bad": float("nan"), "worse": float("inf"), "ok": 1.5}

    routes = [
        ("POST", re.compile(r"/echo/?$"), echo),
        ("GET", re.compile(r"/greet/(?P<name>\w+)/?$"), greet),
        ("GET", re.compile(r"/metrics/?$"), scrape),
        ("GET", re.compile(r"/explode/?$"), explode),
        ("GET", re.compile(r"/nonfinite/?$"), nonfinite),
    ]
    with JsonHttpServer(routes, max_body_bytes=256) as server:
        yield server


class TestJsonHttpServer:
    def test_json_round_trip(self, echo_server):
        status, info, body = fetch(
            f"{echo_server.url}/echo", payload={"a": [1, 2]}
        )
        assert status == 200
        assert info["Content-Type"] == JSON_CONTENT_TYPE
        assert body == {"echo": {"a": [1, 2]}}

    def test_path_captures_and_extra_headers(self, echo_server):
        status, info, body = fetch(f"{echo_server.url}/greet/apim")
        assert status == 200
        assert body == {"hello": "apim"}
        assert info["X-Custom"] == "yes"

    def test_string_payload_is_prometheus_text(self, echo_server):
        status, info, body = fetch(f"{echo_server.url}/metrics")
        assert status == 200
        assert info["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert body == "metric_total 1\n"

    def test_unrouted_path_404s(self, echo_server):
        status, _, body = fetch(f"{echo_server.url}/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_wrong_method_404s(self, echo_server):
        status, _, _ = fetch(f"{echo_server.url}/echo")  # GET on a POST route
        assert status == 404

    def test_oversized_body_413s(self, echo_server):
        status, _, body = fetch(
            f"{echo_server.url}/echo", payload={"blob": "x" * 500}
        )
        assert status == 413
        assert body["max_body_bytes"] == 256

    def test_invalid_json_400s(self, echo_server):
        request = urllib.request.Request(
            f"{echo_server.url}/echo", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10.0)
        assert info.value.code == 400

    def test_handler_exception_becomes_500_json(self, echo_server):
        status, _, body = fetch(f"{echo_server.url}/explode")
        assert status == 500
        assert "RuntimeError" in body["error"]
        # ... and the acceptor that caught it keeps serving.
        status, _, body = fetch(f"{echo_server.url}/greet/after")
        assert status == 200 and body == {"hello": "after"}

    def test_nonfinite_floats_sanitized(self, echo_server):
        _, _, body = fetch(f"{echo_server.url}/nonfinite")
        assert body == {"bad": None, "worse": None, "ok": 1.5}

    def test_negative_content_length_is_400(self, echo_server):
        # ``rfile.read(-1)`` reads to EOF: the handler would wait for a
        # client that is waiting for the reply.
        reply = raw_exchange(
            echo_server,
            b"POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n"
            b"Connection: close\r\n\r\n",
        )
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert json.loads(body) == {"error": "bad Content-Length"}

    def test_each_reply_is_one_write(self, echo_server, monkeypatch):
        from repro.serving import http as http_module

        writes = []
        original = http_module._send

        def counting_send(connection, data):
            writes.append(bytes(data))
            return original(connection, data)

        monkeypatch.setattr(http_module, "_send", counting_send)
        for path, payload in (
            ("/greet/one", None),
            ("/metrics", None),
            ("/nope", None),
            ("/echo", {"blob": "x" * 500}),  # 413
        ):
            writes.clear()
            fetch(f"{echo_server.url}{path}", payload=payload)
            assert len(writes) == 1, (path, writes)
            assert writes[0].startswith(b"HTTP/1.1 ")
        for request in (
            b"GARBAGE\r\n\r\n",  # 400 from the reader
            b"POST /echo HTTP/1.1\r\nContent-Length: 5\r\n"
            b"Connection: close\r\n\r\n{not}",  # 400 from the route
            b"POST /echo HTTP/1.1\r\nConnection: close\r\n\r\n",  # 411
        ):
            writes.clear()
            raw_exchange(echo_server, request)
            assert len(writes) == 1, (request, writes)
            assert writes[0].startswith(b"HTTP/1.1 4")

    def test_keep_alive_round_trips_do_not_stall(self, echo_server):
        # A reply split over two writes would make a kept-alive client
        # wait out Nagle plus the peer's delayed ACK (~40 ms) per request.
        connection = http.client.HTTPConnection(
            echo_server.host, echo_server.port, timeout=10.0
        )
        elapsed = []
        try:
            for _ in range(20):
                start = time.perf_counter()
                connection.request("GET", "/greet/keepalive")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                elapsed.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert statistics.median(elapsed) < 0.010, elapsed

    def test_close_is_idempotent(self):
        server = JsonHttpServer([]).start()
        server.close()
        server.close()

    def test_double_start_raises(self):
        from repro.errors import ServingError

        server = JsonHttpServer([])
        with server:
            with pytest.raises(ServingError):
                server.start()


class TestAcceptorPool:
    REQUEST = (
        b"GET /greet/pool HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
    )

    def test_sequential_requests_start_no_thread(
        self, echo_server, monkeypatch
    ):
        for _ in range(3):  # warm the pool
            raw_exchange(echo_server, self.REQUEST)
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(50):
            reply = raw_exchange(echo_server, self.REQUEST)
            assert reply.startswith(b"HTTP/1.1 200 ")
        assert started == []

    def test_two_concurrent_clients_do_not_churn_acceptors(
        self, echo_server, monkeypatch
    ):
        spawned = []
        spawn = echo_server._spawn_locked

        def counting_spawn():
            spawned.append(1)
            spawn()

        monkeypatch.setattr(echo_server, "_spawn_locked", counting_spawn)
        statuses = []

        def client():
            for _ in range(300):
                connection = http.client.HTTPConnection(
                    echo_server.host, echo_server.port, timeout=10.0
                )
                connection.request(
                    "GET", "/greet/pool", headers={"Connection": "close"}
                )
                response = connection.getresponse()
                response.read()
                statuses.append(response.status)
                connection.close()

        clients = [threading.Thread(target=client) for _ in range(2)]
        for thread in clients:
            thread.start()
        for thread in clients:
            thread.join(60.0)
        assert statuses == [200] * 600
        assert len(spawned) <= 8, len(spawned)

    def test_held_keep_alive_connections_do_not_delay_a_new_request(
        self, echo_server
    ):
        held = []
        try:
            for _ in range(8):
                connection = http.client.HTTPConnection(
                    echo_server.host, echo_server.port, timeout=10.0
                )
                connection.request("GET", "/greet/held")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                held.append(connection)  # kept alive, idle
            start = time.perf_counter()
            status, _, body = fetch(f"{echo_server.url}/greet/fresh")
            elapsed = time.perf_counter() - start
        finally:
            for connection in held:
                connection.close()
        assert status == 200 and body == {"hello": "fresh"}
        assert elapsed < 1.0, elapsed

    def test_close_stops_every_acceptor_promptly(self):
        before = set(threading.enumerate())
        server = JsonHttpServer(
            [("GET", re.compile(r"/ping$"), lambda _m, _b: (200, {}))]
        ).start()
        kept = http.client.HTTPConnection(
            server.host, server.port, timeout=10.0
        )
        try:
            kept.request("GET", "/ping")
            response = kept.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open, idle
            start = time.perf_counter()
            server.close()
            assert time.perf_counter() - start < 2.0
            server.close()
        finally:
            kept.close()
        assert [
            thread for thread in threading.enumerate()
            if thread not in before and thread.is_alive()
        ] == []


@pytest.fixture(scope="module")
def served_pool():
    with CrossbarPool(shards=2, tile_elements=TILE) as pool:
        with build_server(pool) as server:
            yield pool, server


class TestFrontend:
    def test_submit_poll_result(self):
        """A real server per runtime: the served point equals direct
        in-process pricing, and its trace covers every layer (the tile
        memo starts empty, so the executor runs)."""
        served = {}
        for runtime in ("thread", "subprocess"):
            pool = CrossbarPool(shards=2, tile_elements=TILE, runtime=runtime)
            with emptied_memos(), pool, build_server(pool) as server:
                status, _, health = fetch(f"{server.url}/healthz")
                assert status == 200 and health["healthy_shards"] == 2
                status, _, reply = fetch(
                    f"{server.url}/submit",
                    payload={"workload": "Robert", "relax_bits": 8},
                )
                assert status == 202 and reply["status"] == "queued"
                result = None
                for _ in range(600):
                    status, _, result = fetch(
                        f"{server.url}/result/{reply['id']}"
                    )
                    if status == 200:
                        break
                    time.sleep(0.05)
                assert status == 200, runtime
                assert result["status"] == "ok"
                served[runtime] = result["point"]["speedup"]
                status, _, timeline = fetch(
                    f"{server.url}/trace/{result['trace_id']}"
                )
                assert status == 200
                layers = {event["layer"] for event in timeline["events"]}
                assert REQUIRED_LAYERS <= layers, (runtime, layers)
                status, _, stats = fetch(f"{server.url}/stats")
                assert status == 200
                assert stats["scheduler"]["admitted"] >= 1
        direct = ComparisonHarness(tile_elements=TILE).compare(
            workload_by_name("Robert"), 64 * MIB, ApproxSpec.last_stage(8)
        )
        for runtime, speedup in served.items():
            assert speedup == pytest.approx(direct.speedup, rel=1e-9), runtime

    def test_submit_validations(self, served_pool):
        _, server = served_pool
        cases = [
            ({}, 400),
            ({"workload": "NotAWorkload"}, 400),
            ({"workload": "Sobel", "surprise": 1}, 400),
            ({"workload": "Sobel", "relax_bits": "many"}, 400),
        ]
        for payload, expected in cases:
            status, _, body = fetch(f"{server.url}/submit", payload=payload)
            assert status == expected, (payload, body)
            assert "error" in body

    def test_queue_full_429_with_retry_after(self):
        from repro.serving import ServingConfig

        config = ServingConfig(queue_capacity=1, max_wait_s=0.0)
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, serving_config=config
        )
        # Deliberately not started: nothing drains, the second submit
        # must bounce off the full queue.
        with build_server(pool) as server:
            pool._started = True  # keep submit from starting workers
            first = fetch(
                f"{server.url}/submit", payload={"workload": "Sobel"}
            )
            assert first[0] == 202
            status, info, body = fetch(
                f"{server.url}/submit", payload={"workload": "Sobel"}
            )
            assert status == 429
            assert float(info["Retry-After"]) > 0
            assert body["retry_after_s"] > 0

    def test_unknown_result_404s(self, served_pool):
        _, server = served_pool
        status, _, _ = fetch(f"{server.url}/result/never-was")
        assert status == 404

    def test_healthz_and_stats(self, served_pool):
        _, server = served_pool
        status, _, health = fetch(f"{server.url}/healthz")
        assert status == 200
        assert health["healthy_shards"] == 2
        status, _, stats = fetch(f"{server.url}/stats")
        assert status == 200
        assert {"scheduler", "results", "shards"} <= set(stats)

    def test_metrics_scrape_exposes_serving_families(self, served_pool):
        _, server = served_pool
        status, info, text = fetch(f"{server.url}/metrics")
        assert status == 200
        assert info["Content-Type"] == PROMETHEUS_CONTENT_TYPE
        assert "repro_serving_admission_total" in text


class TestOverload:
    def test_concurrent_overload_refuses_cleanly(self):
        """Eight simultaneous POSTs against a one-slot queue whose only
        worker is held: every reply is 202 or 429, every 202 id reaches a
        terminal result, and every resident trace belongs to a 202 id (a
        429 opens no trace)."""
        from repro.serving import ServingConfig

        pool = CrossbarPool(
            shards=1, tile_elements=TILE,
            serving_config=ServingConfig(queue_capacity=1),
        )
        shard = pool.shards[0]
        price, gate = shard.price, threading.Event()

        def held_price(*args):
            gate.wait(30.0)
            return price(*args)

        shard.price = held_price
        start = threading.Barrier(8)
        replies = []

        def post():
            start.wait()
            replies.append(
                fetch(f"{server.url}/submit", payload={"workload": "Robert"})
            )

        with pool, build_server(pool) as server:
            posters = [threading.Thread(target=post) for _ in range(8)]
            for poster in posters:
                poster.start()
            for poster in posters:
                poster.join(30.0)
            gate.set()
            statuses = [status for status, _, _ in replies]
            accepted = {body["id"] for status, _, body in replies
                        if status == 202}
            for request_id in accepted:
                assert pool.result(request_id, timeout=60.0).status == "ok"
            admitted = {
                record.trace_id
                for record in list(pool.traces._records.values())
                if any(
                    (event.layer, event.kind) == ("frontend", "admitted")
                    for event in record.events
                )
            }
        assert len(statuses) == 8
        assert 429 in statuses
        assert set(statuses) <= {202, 429}
        assert admitted == accepted


#: Per endpoint: a valid body, the same body changed in one field, the
#: body without its required key, and the body with a field of the wrong
#: type.  The search query is a dim-256 bit-vector, the default codebook.
_QUERY = [0, 1] * 128
ADMISSION_BODIES = {
    "/submit": (
        {"workload": "Sobel"},
        {"workload": "Sobel", "relax_bits": 8},
        {"relax_bits": 8},
        {"workload": "Sobel", "relax_bits": "many"},
    ),
    "/search": (
        {"query": _QUERY},
        {"query": _QUERY, "k": 5},
        {"k": 5},
        {"query": _QUERY, "k": "many"},
    ),
}


@contextmanager
def idle_frontend(**pool_kwargs):
    """A frontend over a pool whose workers never run: admissions stay
    queued, so every reply is admission's alone."""
    pool = CrossbarPool(
        shards=2, tile_elements=TILE, shard_cooldown_s=60.0, **pool_kwargs
    )
    pool._started = True  # keep admission from starting workers
    try:
        with build_server(pool) as server:
            yield pool, server
    finally:
        if pool.journal is not None:
            pool.journal.close()


@pytest.mark.parametrize("endpoint", sorted(ADMISSION_BODIES))
class TestAdmissionContract:
    """The reply ladder `/submit` and `/search` share, pinned per status."""

    def test_accepted_is_202_with_trace_id(self, endpoint):
        body = ADMISSION_BODIES[endpoint][0]
        with idle_frontend() as (_, server):
            status, _, reply = fetch(f"{server.url}{endpoint}", body)
        assert status == 202
        assert reply["status"] == "queued" and reply["id"]
        assert reply["trace_id"]

    def test_keyed_repeat_is_duplicate_and_conflict_is_409(self, endpoint):
        body, changed, _, _ = ADMISSION_BODIES[endpoint]
        key = {"idempotency_key": "contract-key"}
        with idle_frontend() as (_, server):
            url = f"{server.url}{endpoint}"
            status, _, first = fetch(url, {**body, **key})
            assert status == 202
            status, _, again = fetch(url, {**body, **key})
            assert status == 200
            assert again["status"] == "duplicate"
            assert again["id"] == first["id"]
            status, _, conflict = fetch(url, {**changed, **key})
        assert status == 409
        assert conflict["idempotency_key"] == "contract-key"
        assert conflict["id"] == first["id"]

    def test_full_queue_is_429_with_retry_after(self, endpoint):
        from repro.serving import ServingConfig

        body = ADMISSION_BODIES[endpoint][0]
        config = ServingConfig(queue_capacity=1, max_wait_s=0.0)
        with idle_frontend(serving_config=config) as (_, server):
            assert fetch(f"{server.url}{endpoint}", body)[0] == 202
            status, info, reply = fetch(f"{server.url}{endpoint}", body)
        assert status == 429
        assert float(info["Retry-After"]) > 0
        assert reply["retry_after_s"] > 0

    def test_draining_is_503_with_retry_after(self, endpoint):
        body = ADMISSION_BODIES[endpoint][0]
        with idle_frontend() as (pool, server):
            pool.begin_drain()
            status, info, reply = fetch(f"{server.url}{endpoint}", body)
        assert status == 503
        assert float(info["Retry-After"]) > 0
        assert reply["retry_after_s"] > 0

    def test_every_breaker_open_is_503_without_retry_after(self, endpoint):
        body = ADMISSION_BODIES[endpoint][0]
        with idle_frontend() as (pool, server):
            for shard in pool.shards:
                for _ in range(shard.breaker.failure_threshold):
                    shard.breaker.record_failure(shard.key)
            status, info, reply = fetch(f"{server.url}{endpoint}", body)
        assert status == 503
        assert "Retry-After" not in info
        assert "retry_after_s" not in reply

    def test_malformed_bodies_are_400(self, endpoint):
        body, _, missing, bad_type = ADMISSION_BODIES[endpoint]
        with idle_frontend() as (_, server):
            url = f"{server.url}{endpoint}"
            for payload in (
                missing,
                {**body, "surprise": 1},
                bad_type,
                # An id minted from this tenant no GET route could match.
                {**body, "tenant": "acme corp"},
            ):
                status, _, reply = fetch(url, payload)
                assert status == 400, (payload, reply)
                assert "error" in reply

    def test_journal_failure_is_500(self, endpoint, tmp_path, monkeypatch):
        from repro.errors import JournalError

        body = ADMISSION_BODIES[endpoint][0]
        journal = str(tmp_path / "requests.jsonl")
        with idle_frontend(journal=journal) as (pool, server):

            minted = []

            def refuse(request, **_kwargs):
                minted.append(request.id)
                raise JournalError("disk full")

            monkeypatch.setattr(pool.journal, "admitted", refuse)
            status, _, reply = fetch(f"{server.url}{endpoint}", body)
            # Refused in the commit step after the id was minted: nothing
            # queued, traced or registered, under that id or any other.
            assert pool.scheduler.depth() == 0
            assert len(pool.traces) == 0
            assert pool.results.pending == 0
            (request_id,) = minted
            assert pool.traces.get(request_id) is None
            assert pool.results.lookup(request_id) == ("unknown", None)
        assert status == 500
        assert "JournalError" in reply["error"]
