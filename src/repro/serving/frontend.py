"""The network frontend: JSON-over-HTTP API over a :class:`CrossbarPool`.

Endpoints (all JSON unless noted):

- ``POST /submit`` — body ``{"workload": "Sobel", "relax_bits": 16,
  "dataset_bytes": 67108864, "tenant": "alice", "priority": 1,
  "deadline_s": 2.5, "idempotency_key": "job-42"}`` (only ``workload``
  required).
- ``POST /search`` — body ``{"query": [0, 1, ...], "k": 10,
  "relax_bits": 0, "tenant": ..., "priority": ..., "deadline_s": ...,
  "idempotency_key": ...}`` (only ``query`` — a dim-length 0/1 vector —
  required).  Admits one similarity search against the pool's seeded
  binary codebook; the terminal result's ``search`` field carries the
  top-k ids, (possibly quantized) Hamming distances and the relax
  rung's shift.

  Both admission endpoints reply alike: ``202 {"id", "status":
  "queued", "trace_id"}``; ``200 {"status": "duplicate"}`` with the
  *original* id for a keyed repeat of the identical payload; ``409``
  for a used key with a different payload; ``429`` + ``Retry-After``
  on admission rejection; ``503`` while draining (with
  ``Retry-After``) or with every shard breaker open (without); ``500``
  when the journal cannot make the admission durable; ``400`` for any
  malformed body or field.
- ``GET /result/<id>`` — ``200`` with the terminal
  :class:`~repro.serving.scheduler.ServeResult` once done, ``202
  {"status": "pending"}`` while queued/executing, ``404`` for unknown
  ids, ``410`` once the result was evicted (capacity/TTL bound).
- ``GET /trace/<id>`` — the request's trace timeline (by trace id or
  request id): every hop from admission through scheduler, pool worker,
  supervisor, executor and controller; ``404`` once evicted/unknown.
- ``GET /healthz`` — ``200`` while at least one shard admits traffic and
  the SLO error budget is not fast-burning, ``503`` otherwise.
- ``GET /stats`` — scheduler depths, admission counters, per-shard
  served/failures/busy time.
- ``GET /fleet`` — the fleet control plane: live shard set with
  per-shard in-flight depth, shed tenants, and (when an autoscaler is
  attached) its policy, counters and recent decisions.
- ``GET /query?series=…&window=…&fn=…`` — retained telemetry history
  for the series matching the selector (optionally restricted to the
  trailing ``window`` seconds, optionally with a derived scalar:
  ``rate``/``ewma``/``slope``/``mean``/``min``/``max``/``value``).
  ``503`` while no telemetry pipeline is attached, ``400`` on a
  malformed selector/expression.
- ``GET /alerts`` — every alert rule's state
  (inactive/pending/firing/resolved), current value and transition
  count, plus the firing roll-up.  ``503`` without telemetry.
- ``GET /metrics`` — the process Prometheus scrape (text exposition).

:func:`build_server` wires these routes into the shared
:class:`~repro.serving.http.JsonHttpServer`; :func:`quick_selftest`
boots a real server on an ephemeral port, round-trips a workload through
plain ``urllib`` and asserts the result is correct — the CI smoke test
behind ``repro serve --quick``.
"""

from __future__ import annotations

import json
import re
import time
import urllib.error
import urllib.request

from repro.errors import (
    AdmissionRejectedError,
    DuplicateRequestError,
    JournalError,
    ReproError,
    SearchError,
    ServingError,
    ShardUnavailableError,
    TelemetryError,
)
from repro.serving.http import PROMETHEUS_CONTENT_TYPE, JsonHttpServer
from repro.serving.pool import CrossbarPool
from repro.units import MIB

__all__ = [
    "build_routes",
    "build_server",
    "fleet_quick_selftest",
    "quick_selftest",
    "search_quick_selftest",
]

#: The body fields every admission endpoint accepts.
_SHARED_FIELDS = {
    "relax_bits", "tenant", "priority", "deadline_s", "idempotency_key",
}


def _shared_fields(body: dict) -> dict:
    """The shared fields of an admission body as pool keyword arguments."""

    def optional(name, cast):
        return None if body.get(name) is None else cast(body[name])

    return {
        "relax_bits": int(body.get("relax_bits", 0)),
        "tenant": str(body.get("tenant", "default")),
        "priority": optional("priority", int),
        "deadline_s": optional("deadline_s", float),
        "idempotency_key": optional("idempotency_key", str),
    }


def _admit_submit(pool: CrossbarPool, body: dict):
    return pool.admit(
        str(body["workload"]),
        dataset_bytes=float(body.get("dataset_bytes", 64 * MIB)),
        **_shared_fields(body),
    )


def _admit_search(pool: CrossbarPool, body: dict):
    query = body["query"]
    if not isinstance(query, list):
        raise SearchError('"query" must be a list of 0/1 bits')
    return pool.admit_search(
        query, k=int(body.get("k", 10)), **_shared_fields(body)
    )


#: Per admission endpoint: its required key, its own fields beyond the
#: shared ones, and the call into the pool.
_ADMISSION_ENDPOINTS = {
    "submit": ("workload", {"workload", "dataset_bytes"}, _admit_submit),
    "search": ("query", {"query", "k"}, _admit_search),
}


def _retry_later(status: int, exc) -> tuple:
    return (
        status,
        {"error": str(exc), "retry_after_s": exc.retry_after_s},
        {"Retry-After": f"{exc.retry_after_s:.3f}"},
    )


def _admission_handler(pool: CrossbarPool, endpoint: str):
    required, own_fields, admit = _ADMISSION_ENDPOINTS[endpoint]
    fields = _SHARED_FIELDS | own_fields

    def handle(_match, body):
        if not isinstance(body, dict) or required not in body:
            return 400, {"error": f'body must be JSON with a "{required}" key'}
        unknown = set(body) - fields
        if unknown:
            return 400, {"error": f"unknown fields {sorted(unknown)}"}
        try:
            request_id, duplicate = admit(pool, body)
        except DuplicateRequestError as exc:
            return 409, {
                "error": str(exc),
                "idempotency_key": exc.idempotency_key,
                "id": exc.request_id,
            }
        except JournalError:
            # The admitted record could not be made durable, so the id
            # cannot be acknowledged: a journal outage is a server fault
            # (500 via the server's handler-exception path), not a 400.
            raise
        except AdmissionRejectedError as exc:
            return _retry_later(429, exc)
        except ShardUnavailableError as exc:
            # A draining pool says when to come back; a breaker-dark pool
            # has no estimate, so no Retry-After header in that case.
            if exc.retry_after_s is None:
                return 503, {"error": str(exc)}
            return _retry_later(503, exc)
        except (SearchError, ServingError, ValueError, TypeError) as exc:
            # A malformed field is the client's fault: self-correcting 400.
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        # A duplicate is answered 200, not 202: nothing new was queued —
        # the id points at the original request.
        return (200 if duplicate else 202), {
            "id": request_id,
            "status": "duplicate" if duplicate else "queued",
            "trace_id": pool.trace_id_for(request_id) or "",
        }

    return handle


def _result_handler(pool: CrossbarPool):
    def handle(match, _body):
        request_id = match.group("id")
        status, found = pool.results.lookup(request_id)
        if status == "done":
            return 200, found.to_dict()
        if status == "unknown":
            return 404, {"error": f"unknown request id {request_id!r}"}
        if status == "evicted":
            return 410, {
                "error": (
                    f"result for {request_id!r} was evicted ({found}); "
                    "results are retained up to the store's capacity and "
                    "TTL — fetch sooner or raise the bounds"
                ),
                "id": request_id,
                "reason": found,
            }
        return 202, {
            "id": request_id,
            "status": "pending",
            "trace_id": pool.trace_id_for(request_id) or "",
        }

    return handle


def _trace_handler(pool: CrossbarPool):
    def handle(match, _body):
        trace_id = match.group("id")
        timeline = pool.traces.timeline(trace_id)
        if timeline is None:
            return 404, {"error": f"unknown or evicted trace {trace_id!r}"}
        return 200, timeline

    return handle


def _healthz_handler(pool: CrossbarPool):
    def handle(_match, _body):
        health = pool.healthz()
        ok = (
            health["healthy_shards"] > 0
            and health["status"] != "fast_burn"
        )
        return (200 if ok else 503), health

    return handle


def _stats_handler(pool: CrossbarPool):
    def handle(_match, _body):
        return 200, pool.stats()

    return handle


def _fleet_handler(pool: CrossbarPool):
    def handle(_match, _body):
        return 200, pool.fleet_status()

    return handle


def _query_handler(pool: CrossbarPool):
    def handle(_match, _body, query):
        if pool.telemetry is None:
            return 503, {
                "error": "telemetry is not enabled on this server "
                "(start with --telemetry)"
            }
        selector = query.get("series")
        if not selector:
            return 400, {
                "error": "the series selector is required: "
                "/query?series=<name[{label=\"value\"}]>"
            }
        window = query.get("window")
        fn = query.get("fn") or None
        try:
            window_s = None if window in (None, "") else float(window)
            if window_s is not None and window_s <= 0:
                raise ValueError(f"window must be positive: {window_s}")
            payload = pool.telemetry.query(selector, window_s, fn=fn)
        except (TelemetryError, ValueError) as exc:
            return 400, {"error": str(exc)}
        return 200, payload

    return handle


def _alerts_handler(pool: CrossbarPool):
    def handle(_match, _body):
        if pool.telemetry is None:
            return 503, {
                "error": "telemetry is not enabled on this server "
                "(start with --telemetry)"
            }
        return 200, pool.telemetry.alerts()

    return handle


def _metrics_handler():
    def handle(_match, _body):
        from repro.observability import default_registry, to_prometheus

        return (
            200,
            to_prometheus(default_registry()),
            {"Content-Type": PROMETHEUS_CONTENT_TYPE},
        )

    return handle


def build_routes(pool: CrossbarPool):
    """The frontend route table over one pool."""
    return [
        ("POST", re.compile(r"/submit/?$"), _admission_handler(pool, "submit")),
        ("POST", re.compile(r"/search/?$"), _admission_handler(pool, "search")),
        (
            "GET",
            re.compile(r"/result/(?P<id>[A-Za-z0-9._:-]+)/?$"),
            _result_handler(pool),
        ),
        (
            "GET",
            re.compile(r"/trace/(?P<id>[A-Za-z0-9._:-]+)/?$"),
            _trace_handler(pool),
        ),
        ("GET", re.compile(r"/healthz/?$"), _healthz_handler(pool)),
        ("GET", re.compile(r"/stats/?$"), _stats_handler(pool)),
        ("GET", re.compile(r"/fleet/?$"), _fleet_handler(pool)),
        ("GET", re.compile(r"/query/?$"), _query_handler(pool)),
        ("GET", re.compile(r"/alerts/?$"), _alerts_handler(pool)),
        ("GET", re.compile(r"/metrics/?$"), _metrics_handler()),
    ]


def build_server(
    pool: CrossbarPool,
    host: str = "127.0.0.1",
    port: int = 0,
    max_body_bytes: int = 1 << 20,
) -> JsonHttpServer:
    """An HTTP server exposing ``pool`` (not yet started)."""
    return JsonHttpServer(
        build_routes(pool),
        host=host,
        port=port,
        max_body_bytes=max_body_bytes,
    )


def _http_json(url: str, payload: dict | None = None, timeout: float = 10.0):
    """One urllib round trip; returns (status, decoded JSON body)."""
    if payload is None:
        request = urllib.request.Request(url)
    else:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def _poll_result(base: str, request_id: str):
    """Poll ``/result/<id>`` for up to ~30 s; returns the last
    ``(status, body)`` — status 200 once the request is terminal."""
    for _ in range(600):
        status, body = _http_json(f"{base}/result/{request_id}")
        if status == 200:
            break
        time.sleep(0.05)
    return status, body


def quick_selftest(
    shards: int = 2,
    workload: str = "Robert",
    runtime: str = "thread",
    journal_dir: str | None = None,
) -> int:
    """Boot a real server, round-trip one workload, assert correctness.

    Returns a process exit code: 0 when the served point matches a direct
    (in-process) pricing of the same request, non-zero otherwise.  This is
    the CI smoke behind ``repro serve --quick`` — run per runtime
    (``--runtime subprocess`` smokes the process-isolated path, worker
    spawn and trace/metric forwarding included).  With ``journal_dir``
    set, the durability path is exercised too: idempotent resubmission,
    409 on a conflicting payload, and a full server restart on the same
    journal that must restore the result and replay an interrupted
    request (``repro serve --quick --journal``).
    """
    journal_path = None
    if journal_dir is not None:
        import os

        journal_path = os.path.join(journal_dir, "requests.jsonl")
    pool = CrossbarPool(
        shards=shards,
        tile_elements=1 << 9,
        runtime=runtime,
        journal=journal_path,
    )
    server = build_server(pool)
    failures: list[str] = []
    with pool, server:
        base = server.url
        status, health = _http_json(f"{base}/healthz")
        if status != 200 or health["healthy_shards"] != shards:
            failures.append(f"healthz: {status} {health}")
        status, reply = _http_json(
            f"{base}/submit",
            {"workload": workload, "relax_bits": 8, "tenant": "selftest"},
        )
        if status != 202 or "id" not in reply:
            failures.append(f"submit: {status} {reply}")
            request_id = None
        else:
            request_id = reply["id"]
        result = None
        if request_id is not None:
            status, result = _poll_result(base, request_id)
            if status != 200:
                failures.append(f"result never completed: {status} {result}")
        if result is not None and status == 200:
            point = result.get("point") or {}
            if result.get("status") not in (
                "ok", "retried", "degraded", "fallback"
            ):
                failures.append(f"bad terminal status: {result.get('status')}")
            # Correctness: the served numbers equal a direct in-process
            # pricing of the identical point (same seed, same tile).
            from repro.core.approximation import ApproxSpec
            from repro.runtime.comparison import ComparisonHarness
            from repro.workloads import workload_by_name

            direct = ComparisonHarness(tile_elements=1 << 9).compare(
                workload_by_name(workload), 64 * MIB,
                ApproxSpec.last_stage(8),
            )
            served_speedup = point.get("speedup")
            if served_speedup is None or abs(
                served_speedup - direct.speedup
            ) > 1e-9 * abs(direct.speedup):
                failures.append(
                    f"served speedup {served_speedup} != direct "
                    f"{direct.speedup}"
                )
        if result is not None and status == 200:
            trace_id = result.get("trace_id")
            if not trace_id:
                failures.append(f"result carries no trace_id: {result}")
            else:
                status, timeline = _http_json(f"{base}/trace/{trace_id}")
                layers = {
                    event["layer"]
                    for event in (timeline or {}).get("events", [])
                }
                needed = {"frontend", "scheduler", "pool", "supervisor",
                          "executor"}
                if status != 200 or not needed <= layers:
                    failures.append(
                        f"trace timeline incomplete: {status} layers="
                        f"{sorted(layers)}"
                    )
        status, stats = _http_json(f"{base}/stats")
        if status != 200 or stats["scheduler"]["admitted"] < 1:
            failures.append(f"stats: {status} {stats}")
        status, unknown = _http_json(f"{base}/result/nope")
        if status != 404:
            failures.append(f"unknown id should 404, got {status}")
        if journal_path is not None:
            failures.extend(_selftest_idempotency(base, workload))
    if journal_path is not None and not failures:
        failures.extend(
            _selftest_journal_restart(
                shards, workload, runtime, journal_path, request_id, result
            )
        )
    if failures:
        for failure in failures:
            print(f"SELFTEST FAIL: {failure}")
        return 1
    durability = ", journal recovery verified" if journal_path else ""
    print(
        f"serve selftest ok: {workload} m=8 round-tripped through "
        f"{shards} shard(s) over HTTP, result bit-identical to direct "
        f"pricing{durability}"
    )
    return 0


def _selftest_idempotency(base: str, workload: str) -> list[str]:
    """Exercise the idempotency-key contract against a live server."""
    failures: list[str] = []
    payload = {
        "workload": workload, "relax_bits": 8, "tenant": "selftest",
        "idempotency_key": "selftest-key",
    }
    status, first = _http_json(f"{base}/submit", payload)
    if status != 202 or "id" not in first:
        failures.append(f"keyed submit: {status} {first}")
        return failures
    status, again = _http_json(f"{base}/submit", payload)
    if (
        status != 200
        or again.get("status") != "duplicate"
        or again.get("id") != first["id"]
    ):
        failures.append(f"duplicate submit not detected: {status} {again}")
    status, conflict = _http_json(
        f"{base}/submit", {**payload, "relax_bits": 16}
    )
    if status != 409:
        failures.append(
            f"conflicting payload should 409, got {status} {conflict}"
        )
    status, _ = _poll_result(base, first["id"])
    if status != 200:
        failures.append(f"keyed request never completed: {status}")
    return failures


def _selftest_journal_restart(
    shards: int,
    workload: str,
    runtime: str,
    journal_path: str,
    request_id: str | None,
    first_result: dict | None,
) -> list[str]:
    """Restart a server on the same journal and verify crash recovery:
    completed results restored bit-identically, an acknowledged-but
    -incomplete request replayed to a terminal result, and the
    idempotency index rebuilt."""
    from repro.serving.journal import RequestJournal
    from repro.serving.scheduler import ServeRequest

    failures: list[str] = []
    # Simulate the crash case the journal exists for: an ``admitted``
    # record (the client holds this id) with no terminal record.
    crash_id = "selftest-00000099"
    with RequestJournal(journal_path) as journal:
        journal.admitted(
            ServeRequest(
                id=crash_id,
                workload=workload,
                relax_bits=8,
                dataset_bytes=int(64 * MIB),
                tenant="selftest",
                priority=1,
            )
        )
    pool = CrossbarPool(
        shards=shards,
        tile_elements=1 << 9,
        runtime=runtime,
        journal=journal_path,
    )
    server = build_server(pool)
    with pool, server:
        base = server.url
        status, stats = _http_json(f"{base}/stats")
        recovery = ((stats.get("journal") or {}).get("recovery")) or {}
        if recovery.get("restored", 0) < 1 or recovery.get("replayed") != 1:
            failures.append(f"recovery counts wrong: {recovery}")
        if request_id is not None and first_result is not None:
            status, restored = _http_json(f"{base}/result/{request_id}")
            if status != 200:
                failures.append(f"restored result not served: {status}")
            else:
                served = (restored.get("point") or {}).get("speedup")
                original = (first_result.get("point") or {}).get("speedup")
                if served != original:
                    failures.append(
                        f"restored speedup {served} != first life {original}"
                    )
        status, _ = _poll_result(base, crash_id)
        if status != 200:
            failures.append(f"replayed request never completed: {status}")
        status, again = _http_json(
            f"{base}/submit",
            {
                "workload": workload, "relax_bits": 8, "tenant": "selftest",
                "idempotency_key": "selftest-key",
            },
        )
        if status != 200 or again.get("status") != "duplicate":
            failures.append(
                f"idempotency index not durable: {status} {again}"
            )
    return failures


def search_quick_selftest(shards: int = 2, runtime: str = "thread") -> int:
    """Boot a real server, round-trip `/search`, assert exactness.

    The client side rebuilds the pool's codebook from the same seed
    (:func:`~repro.search.index.default_search_index` is deterministic in
    the seed alone) and brute-forces the exact top-k with numpy — at
    ``relax_bits = 0`` the served ids and distances must match it
    bit-for-bit.  Also exercises the duplicate-suppression path, a 400 on
    a malformed query, and the trace timeline of a search request.  The
    CI smoke behind ``repro search --quick``; returns a process exit
    code.
    """
    import numpy as np

    from repro.search import default_search_index

    pool = CrossbarPool(shards=shards, tile_elements=1 << 9, runtime=runtime)
    server = build_server(pool)
    failures: list[str] = []
    with pool, server:
        base = server.url
        index = default_search_index(seed=pool.seed)
        rng = np.random.default_rng(42)
        query = rng.integers(0, 2, index.dim).tolist()
        k = 10
        status, reply = _http_json(
            f"{base}/search", {"query": query, "k": k, "relax_bits": 0}
        )
        if status != 202 or "id" not in reply:
            failures.append(f"search submit: {status} {reply}")
            result = None
        else:
            status, result = _poll_result(base, reply["id"])
            if status != 200:
                failures.append(f"search never completed: {status} {result}")
                result = None
        if result is not None:
            served = result.get("search") or {}
            # The ground truth, computed client-side with plain numpy:
            # exact Hamming distances, stable argsort.
            distances = index.codebook.distances(np.asarray(query))
            order = np.argsort(distances, kind="stable")[:k]
            exact_ids = [int(i) for i in order]
            exact_distances = [int(d) for d in distances[order]]
            if served.get("ids") != exact_ids:
                failures.append(
                    f"served ids {served.get('ids')} != brute force "
                    f"{exact_ids}"
                )
            if served.get("distances") != exact_distances:
                failures.append(
                    f"served distances != brute force: "
                    f"{served.get('distances')} vs {exact_distances}"
                )
            if served.get("shift") != 0:
                failures.append(f"relax 0 must not quantize: {served}")
            trace_id = result.get("trace_id")
            if trace_id:
                status, timeline = _http_json(f"{base}/trace/{trace_id}")
                kinds = {
                    (event["layer"], event["kind"])
                    for event in (timeline or {}).get("events", [])
                }
                if status != 200 or ("executor", "search") not in kinds:
                    failures.append(
                        f"search trace lacks executor event: {sorted(kinds)}"
                    )
            else:
                failures.append("search result carries no trace_id")
        # Duplicate suppression: same key + same payload returns the
        # original id without queueing new work.
        payload = {
            "query": query, "k": k, "idempotency_key": "search-selftest",
        }
        status, first = _http_json(f"{base}/search", payload)
        status2, again = _http_json(f"{base}/search", payload)
        if status != 202 or status2 != 200 or again.get("id") != first.get(
            "id"
        ):
            failures.append(
                f"search duplicate suppression: {status} {status2} {again}"
            )
        # A malformed query is the client's fault: 400, not a crash.
        status, bad = _http_json(f"{base}/search", {"query": [0, 1, 2]})
        if status != 400:
            failures.append(f"bad query should 400, got {status} {bad}")
        status, bad = _http_json(f"{base}/search", {"query": query, "k": 0})
        if status != 400:
            failures.append(f"k=0 should 400, got {status} {bad}")
    if failures:
        for failure in failures:
            print(f"SEARCH SELFTEST FAIL: {failure}")
        return 1
    print(
        f"search selftest ok: top-{k} over {index.entries} codewords "
        f"round-tripped through {shards} shard(s) over HTTP, ids and "
        "distances bit-identical to numpy brute force"
    )
    return 0


def fleet_quick_selftest(workload: str = "Sobel") -> int:
    """Boot a server, force one scale-up and one scale-down, assert
    ``/fleet`` reflects both.

    The pool runs on a :class:`~repro.runtime.supervisor.ManualClock`
    (``CrossbarPool(clock=...)``; the autoscaler inherits it from the
    scheduler), so the grow → cooldown → shrink sequence is fully
    deterministic: one forced ``slow_burn`` verdict grows 1→2 shards, a
    clock advance past the cooldown plus one forced ``ok`` verdict shrinks
    2→1.  Between the resizes a real request round-trips over HTTP through
    the resized pool, and its reported queue wait may not exceed the
    manual time that passed meanwhile.  The CI smoke behind ``repro fleet
    --quick``; returns a process exit code.
    """
    from repro.fleet import Autoscaler, FleetPolicy
    from repro.runtime.supervisor import ManualClock
    from repro.serving.scheduler import ServingConfig

    clock = ManualClock()
    pool = CrossbarPool(
        shards=1,
        tile_elements=1 << 9,
        serving_config=ServingConfig(max_wait_s=0.0),
        clock=clock,
        runtime="thread",
    )
    policy = FleetPolicy(
        min_shards=1, max_shards=2, grow_after=1, shrink_after=1,
        cooldown_s=1.0, headroom_burn=1e9,
    )
    autoscaler = Autoscaler(pool, policy=policy)
    server = build_server(pool)
    failures: list[str] = []
    with pool, server:
        base = server.url
        status, fleet = _http_json(f"{base}/fleet")
        if status != 200 or fleet["shards"] != 1:
            failures.append(f"initial /fleet: {status} {fleet}")
        # One forced slow-burn verdict trips the grow (grow_after=1).
        decision = autoscaler.step(verdict="slow_burn")
        if decision["action"] != "grow":
            failures.append(f"expected grow, got {decision}")
        status, fleet = _http_json(f"{base}/fleet")
        if (
            status != 200
            or fleet["shards"] != 2
            or (fleet["autoscaler"] or {}).get("scale_ups") != 1
        ):
            failures.append(f"/fleet after grow: {status} {fleet}")
        # A real request through the grown pool, over HTTP.
        submitted_at = clock()
        status, reply = _http_json(
            f"{base}/submit", {"workload": workload, "relax_bits": 8}
        )
        if status != 202:
            failures.append(f"submit: {status} {reply}")
        else:
            status, result = _poll_result(base, reply["id"])
            elapsed = clock() - submitted_at
            if status != 200:
                failures.append(f"result never completed: {status}")
            elif result["queue_wait_s"] > elapsed:
                failures.append(
                    f"queue_wait_s {result['queue_wait_s']} exceeds the "
                    f"{elapsed}s the manual clock advanced"
                )
        pool.wait_drained(timeout=10.0)
        # Past the cooldown, one quiet verdict trips the shrink.
        clock.advance(policy.cooldown_s + 0.1)
        decision = autoscaler.step(verdict="ok")
        if decision["action"] != "shrink":
            failures.append(f"expected shrink, got {decision}")
        status, fleet = _http_json(f"{base}/fleet")
        if (
            status != 200
            or fleet["shards"] != 1
            or (fleet["autoscaler"] or {}).get("scale_downs") != 1
        ):
            failures.append(f"/fleet after shrink: {status} {fleet}")
        actions = [
            d["action"]
            for d in (fleet.get("autoscaler") or {}).get(
                "recent_decisions", []
            )
        ]
        if "grow" not in actions or "shrink" not in actions:
            failures.append(f"/fleet decision log incomplete: {actions}")
    if failures:
        for failure in failures:
            print(f"FLEET SELFTEST FAIL: {failure}")
        return 1
    print(
        "fleet selftest ok: scale-up and scale-down under a manual clock, "
        "both visible on /fleet, one request served through the resized "
        "pool"
    )
    return 0
