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
  "queued"}`` (the id also names the request's trace); ``200
  {"status": "duplicate"}`` with the *original* id for a keyed repeat
  of the identical payload; ``409`` for a used key with a different
  payload; ``429`` + ``Retry-After`` on admission rejection; ``503``
  while draining (with ``Retry-After``) or with every shard breaker
  open (without); ``500`` when the journal cannot make the admission
  durable; ``400`` for any malformed body or field, including a
  ``tenant`` outside the request-id characters ``[A-Za-z0-9._:-]``.
- ``GET /result/<id>`` — ``200`` with the terminal
  :class:`~repro.serving.scheduler.ServeResult` once done, ``202
  {"status": "pending"}`` while queued/executing, ``404`` for unknown
  ids, ``410`` once the result was evicted (capacity/TTL bound).
- ``GET /trace/<id>`` — the request's trace timeline, keyed by the
  request id (or a store-made id for a trace no request owns, such as
  an autoscaler decision): every hop from admission through scheduler,
  pool worker, supervisor, executor and controller; ``404`` once
  evicted/unknown.
- ``GET /healthz`` — ``200`` while at least one shard admits traffic and
  the SLO error budget is not fast-burning, ``503`` otherwise.
- ``GET /stats`` — scheduler depths, admission counters, per-shard
  served/failures/busy time.
- ``GET /fleet`` — the fleet control plane: live shard set with
  per-shard in-flight depth, shed tenants, and (when an autoscaler is
  attached) its policy, counters and recent decisions.
- ``GET /query?series=…&window=…&fn=…`` — retained telemetry history
  for the series matching the selector (optionally restricted to the
  trailing ``window`` seconds, optionally with each series' derived
  scalar ``fn`` = ``value``/``rate``/``slope`` over that window).
  ``503`` while no telemetry pipeline is attached, ``400`` on a
  malformed selector, an unknown ``fn`` or a window that is not a
  positive finite number of seconds.
- ``GET /alerts`` — every alert rule's state
  (inactive/pending/firing/resolved), current value and transition
  count, plus the firing roll-up.  ``503`` without telemetry.
- ``GET /metrics`` — the process Prometheus scrape (text exposition).

:func:`build_server` wires these routes into the shared
:class:`~repro.serving.http.JsonHttpServer`; :func:`_http_json` is the
plain-``urllib`` client that ``repro top --url`` polls a live server
with.
"""

from __future__ import annotations

import json
import math
import re

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

__all__ = ["build_routes", "build_server"]

#: The body fields every admission endpoint accepts.
_SHARED_FIELDS = {
    "relax_bits", "tenant", "priority", "deadline_s", "idempotency_key",
}

#: The characters of a request id, ``{tenant}-{seq:08d}``.  A tenant name
#: outside them would mint an id that ``/result`` and ``/trace`` never match.
_ID_CHARS = "A-Za-z0-9._:-"
_TENANT_RE = re.compile(f"[{_ID_CHARS}]*")


def _shared_fields(body: dict) -> dict:
    """The shared fields of an admission body as pool keyword arguments."""

    def optional(name, cast):
        return None if body.get(name) is None else cast(body[name])

    tenant = str(body.get("tenant", "default"))
    if not _TENANT_RE.fullmatch(tenant):
        raise ValueError(f"tenant {tenant!r} may only use [{_ID_CHARS}]")
    return {
        "relax_bits": int(body.get("relax_bits", 0)),
        "tenant": tenant,
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
            request_id, duplicate, _ = admit(pool, body)
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
        except (SearchError, ServingError, ValueError, TypeError, OverflowError) as exc:
            # A malformed field (int(inf) overflows) is the client's fault: 400.
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 400, {"error": f"{type(exc).__name__}: {exc}"}
        # A duplicate is answered 200, not 202: nothing new was queued —
        # the id points at the original request.
        return (200 if duplicate else 202), {
            "id": request_id,
            "status": "duplicate" if duplicate else "queued",
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
        return 202, {"id": request_id, "status": "pending"}

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
            if window_s is not None and not 0 < window_s < math.inf:
                raise ValueError(
                    f"window must be positive and finite: {window_s}"
                )
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
            re.compile(f"/result/(?P<id>[{_ID_CHARS}]+)/?$"),
            _result_handler(pool),
        ),
        (
            "GET",
            re.compile(f"/trace/(?P<id>[{_ID_CHARS}]+)/?$"),
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
) -> JsonHttpServer:
    """An HTTP server exposing ``pool`` (not yet started)."""
    return JsonHttpServer(build_routes(pool), host=host, port=port)


def _http_json(url: str, payload: dict | None = None, timeout: float = 10.0):
    """One urllib round trip; returns (status, decoded JSON body).

    ``urllib.request`` is imported here, not at module level: it pulls in
    ``http.client`` and the ``email`` package, which nothing else on the
    serving path needs."""
    import urllib.error
    import urllib.request

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
