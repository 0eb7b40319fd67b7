"""Behaviour pin for one warm served request.

The warm path (admission, scheduler, supervision, publish) is tuned for
per-request cost; this pins what it must keep doing while it gets
cheaper.  One warm inline request, in the full-store regime the serving
benchmark runs in (the result and trace stores evict on every request),
must record the same timeline — ``(layer, kind, detail, sorted attr
keys)`` in order, timestamps dropped — append exactly eight trace events
and touch the same metric series.
"""

from __future__ import annotations

import pytest

from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore
from repro.serving import Client, CrossbarPool

WARM_TIMELINE = [
    ("frontend", "admitted", "", ["priority", "request_id"]),
    ("scheduler", "queue_enter", "", ["depth", "priority"]),
    ("scheduler", "queue_exit", "", ["wait_s"]),
    ("scheduler", "batch_lead", "", ["size"]),
    ("pool", "dispatch", "", ["batch_size", "queue_wait_s", "shard"]),
    ("supervisor", "attempt", "attempt 1", ["key"]),
    ("supervisor", "success", "ok after 1 attempt(s)", ["key"]),
    ("pool", "complete", "", ["attempts", "service_s", "status"]),
]

WARM_SERIES = [
    ("repro_request_duration_seconds", []),
    ("repro_serving_admission_total", [("outcome", "admitted")]),
    ("repro_serving_batch_size", []),
    ("repro_serving_queue_depth", [("priority", "1")]),
    ("repro_serving_queue_wait_seconds", []),
    ("repro_serving_requests_total", [("status", "ok"), ("tenant", "pin")]),
    ("repro_serving_result_evictions_total", [("reason", "capacity")]),
    ("repro_serving_shard_busy_seconds_total", [("shard", "0")]),
    ("repro_serving_shard_requests_total", [("shard", "0"), ("status", "ok")]),
    ("repro_supervisor_events_total", [("kind", "attempt")]),
    ("repro_supervisor_events_total", [("kind", "success")]),
    ("repro_supervisor_retries_total", []),
]


@pytest.fixture(scope="module")
def warm_request():
    """``(timeline, appends, series)`` of the third identical request on
    a two-shard inline pool whose stores hold two entries each."""
    store = TraceStore(capacity=2)
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline",
        result_capacity=2, trace_store=store,
    )
    client = Client(pool, tenant="pin")
    with pool:
        client.call("Sobel", relax_bits=8)
        client.call("Sobel", relax_bits=8)  # both shards now warm
        appends = []
        append = store.append

        def counted(*args, **kwargs):
            appends.append(args)
            append(*args, **kwargs)

        store.append = counted
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            result = client.call("Sobel", relax_bits=8)
        finally:
            set_default_registry(previous)
            del store.append
    assert result.status == "ok"
    timeline = [
        (e.layer, e.kind, e.detail, sorted(e.attrs))
        for e in store.get(result.id).events
    ]
    series = sorted(
        (family.name, sorted(labels.items()))
        for family in registry.families()
        for labels, _ in family.samples()
    )
    return timeline, appends, series


def test_warm_timeline_is_pinned(warm_request):
    timeline, _, _ = warm_request
    assert timeline == WARM_TIMELINE


def test_warm_request_appends_eight_events(warm_request):
    _, appends, _ = warm_request
    assert len(appends) == 8


def test_warm_request_touches_the_pinned_series(warm_request):
    _, _, series = warm_request
    assert series == WARM_SERIES
