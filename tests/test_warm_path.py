"""Behaviour pin for one warm served request.

The warm path (admission, priced-memo hit, publish) is tuned for
per-request cost; this pins what it must keep doing while it gets
cheaper.  One warm inline request, in the full-store regime the serving
benchmark runs in (the result and trace stores evict on every request),
must record the same timeline — ``(layer, kind, detail, sorted attr
keys)`` in order, timestamps dropped — append exactly two trace events
and touch the same metric series.  A warm request is a priced-memo hit
answered at admission: it never queues, is never dispatched and touches
no shard, so its one pricing event is ``campaign`` ``hit`` (the warm
tag) and it writes no scheduler, shard or supervisor series.
"""

from __future__ import annotations

import pytest

from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore
from repro.serving import Client, CrossbarPool

WARM_TIMELINE = [
    ("frontend", "admitted", "", ["priority"]),
    ("campaign", "hit", "", []),
]

WARM_SERIES = [
    ("repro_request_duration_seconds", []),
    ("repro_serving_admission_total", [("outcome", "admitted")]),
    ("repro_serving_queue_wait_seconds", []),
    ("repro_serving_requests_total", [("status", "ok"), ("tenant", "pin")]),
    ("repro_serving_result_evictions_total", [("reason", "capacity")]),
]


#: A cold first request (a priced-memo miss) is supervised: its rescue
#: ladder records the attempt and its success, and touches these series.
COLD_LADDER = [
    ("frontend", "admitted", "", ["priority"]),
    ("scheduler", "queue_enter", "", ["depth", "priority"]),
    ("pool", "dispatch", "", ["batch_size", "queue_wait_s", "shard"]),
    ("supervisor", "attempt", "attempt 1", ["key"]),
    ("supervisor", "success", "ok after 1 attempt(s)", ["key"]),
    ("pool", "complete", "", ["attempts", "service_s", "status"]),
]

SUPERVISOR_SERIES = [
    ("repro_supervisor_events_total", [("kind", "attempt")]),
    ("repro_supervisor_events_total", [("kind", "success")]),
    ("repro_supervisor_retries_total", []),
]


def _pinned_request(warmups: int, seed: int) -> tuple:
    """``(timeline, appends, series)`` of the request after ``warmups``
    identical ones on a two-shard inline pool whose stores hold two
    entries each."""
    store = TraceStore(capacity=2)
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline", seed=seed,
        result_capacity=2, trace_store=store,
    )
    client = Client(pool, tenant="pin")
    with pool:
        for _ in range(warmups):
            client.call("Sobel", relax_bits=8)
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


@pytest.fixture(scope="module")
def warm_request():
    """The third identical request: its point is priced and both
    stores are full."""
    return _pinned_request(warmups=2, seed=2017)


@pytest.fixture(scope="module")
def cold_request():
    """The first request at an identity no other test interns."""
    return _pinned_request(warmups=0, seed=4243)


def test_warm_timeline_is_pinned(warm_request):
    timeline, _, _ = warm_request
    assert timeline == WARM_TIMELINE


def test_warm_request_appends_two_events(warm_request):
    _, appends, _ = warm_request
    assert len(appends) == 2


def test_warm_request_touches_the_pinned_series(warm_request):
    _, _, series = warm_request
    assert series == WARM_SERIES


def test_cold_request_runs_the_supervised_ladder(cold_request):
    """Outside its cold pricing work (tile execution), a memo miss
    records the supervised attempt and its success, not a hit, and
    touches the supervisor series, the retry counter included."""
    timeline, _, series = cold_request
    ladder = [event for event in timeline
              if event[0] not in ("executor", "comparison", "locality")]
    assert ladder == COLD_LADDER
    assert all(entry in series for entry in SUPERVISOR_SERIES)
