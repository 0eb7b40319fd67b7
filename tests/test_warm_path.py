"""Behaviour pin for one warm served request.

The warm path (admission, priced-memo hit, publish) is tuned for
per-request cost; this pins what it must keep doing while it gets
cheaper.  One warm inline request, in the full-store regime the serving
benchmark runs in (the result and trace stores evict on every request),
must record the same timeline — ``(layer, kind, detail, sorted attr
keys)`` in order, timestamps dropped — and touch the same metric series.
A warm request is a priced-memo hit answered at admission: it never
queues, is never dispatched and touches no shard, so its one pricing
event is ``campaign`` ``hit`` (the warm tag) and it writes no scheduler,
shard or supervisor series.  Each store is entered once: the trace opens
with its ``frontend`` ``admitted`` event, so the hit is the one event
appended after it, and the result is published in one register-and-
complete step, so ``ResultStore.register`` is never called.  Admission
hands the published result back to ``Client.call``, so the client never
enters ``ResultStore.wait`` for a hit; the id still answers
``pool.result`` and ``GET /result/<id>``.  A profile of 1,000 warm calls
pins how many Python-level calls into ``repro`` one of them makes.
"""

from __future__ import annotations

import os
import sys

import pytest

import repro
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore
from repro.runtime.supervisor import ManualClock
from repro.serving import Client, CrossbarPool
from repro.serving.frontend import _http_json, build_server

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
    """``(timeline, appends, series, registers)`` of the request after
    ``warmups`` identical ones on a two-shard inline pool whose stores
    hold two entries each."""
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
        registers = []
        register = pool.results.register

        def counted(*args, **kwargs):
            appends.append(args)
            append(*args, **kwargs)

        def counted_register(request_id):
            registers.append(request_id)
            register(request_id)

        store.append = counted
        pool.results.register = counted_register
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            result = client.call("Sobel", relax_bits=8)
        finally:
            set_default_registry(previous)
            del store.append
            del pool.results.register
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
    return timeline, appends, series, registers


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
    timeline, _, _, _ = warm_request
    assert timeline == WARM_TIMELINE


def test_warm_request_appends_one_event(warm_request):
    """The trace opens with its admission event; only the hit is
    appended after."""
    _, appends, _, _ = warm_request
    assert [(layer, kind) for _, layer, kind, *_ in appends] == [
        ("campaign", "hit")
    ]


def test_warm_request_touches_the_pinned_series(warm_request):
    _, _, series, _ = warm_request
    assert series == WARM_SERIES


def test_warm_request_never_registers(warm_request):
    """A hit is published in one register-and-complete step."""
    _, _, _, registers = warm_request
    assert registers == []


def test_cold_request_registers_once(cold_request):
    _, _, _, registers = cold_request
    assert len(registers) == 1


def test_cold_request_runs_the_supervised_ladder(cold_request):
    """Outside its cold pricing work (tile execution), a memo miss
    records the supervised attempt and its success, not a hit, and
    touches the supervisor series, the retry counter included."""
    timeline, _, series, _ = cold_request
    ladder = [event for event in timeline
              if event[0] not in ("executor", "comparison", "locality")]
    assert ladder == COLD_LADDER
    assert all(entry in series for entry in SUPERVISOR_SERIES)


#: Python-level calls into ``repro`` frames per warm ``Client.call`` in a
#: full two-shard inline pool, rounded to one decimal (sketch compactions
#: and the SLO window's once-a-second prune add a few thousandths).  It
#: was 61.0 while the client waited on the result store for a hit, the
#: SLO window pruned on every record and the sketches were looked up and
#: checked one by one per request.
WARM_CALLS_PER_REQUEST = 49.0


def _counted(owner, name: str, log: list, tag=None) -> None:
    """Shadow ``owner.name`` with a wrapper that appends ``tag`` (the
    first argument without one) to ``log``; ``del owner.name`` undoes it."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        log.append(args[0] if tag is None else tag)
        return original(*args, **kwargs)

    setattr(owner, name, counted)


@pytest.fixture(scope="module")
def served():
    """A two-shard inline pool at the default identity behind a server."""
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline", seed=2017
    ).start()
    server = build_server(pool)
    server.start()
    try:
        yield pool, server
    finally:
        server.close()
        pool.stop()


def test_a_warm_call_never_waits_on_the_result_store(served):
    pool, _ = served
    client = Client(pool, tenant="handoff")
    client.call("Sobel", relax_bits=8)  # prices the key
    waits: list = []
    _counted(pool.results, "wait", waits)
    try:
        result = client.call("Sobel", relax_bits=8)
    finally:
        del pool.results.wait
    assert waits == []
    assert (result.status, result.shard) == ("ok", -1)


def test_a_handed_back_hit_still_answers_by_id(served):
    """The hit stays in the result store: ``pool.result`` returns the
    very result the call got, and ``GET /result/<id>`` renders it."""
    pool, server = served
    client = Client(pool, tenant="handoff")
    client.call("Robert", relax_bits=8)
    result = client.call("Robert", relax_bits=8)
    assert result.shard == -1
    assert pool.result(result.id, timeout=0.0) is result
    status, body = _http_json(f"{server.url}/result/{result.id}")
    assert status == 200
    assert (body["id"], body["status"], body["shard"]) == (
        result.id, "ok", -1,
    )
    assert body["point"] == {
        name: getattr(result.point, name) for name in body["point"]
    }


def test_a_journaled_hit_returns_after_its_group_commit(tmp_path):
    """On a journaled pool the hit's ``completed`` record is written in
    the commit step and made durable by the acknowledgement's sync
    before ``Client.call`` returns the result."""
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline", seed=2017,
        journal=str(tmp_path / "journal.jsonl"),
    )
    client = Client(pool, tenant="handoff")
    with pool:
        client.call("Sharpen", relax_bits=8)
        order: list = []
        _counted(pool.journal, "completed", order, "completed")
        _counted(pool.journal, "sync", order, "sync")
        try:
            result = client.call("Sharpen", relax_bits=8)
            order.append("returned")
        finally:
            del pool.journal.completed
            del pool.journal.sync
    assert result.shard == -1
    assert order == ["completed", "sync", "returned"]


def test_a_cold_call_still_waits():
    """A miss is queued: the client waits for it once."""
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline", seed=4330
    )
    client = Client(pool, tenant="handoff")
    waits: list = []
    with pool:
        _counted(pool.results, "wait", waits)
        try:
            result = client.call("Sobel", relax_bits=8)
        finally:
            del pool.results.wait
    assert result.shard >= 0
    assert waits == [result.id]


def test_warm_call_cost_is_pinned():
    """Count the Python-level calls into ``repro`` frames that 1,000
    warm calls make (``sys.setprofile``; deterministic, not a timing)."""
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline", seed=2017,
        result_capacity=2, trace_store=TraceStore(capacity=2),
    )
    client = Client(pool, tenant="pin")
    root = os.path.dirname(repro.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(root):
            calls += 1

    requests = 1000
    with pool:
        for _ in range(3):  # prices the key and fills both stores
            client.call("Sobel", relax_bits=8)
        sys.setprofile(profile)
        try:
            for _ in range(requests):
                client.call("Sobel", relax_bits=8)
        finally:
            sys.setprofile(None)
    assert round(calls / requests, 1) <= WARM_CALLS_PER_REQUEST


def test_a_manual_clock_pool_keeps_its_slo_window_on_that_clock():
    """Warm requests on a ``ManualClock`` pool land in the SLO bucket of
    the clock's second, however much wall time passes."""
    clock = ManualClock()
    pool = CrossbarPool(
        shards=2, tile_elements=1 << 9, runtime="inline", seed=2017,
        clock=clock,
    )
    client = Client(pool, tenant="pin")
    with pool:
        for _ in range(3):
            client.call("Sobel", relax_bits=8)
        clock.advance(5.0)
        for _ in range(3):
            client.call("Sobel", relax_bits=8)
    assert [bucket[:2] for bucket in pool.slo._events] == [[0, 3], [5, 3]]
