"""End-to-end request tracing: the store, propagation, and the pool.

The contract pinned here is the tentpole of the tracing subsystem: every
admitted request yields one bounded trace whose timeline crosses the
frontend, scheduler, pool, supervisor and executor layers; rescue
activity (retries, reroutes) appears as events; and the store
stays bounded under load — eviction spills to JSONL instead of losing
the record.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ShardUnavailableError, TracingError
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import (
    TraceStore,
    current_trace,
    format_timeline,
    load_spilled,
    trace_event,
    use_trace,
)
from repro.runtime.chaos import ChaosPolicy
from repro.runtime.supervisor import ManualClock
from repro.serving import Client, CrossbarPool
from repro.serving.journal import RequestJournal
from repro.serving.scheduler import BatchingScheduler, ServeRequest

TILE = 1 << 9


def _store(**kwargs) -> TraceStore:
    kwargs.setdefault("id_prefix", "t")
    kwargs.setdefault("clock", ManualClock())
    return TraceStore(**kwargs)


class TestTraceStore:
    def test_ids_are_deterministic_with_prefix(self):
        store = _store()
        first = store.new_trace()
        second = store.new_trace()
        assert (first.trace_id, second.trace_id) == ("t.0", "t.1")
        # A request's trace is keyed by the request id as given.
        assert store.new_trace("t-00000000").trace_id == "t-00000000"
        assert store.new_trace().trace_id == "t.2"

    def test_events_append_in_order_with_clock_stamps(self):
        clock = ManualClock()
        store = TraceStore(id_prefix="t", clock=clock)
        ctx = store.new_trace(tenant="a")
        ctx.event("frontend", "admitted", request_id="r1")
        clock.advance(0.5)
        ctx.event("pool", "dispatch", shard=0)
        record = store.get(ctx.trace_id)
        assert [(e.layer, e.kind) for e in record.events] == [
            ("frontend", "admitted"), ("pool", "dispatch"),
        ]
        assert record.events[1].ts - record.events[0].ts == 0.5
        assert record.events[0].attrs == {"request_id": "r1"}

    def test_capacity_evicts_oldest_and_spills(self, tmp_path):
        path = str(tmp_path / "spill.jsonl")
        store = _store(capacity=2, spill_path=path)
        oldest = store.new_trace("req-00000001", n=1)
        oldest.event("pool", "dispatch")
        store.new_trace(n=2)
        store.new_trace(n=3)
        assert len(store) == 2
        assert store.evicted == 1
        assert store.spilled == 1
        assert store.get("req-00000001") is None
        (spilled,) = load_spilled(path)
        assert spilled.trace_id == "req-00000001"
        assert spilled.baggage == {"n": 1}
        assert [e.kind for e in spilled.events] == ["dispatch"]

    def test_eviction_without_spill_path_just_drops(self):
        store = _store(capacity=1)
        store.new_trace()
        store.new_trace()
        assert store.evicted == 1
        assert store.spilled == 0

    def test_max_events_bounds_each_trace_and_counts_drops(self):
        store = _store(max_events=3)
        ctx = store.new_trace()
        for index in range(5):
            ctx.event("pool", "tick", n=index)
        record = store.get(ctx.trace_id)
        assert len(record.events) == 3
        assert record.dropped_events == 2
        assert "2 event(s) dropped" in format_timeline(record)

    def test_opening_events_land_with_the_record(self):
        """A trace opened with its first events holds them as if they
        were appended at once, stamped with the record's clock read,
        and its context shares the record's baggage."""
        clock = ManualClock()
        store = _store(clock=clock)
        clock.advance(2.5)
        ctx = store.new_trace(
            "r-1",
            (("frontend", "admitted", "", {"priority": 1}),
             ("journal", "admitted", "", {})),
            tenant="a",
        )
        record = store.get("r-1")
        assert [(e.ts, e.layer, e.kind, e.attrs) for e in record.events] == [
            (2.5, "frontend", "admitted", {"priority": 1}),
            (2.5, "journal", "admitted", {}),
        ]
        assert record.created_ts == 2.5
        assert ctx.baggage is record.baggage == {"tenant": "a"}

    def test_opening_events_respect_max_events(self):
        store = _store(max_events=1)
        store.new_trace("r-1", (("a", "b", "", {}), ("c", "d", "", {})))
        record = store.get("r-1")
        assert [(e.layer, e.kind) for e in record.events] == [("a", "b")]
        assert record.dropped_events == 1

    def test_append_to_unknown_trace_is_a_noop(self):
        store = _store()
        store.append("no-such-trace", "pool", "dispatch")
        assert len(store) == 0

    def test_lookup_by_id_and_timeline(self):
        store = _store()
        ctx = store.new_trace("request-00000001", workload="Sobel")
        ctx.event("pool", "dispatch", shard=0)
        ctx.event("pool", "complete", "done")
        assert ctx.trace_id == "request-00000001"
        assert store.get("request-00000001").baggage == {"workload": "Sobel"}
        timeline = store.timeline("request-00000001")
        assert timeline["trace_id"] == "request-00000001"
        assert timeline["baggage"] == {"workload": "Sobel"}
        # Events carry no span id: a trace is one span.
        assert [sorted(event) for event in timeline["events"]] == [
            ["attrs", "kind", "layer", "ts"],
            ["detail", "kind", "layer", "ts"],
        ]
        assert store.get("unknown") is None
        assert store.timeline("unknown") is None

    def test_bad_config_raises(self):
        with pytest.raises(TracingError):
            TraceStore(capacity=0)
        with pytest.raises(TracingError):
            TraceStore(max_events=0)

    def test_load_spilled_tolerates_torn_tail(self, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        store = _store(capacity=1, spill_path=path)
        store.new_trace()
        store.new_trace()  # spills the first
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"trace_id": "torn-')  # crash mid-write
        assert len(load_spilled(path)) == 1

    def test_load_spilled_missing_file_raises(self, tmp_path):
        with pytest.raises(TracingError):
            load_spilled(str(tmp_path / "absent.jsonl"))

    def test_reopened_id_replaces_the_resident_trace(self, tmp_path):
        """Opening a resident id again (a journal replay in the same
        store) replaces its trace, spills the old one like an eviction
        and makes the id the newest entry."""
        path = str(tmp_path / "spill.jsonl")
        store = _store(capacity=2, spill_path=path)
        store.new_trace("req-00000001", life=1).event("pool", "dispatch")
        decision = store.new_trace()
        store.new_trace("req-00000001", life=2)
        assert (len(store), store.evicted, store.spilled) == (2, 1, 1)
        assert store.get("req-00000001").baggage == {"life": 2}
        assert store.get("req-00000001").events == []
        (spilled,) = load_spilled(path)
        assert (spilled.trace_id, spilled.baggage) == (
            "req-00000001", {"life": 1},
        )
        store.new_trace()  # evicts the oldest: the decision, not the id
        assert store.get(decision.trace_id) is None
        assert store.get("req-00000001").baggage == {"life": 2}


class TestAmbientPropagation:
    def test_use_trace_installs_and_restores(self):
        store = _store()
        outer = store.new_trace()
        inner = store.new_trace()
        assert current_trace() is None
        with use_trace(outer):
            assert current_trace() is outer
            with use_trace(inner):
                assert current_trace() is inner
            assert current_trace() is outer
        assert current_trace() is None

    def test_use_trace_accepts_none(self):
        store = _store()
        ctx = store.new_trace()
        with use_trace(ctx):
            with use_trace(None):
                assert current_trace() is None
                trace_event("pool", "invisible")
            assert current_trace() is ctx
        assert store.get(ctx.trace_id).events == []

    def test_trace_event_without_context_is_a_noop(self):
        assert current_trace() is None
        trace_event("pool", "orphan", "nothing listens")  # must not raise

    def test_trace_event_appends_to_current(self):
        store = _store()
        ctx = store.new_trace()
        with use_trace(ctx):
            trace_event("executor", "run", workload="Sobel")
        (event,) = store.get(ctx.trace_id).events
        assert (event.layer, event.kind) == ("executor", "run")
        assert event.attrs == {"workload": "Sobel"}

    def test_threads_do_not_inherit_the_context(self):
        store = _store()
        ctx = store.new_trace()
        seen = []
        with use_trace(ctx):
            thread = threading.Thread(
                target=lambda: seen.append(current_trace())
            )
            thread.start()
            thread.join(timeout=10.0)
        assert seen == [None]

    def test_scope_restores_after_exception(self):
        store = _store()
        ctx = store.new_trace()
        with pytest.raises(RuntimeError):
            with use_trace(ctx):
                raise RuntimeError("boom")
        assert current_trace() is None


class TestFormatTimeline:
    def test_renders_header_rows_and_offsets(self):
        clock = ManualClock()
        store = TraceStore(id_prefix="t", clock=clock)
        ctx = store.new_trace(tenant="a", workload="Sobel")
        ctx.event("frontend", "admitted", request_id="r1")
        clock.advance(0.0025)
        ctx.event("pool", "complete", "all done", status="ok")
        text = format_timeline(store.get(ctx.trace_id))
        lines = text.splitlines()
        assert lines[0] == f"trace {ctx.trace_id}  [tenant=a workload=Sobel]"
        assert "frontend" in lines[2] and "admitted" in lines[2]
        assert "2.500" in lines[3] and "all done status=ok" in lines[3]

    def test_accepts_the_json_dict_form(self):
        store = _store()
        ctx = store.new_trace()
        ctx.event("pool", "dispatch", shard=1)
        as_dict = json.loads(json.dumps(store.timeline(ctx.trace_id)))
        assert format_timeline(as_dict) == format_timeline(
            store.get(ctx.trace_id)
        )


REQUIRED_LAYERS = {"frontend", "scheduler", "pool", "supervisor", "executor"}


class TestPoolTracing:
    def test_clean_request_covers_all_layers(self, cold_memos):
        store = TraceStore(id_prefix="t")
        with CrossbarPool(
            shards=1, tile_elements=TILE, trace_store=store
        ) as pool:
            result = Client(pool, tenant="tr").call("Robert", relax_bits=8)
        assert result.status == "ok"
        record = store.get(result.id)
        layers = {event.layer for event in record.events}
        assert REQUIRED_LAYERS <= layers
        kinds = [event.kind for event in record.events]
        for kind in ("admitted", "queue_enter", "dispatch",
                     "attempt", "run", "done", "complete"):
            assert kind in kinds, (kind, kinds)
        # Admission precedes queueing precedes dispatch precedes completion.
        assert kinds.index("admitted") < kinds.index("queue_enter")
        assert kinds.index("queue_enter") < kinds.index("dispatch")
        assert kinds.index("dispatch") < kinds.index("complete")
        assert record.to_dict()["baggage"]["workload"] == "Robert"

    def test_result_id_resolves_the_same_trace(self):
        """The pool's seed is its own, so the request misses the priced
        memo and its trace runs from admission to a shard's completion."""
        store = TraceStore(id_prefix="t")
        with CrossbarPool(
            shards=1, tile_elements=TILE, trace_store=store, seed=4315
        ) as pool:
            request_id = pool.submit(workload="Robert", relax_bits=8)
            admitted = store.get(request_id)
            result = pool.result(request_id, timeout=120.0)
        assert result.id == request_id
        assert store.get(request_id) is admitted
        assert admitted.events[-1].kind == "complete"

    def test_request_ids_and_store_ids_never_collide(self, cold_memos):
        """A store-named trace (an autoscaler decision) and requests of
        a tenant named like the store's prefix share one store: every
        result's id resolves to its own request's trace, and the
        store-named trace to itself.  The repeated Sobel is answered at
        admission, so its trace ends in the hit."""
        store = TraceStore(id_prefix="t")
        decision = store.new_trace(workload="fleet", tenant="-")
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline",
            trace_store=store,
        ) as pool:
            client = Client(pool, tenant="t")
            results = [
                client.call(workload, relax_bits=8)
                for workload in ("Robert", "Sobel", "Sobel")
            ]
        records = [store.get(result.id) for result in results]
        assert [record.baggage["workload"] for record in records] == [
            "Robert", "Sobel", "Sobel",
        ]
        assert len({id(record) for record in records}) == 3
        for result, record in zip(results, records):
            assert result.id == record.trace_id
        assert [record.events[-1].kind for record in records] == [
            "complete", "complete", "hit",
        ]
        assert store.get(decision.trace_id).baggage["workload"] == "fleet"

    def test_replay_reopens_its_id_in_the_same_store(self, tmp_path):
        """A journal replay opens the acknowledged id's trace again: in a
        store that still holds the first life's trace, the replay's
        replaces it."""
        path = str(tmp_path / "requests.jsonl")
        request_id = "default-00000041"
        with RequestJournal(path) as journal:
            journal.admitted(ServeRequest(
                id=request_id, workload="Robert", relax_bits=8,
                tenant="default",
            ))
        store = TraceStore(id_prefix="t")
        store.new_trace(request_id, life=1).event("pool", "dispatch")
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline", journal=path,
            trace_store=store,
        ) as pool:
            result = pool.result(request_id, timeout=60.0)
        assert (result.status, result.id) == ("ok", request_id)
        record = store.get(request_id)
        assert "life" not in record.baggage
        assert (record.events[0].layer, record.events[0].kind) == (
            "journal", "replayed",
        )
        assert (len(store), store.evicted) == (1, 1)

    def test_chaos_rescue_activity_lands_in_traces(self):
        """Under injected faults the timelines show the rescue ladder:
        supervisor retries (or campaign degradations) as events."""
        store = TraceStore(id_prefix="t")
        policy = ChaosPolicy(transient_rate=0.3, seed=11)
        with CrossbarPool(
            shards=1, tile_elements=TILE, chaos_policy=policy,
            trace_store=store,
        ) as pool:
            ids = [
                pool.submit(workload="Robert", relax_bits=m, block=True)
                for m in (0, 8, 16, 24)
            ]
            results = [pool.result(i, timeout=120.0) for i in ids]
        injected = sum(s.chaos.total_injected for s in pool.shards)
        assert injected > 0, "chaos policy must fire for this regression"
        kinds = {
            event.kind
            for result in results
            for event in store.get(result.id).events
        }
        assert kinds & {"retry", "degrade_rung", "rescue", "cpu_fallback"}, (
            kinds
        )

    def test_shed_is_counted_and_keeps_resident_traces(self):
        """A submit refused because every breaker is open opens no trace:
        it cannot evict a finished request's trace from a full store, and
        the refusal is counted as an admission outcome."""
        store = TraceStore(capacity=1, id_prefix="t")
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, shard_cooldown_s=60.0,
            trace_store=store, runtime="inline",
        )
        try:
            pool.ensure_started()
            done = Client(pool, tenant="shed").call("Robert", relax_bits=8)
            sick = pool.shards[0]
            for _ in range(sick.breaker.failure_threshold):
                sick.breaker.record_failure(sick.key)
            with pytest.raises(ShardUnavailableError):
                pool.submit(workload="Robert")
            admission = registry.get("repro_serving_admission_total")
            outcomes = {
                labels["outcome"]: child.value
                for labels, child in admission.samples()
            }
        finally:
            pool.stop()
            set_default_registry(previous)
        assert outcomes == {"admitted": 1.0, "rejected_unavailable": 1.0}
        assert store.get(done.id).trace_id == done.id
        assert store.evicted == 0

    def test_reroute_off_a_sick_shard_is_traced(self):
        """A batch held by a shard whose breaker trips is handed back:
        both the pool's reroute and the scheduler's requeue appear."""
        store = TraceStore(id_prefix="t")
        pool = CrossbarPool(shards=2, tile_elements=TILE,
                            shard_cooldown_s=60.0, trace_store=store)
        ctx = store.new_trace()
        request = ServeRequest(
            id="rr-0", workload="Robert", tenant="rr", trace=ctx,
        )
        sick = pool.shards[0]
        for _ in range(sick.breaker.failure_threshold):
            sick.breaker.record_failure(sick.key)
        pool._run_batch(sick, [request])
        kinds = [e.kind for e in store.get(ctx.trace_id).events]
        assert kinds == ["reroute", "reroute_requeue"]
        assert request.reroutes == 1

    def test_expired_request_trace_records_the_expiry(self):
        import time as time_module

        store = TraceStore(id_prefix="t")
        pool = CrossbarPool(shards=1, tile_elements=TILE, trace_store=store)
        ctx = store.new_trace()
        request = ServeRequest(
            id="ex-0", workload="Robert", tenant="ex",
            deadline_at=time_module.monotonic() - 1.0, trace=ctx,
        )
        pool.results.register(request.id)
        pool._run_request(pool.shards[0], request, batch_size=1)
        result = pool.results.get(request.id)
        assert result.status == "expired"
        (event,) = store.get(ctx.trace_id).events
        assert (event.layer, event.kind) == ("pool", "expired")


class TestBatchLinking:
    def test_followers_link_the_leaders_trace(self):
        store = _store()
        scheduler = BatchingScheduler()
        requests = []
        for index in range(3):
            ctx = store.new_trace()
            request = ServeRequest(
                id=f"b-{index}", workload="Sobel", relax_bits=8, trace=ctx,
            )
            scheduler.submit(request, False, lambda _: None)
            requests.append(request)
        batch = scheduler.next_batch(timeout=0.0)
        assert [r.id for r in batch] == ["b-0", "b-1", "b-2"]
        leader = store.get(requests[0].trace.trace_id)
        assert [e.kind for e in leader.events] == ["queue_enter"]
        for position, request in enumerate(requests[1:], start=1):
            record = store.get(request.trace.trace_id)
            join = next(e for e in record.events if e.kind == "batch_join")
            assert join.attrs["head_trace"] == requests[0].trace.trace_id
            assert join.attrs["position"] == position
