"""CrossbarPool end-to-end: sharded execution with the rescue ladder.

Small tiles keep pricing fast; the contracts pinned here are the serving
layer's headline guarantees — every admitted request terminal exactly
once (clean, under chaos, and under a breaker-tripped shard), results
bit-identical to direct in-process pricing, and a campaign grid priced
through the pool equal to the sequential sweep.
"""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.errors import (
    AdmissionRejectedError,
    ServingError,
    ShardUnavailableError,
)
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore
from repro.runtime.campaign import run_campaign
from repro.runtime.chaos import ChaosInjector, ChaosPolicy
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.supervisor import ManualClock
from repro.serving import Client, CrossbarPool, ServingConfig
from repro.serving.scheduler import ServeResult
from repro.units import GIB, MIB
from repro.workloads import workload_by_name

TILE = 1 << 9
TERMINAL = ("ok", "retried", "degraded", "fallback", "failed")


#: The shared pool's seed: no other test interns it, so the round trips
#: below miss the priced memo and reach a shard.
POOL_SEED = 4314


@pytest.fixture(scope="module")
def pool():
    with CrossbarPool(shards=2, tile_elements=TILE, seed=POOL_SEED) as running:
        yield running


class TestRoundTrip:
    def test_result_matches_direct_pricing(self, pool):
        result = Client(pool, tenant="rt").call("Robert", relax_bits=8)
        assert result.status == "ok"
        direct = ComparisonHarness(
            tile_elements=TILE, rng_seed=POOL_SEED
        ).compare(
            workload_by_name("Robert"), 64 * MIB,
            __import__("repro.core.approximation", fromlist=["ApproxSpec"])
            .ApproxSpec.last_stage(8),
        )
        assert result.point.speedup == pytest.approx(
            direct.speedup, rel=1e-12
        )
        assert result.shard in (0, 1)
        assert result.batch_size >= 1

    def test_same_key_requests_coalesce(self, pool):
        client = Client(pool, tenant="batch")
        ids = [client.submit("Robert", relax_bits=16) for _ in range(4)]
        results = [client.result(i) for i in ids]
        assert all(r.status == "ok" for r in results)
        # At least one dispatch saw more than one same-key request; exact
        # split depends on worker timing.
        assert max(r.batch_size for r in results) >= 2

    def test_bad_submissions_rejected_at_submit(self, pool):
        for bad in (
            {"workload": "NotAWorkload"},
            {"workload": "Sobel", "relax_bits": -1},
            {"workload": "Sobel", "dataset_bytes": 0},
            {"workload": "Sobel", "deadline_s": 0.0},
        ):
            with pytest.raises(ServingError):
                pool.submit(**bad)

    def test_expired_request_completes_as_expired(self):
        """A request whose deadline passed while queued ends ``expired``
        — terminal, never silently dropped (driven directly through the
        worker path for determinism)."""
        from repro.serving.scheduler import ServeRequest

        quiet = CrossbarPool(shards=1, tile_elements=TILE)  # not started
        request = ServeRequest(
            id="dl-0", workload="Sobel", tenant="dl",
            deadline_at=time.monotonic() - 1.0,
        )
        quiet.results.register(request.id)
        quiet._run_request(quiet.shards[0], request, batch_size=1)
        result = quiet.results.get(request.id)
        assert result.status == "expired"
        assert result.error == "deadline passed while queued"

    def test_stats_and_healthz_shape(self, pool):
        stats = pool.stats()
        assert set(stats) == {
            "runtime", "scheduler", "results", "shards", "latency", "slo",
            "traces", "journal", "tenants", "telemetry",
        }
        assert stats["journal"] is None  # this pool runs unjournaled
        assert stats["telemetry"] is None  # no pipeline attached
        assert len(stats["shards"]) == 2
        assert stats["runtime"]["name"] == "thread"
        assert set(stats["traces"]) == {"resident", "evicted", "spilled"}
        assert stats["slo"]["verdict"] in ("ok", "slow_burn", "fast_burn")
        health = pool.healthz()
        assert health["shards"] == 2
        assert health["runtime"] == "thread"
        assert health["draining"] is False
        assert health["status"] in ("ok", "degraded", "unhealthy", "fast_burn")
        assert set(health["slo"]) == {"verdict", "short_burn", "long_burn"}

    def test_double_start_raises(self, pool):
        with pytest.raises(ServingError):
            pool.start()


class TestChaosResilience:
    def test_zero_lost_zero_duplicated_under_chaos(self):
        """10% injected faults: every request terminal, exactly once."""
        policy = ChaosPolicy(transient_rate=0.08, corrupt_rate=0.02, seed=7)
        with CrossbarPool(
            shards=2, tile_elements=TILE, chaos_policy=policy
        ) as pool:
            ids = [
                pool.submit(
                    workload=name, relax_bits=level,
                    tenant=tenant, block=True,
                )
                for tenant, name in (("a", "Robert"), ("b", "Sobel"))
                for level in (0, 8, 16, 24, 32)
            ]
            assert len(set(ids)) == len(ids)
            results = [pool.result(i, timeout=120.0) for i in ids]
        statuses = [r.status for r in results]
        assert all(s in TERMINAL for s in statuses), statuses
        assert len({r.id for r in results}) == len(ids)
        total_injected = sum(
            shard.chaos.total_injected for shard in pool.shards
        )
        total_attempts = sum(r.attempts for r in results)
        if total_injected:
            # Rescue work actually happened: more attempts than requests.
            assert total_attempts > len(ids)

    def test_tripped_shard_sheds_load_to_healthy_one(self):
        """Force shard 0's breaker open: requests still complete, served
        by shard 1, and healthz reports degraded.  The pool's seed is its
        own, so its requests miss the priced memo and reach a shard."""
        with CrossbarPool(shards=2, tile_elements=TILE, seed=4301,
                          shard_cooldown_s=60.0) as pool:
            sick = pool.shards[0]
            for _ in range(sick.breaker.failure_threshold):
                sick.breaker.record_failure(sick.key)
            assert not sick.healthy
            assert pool.healthz()["status"] == "degraded"
            client = Client(pool, tenant="shed")
            results = [
                client.call("Robert", relax_bits=m) for m in (0, 8)
            ]
            assert all(r.status == "ok" for r in results)
            assert all(r.shard == 1 for r in results)

    def test_inline_health_gauge_recovers_after_probe(self):
        """A tripped shard's health gauge returns to 1 once its breaker
        cools down and the probe request succeeds — inline too, where no
        shard thread re-sets the gauge every poll.  The pool's seed is
        its own, so its first request misses the priced memo and reaches
        the broken ``compare``."""
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            with CrossbarPool(shards=1, tile_elements=TILE, runtime="inline",
                              seed=4099, shard_failure_threshold=1,
                              shard_cooldown_s=0.3) as pool:
                shard = pool.shards[0]
                gauge = registry.get("repro_serving_shard_healthy")
                client = Client(pool, tenant="probe")

                def broken(*args, **kwargs):
                    raise RuntimeError("engine down")

                shard.harness.compare = broken
                assert client.call("Robert").status == "error"
                assert not shard.healthy
                assert gauge.labels(shard=0).value == 0.0
                del shard.harness.compare
                time.sleep(0.35)
                assert client.call("Robert").status == "ok"
                assert shard.healthy
                assert gauge.labels(shard=0).value == 1.0
        finally:
            set_default_registry(previous)

    def test_drain_stop_completes_queued_requests(self):
        pool = CrossbarPool(shards=1, tile_elements=TILE)
        pool.ensure_started()
        ids = [
            pool.submit(workload="Robert", relax_bits=m, block=True)
            for m in (0, 8, 16)
        ]
        pool.stop(drain=True)
        for request_id in ids:
            assert pool.results.status(request_id) == "done"


class TestInjectedClock:
    def test_queue_wait_and_deadline_read_the_pool_clock(self):
        """Queue wait and expiry are measured on the clock that stamped
        the request: a frozen manual clock means zero wait, and a one-hour
        deadline cannot have passed."""
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, clock=ManualClock(),
            runtime="inline",
        )
        with pool:
            result = Client(pool, tenant="clock").call(
                "Robert", relax_bits=8, deadline_s=3600.0
            )
        assert result.status == "ok"
        assert result.queue_wait_s == 0.0

    def test_result_ttl_reads_the_pool_clock(self):
        """Results age on the pool's one clock: stepping a manual clock
        past ``result_ttl_s`` expires a finished result at once."""
        clock = ManualClock()
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, clock=clock, runtime="inline",
            result_ttl_s=5,
        )
        with pool:
            result = Client(pool, tenant="ttl").call("Robert", relax_bits=8)
            assert pool.results.lookup(result.id)[0] == "done"
            clock.advance(6.0)
            assert pool.results.lookup(result.id) == ("evicted", "ttl")

    def test_deadline_counts_from_after_a_lazy_start(self):
        """The first submit starts the pool; a slow start-up must not eat
        the request's deadline slack."""
        clock = ManualClock()
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, clock=clock, runtime="inline",
        )
        start = pool.runtime.start

        def slow_start():
            clock.advance(5.0)
            start()

        pool.runtime.start = slow_start
        try:
            request_id = pool.submit("Robert", relax_bits=8, deadline_s=2.0)
            result = pool.result(request_id, timeout=30.0)
        finally:
            pool.stop()
        assert result.status == "ok"

    def test_admission_reads_the_one_serving_config(self):
        """The pool admits against the config its scheduler runs: the
        default priority, queue bound and retry hint all come from it.
        The pool's seed is its own, so its request misses the priced memo
        and takes the queue slot."""
        config = ServingConfig(
            priorities=1, default_priority=0, queue_capacity=1,
            retry_after_s=1.5,
        )
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, serving_config=config,
            clock=ManualClock(), seed=4302,
        )
        pool._started = True  # keep admission from starting workers
        try:
            pool.submit("Robert")
            with pytest.raises(AdmissionRejectedError) as info:
                pool.submit("Robert")
            assert info.value.retry_after_s == 1.5
        finally:
            pool.stop(drain=False)


class TestTerminalAccounting:
    """Every terminal path — executed, expired, aborted — goes through
    one accounting step, and a request's queue wait is measured once.
    The pools' seed prices nothing, so every request misses the priced
    memo and queues."""

    @staticmethod
    def _queued_pool(clock):
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, clock=clock, seed=4303
        )
        pool._started = True  # queue without starting any worker
        return pool

    def test_one_requests_total_increment_per_terminal_result(self):
        clock = ManualClock()
        pool = self._queued_pool(clock)
        shard = pool.shards[0]
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            ran = pool.submit("Robert", relax_bits=8, tenant="acct")
            late = pool.submit(
                "Robert", relax_bits=16, tenant="acct", deadline_s=1.0
            )
            pool._run_batch(
                shard, pool.scheduler.next_batch(timeout=0.0),
                execute=lambda shard, request: (None, "ok", 1, None),
            )
            clock.advance(2.0)
            pool._run_batch(shard, pool.scheduler.next_batch(timeout=0.0))
            aborted = [
                pool.submit("Sobel", relax_bits=m, tenant="acct")
                for m in (0, 8, 16)
            ]
            pool.stop(drain=False)
            requests = registry.get("repro_serving_requests_total")
            counts = {
                labels["status"]: child.value
                for labels, child in requests.samples()
            }
            queue_wait = registry.get("repro_serving_queue_wait_seconds")
            ((_, waits),) = queue_wait.samples()
        finally:
            set_default_registry(previous)
        statuses = [
            pool.results.get(i).status for i in [ran, late, *aborted]
        ]
        assert statuses == ["ok", "expired", "error", "error", "error"]
        assert counts == {"ok": 1.0, "expired": 1.0, "error": 3.0}
        assert waits.count == 5
        assert pool.latency.sketch("e2e").count == 5
        assert all(
            pool.results.get(i).error == "pool stopped" for i in aborted
        )

    def test_coalesced_batch_records_one_queue_wait_per_request(self):
        """A batch of three on a clock that steps during service: each
        request's wait is taken as it starts, and the histogram, the
        sketch and every ServeResult hold that one value."""
        clock = ManualClock()
        pool = self._queued_pool(clock)

        def stepping(shard, request):
            clock.advance(0.5)
            return None, "ok", 1, None

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            ids = []
            for _ in range(3):
                ids.append(pool.submit("Robert", relax_bits=8))
                clock.advance(1.0)
            clock.advance(7.0)  # now 10 s after the first submit
            batch = pool.scheduler.next_batch(timeout=0.0)
            assert [r.id for r in batch] == ids
            pool._run_batch(pool.shards[0], batch, execute=stepping)
            ((_, histogram),) = registry.get(
                "repro_serving_queue_wait_seconds"
            ).samples()
        finally:
            set_default_registry(previous)
            pool.stop(drain=False)
        results = [pool.results.get(i) for i in ids]
        waits = [r.queue_wait_s for r in results]
        assert waits == [10.0, 9.5, 9.0]
        assert all(r.batch_size == 3 for r in results)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(sum(waits))
        sketch = pool.latency.sketch("queue_wait")
        assert (sketch.count, sketch.min, sketch.max) == (3, 9.0, 10.0)
        assert sketch.sum == pytest.approx(sum(waits))


class TestAdmissionLadder:
    """Every refusal is decided before the commit step opens a trace,
    mints an id or registers a result: a refused submit leaves nothing
    behind, not even in a full trace store.  The pools' seed prices
    nothing, so an admitted request misses the priced memo and queues."""

    @staticmethod
    def _idle_pool(**kwargs):
        pool = CrossbarPool(
            shards=2, tile_elements=TILE, shard_cooldown_s=60.0, seed=4304,
            trace_store=TraceStore(capacity=4), **kwargs,
        )
        pool._started = True  # queue without starting any worker
        return pool

    @staticmethod
    def _footprint(pool, request_id):
        return (
            len(pool.traces), pool.traces.evicted,
            pool.traces.timeline(request_id), pool.results.pending,
        )

    def test_refusals_leave_no_trace_id_or_result(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        pool = self._idle_pool(
            serving_config=ServingConfig(queue_capacity=1)
        )
        try:
            acknowledged = pool.submit("Robert")
            # One queued request at 1 s each: ~1 s of estimated delay.
            pool.scheduler.note_service_time(1.0)
            before = self._footprint(pool, acknowledged)

            def refused(error, **fields):
                with pytest.raises(error):
                    pool.submit(**{"workload": "Robert", **fields})
                assert self._footprint(pool, acknowledged) == before

            refused(AdmissionRejectedError)  # class 1 is full
            refused(AdmissionRejectedError, priority=0, deadline_s=0.5)
            pool.shed_tenants.add("noisy")
            refused(AdmissionRejectedError, tenant="noisy", priority=0)
            for shard in pool.shards:
                for _ in range(shard.breaker.failure_threshold):
                    shard.breaker.record_failure(shard.key)
            refused(ShardUnavailableError, priority=0)
            refused(ServingError, priority=9)
            for field in ("dataset_bytes", "relax_bits", "priority",
                          "deadline_s"):
                for value in (math.nan, math.inf, -math.inf):
                    refused(ServingError, **{field: value})
            refused(ServingError, workload="NotAWorkload")
            pool.begin_drain()
            refused(ShardUnavailableError, priority=0)
            outcomes = {
                labels["outcome"]: child.value
                for labels, child in registry.get(
                    "repro_serving_admission_total"
                ).samples()
            }
        finally:
            set_default_registry(previous)
            pool.stop(drain=False)
        assert before[:2] == (1, 0)
        assert before[2]["trace_id"] == acknowledged
        assert outcomes == {
            "admitted": 1.0,
            "rejected_queue_full": 1.0,
            "rejected_deadline": 1.0,
            "rejected_shed": 1.0,
            "rejected_unavailable": 1.0,
            "rejected_draining": 1.0,
        }

    def test_bad_priority_is_refused_at_the_door(self):
        pool = self._idle_pool(serving_config=ServingConfig(priorities=2))
        try:
            # A full store: the oldest trace is the next to be evicted.
            earlier = [pool.submit("Robert") for _ in range(4)][0]
            before = self._footprint(pool, earlier)
            for _ in range(3):
                with pytest.raises(ServingError, match="priority 9"):
                    pool.submit("Robert", priority=9)
            assert self._footprint(pool, earlier) == before
        finally:
            pool.stop(drain=False)

    @pytest.mark.parametrize("state", ["pending", "done", "tombstoned"])
    def test_a_hit_on_a_known_id_trips_its_publish(self, state):
        """A hit answered at admission is published in one result-store
        step that keeps the tripwire: an id the store already knows
        (pending, done or tombstoned) refuses the request."""
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline", result_capacity=1,
        )

        def result(request_id, status="failed"):
            return ServeResult(
                id=request_id, tenant="t", workload="Robert", relax_bits=8,
                dataset_bytes=1, status=status,
            )

        with pool:
            Client(pool).call("Robert", relax_bits=8)  # prices the key
            results = pool.results
            results.register("t-dup")
            if state != "pending":
                results.complete(result("t-dup"))
            if state == "tombstoned":
                results.restore(result("t-other"))
            pool.scheduler.next_id = lambda tenant: "t-dup"
            with pytest.raises(ServingError, match="already known"):
                pool.submit("Robert", relax_bits=8)
            assert results.lookup("t-dup")[0] == {
                "pending": "pending", "done": "done",
                "tombstoned": "evicted",
            }[state]
            if state == "pending":
                results.complete(result("t-dup"))  # let stop() drain

    def test_a_stopped_pool_cannot_start_again(self):
        pool = CrossbarPool(shards=1, tile_elements=TILE, runtime="inline")
        pool.start()
        pool.stop()
        with pytest.raises(ServingError, match="stopped"):
            pool.start()
        # Admission stays shut with a retryable 503, never a 400.
        with pytest.raises(ShardUnavailableError):
            pool.submit("Robert")


class TestTenantChurn:
    def test_idle_rings_forget_every_tenant(self):
        """A tenant leaves its priority ring when its queue empties, so
        8,000 one-off tenants leave nothing for dispatch to scan."""
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            with CrossbarPool(shards=1, tile_elements=TILE,
                              runtime="inline") as pool:
                for index in range(8000):
                    result = Client(pool, tenant=f"t{index}").call("Robert")
                    assert result.status == "ok"
                assert all(
                    not ring.queues for ring in pool.scheduler._classes
                )
                assert pool.scheduler.stats()["tenants"] == []
        finally:
            set_default_registry(previous)


class TestPooledCampaign:
    def test_pool_and_sequential_campaigns_agree(self):
        """The campaign grid priced request by request through the pool
        equals the sequential sweep."""
        workloads, levels = ["Robert", "Sobel"], [0, 16]
        sequential = run_campaign(workloads, levels, tile_elements=TILE)
        with CrossbarPool(shards=2, tile_elements=TILE) as pool:
            client = Client(pool, tenant="campaign")
            pooled = [
                client.call(name, relax_bits=level, dataset_bytes=GIB).point
                for name in workloads
                for level in levels
            ]
        assert len(pooled) == len(sequential.points)
        by_key = {
            (p.workload, p.relax_bits): p for p in sequential.points
        }
        for point in pooled:
            twin = by_key[(point.workload, point.relax_bits)]
            assert point.status == twin.status == "ok"
            assert point.speedup == pytest.approx(twin.speedup, rel=1e-12)


class TestConcurrencyRegression:
    def test_shared_harness_is_thread_safe(self, cold_memos):
        """One harness hammered from 8 threads on the same key: the tile
        memo must end with exactly one entry per key and every thread
        must see the one priced instance (the pre-lock code could race
        the cache dict and duplicate executor runs)."""
        from repro.core.approximation import ApproxSpec
        from repro.runtime import comparison

        harness = ComparisonHarness(tile_elements=TILE)
        workload = workload_by_name("Robert")
        spec = ApproxSpec.last_stage(8)
        results, errors = [], []
        barrier = threading.Barrier(8)

        def hammer():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(3):
                    results.append(harness.compare(workload, 64 * MIB, spec))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        assert len(results) == 24
        assert len({id(r) for r in results}) == 1
        assert list(comparison._TILE_MEMO) == [
            (harness._identity, "Robert", spec)
        ]

    def test_shared_chaos_injector_counts_exactly(self):
        """Concurrent wraps of one injector must hand out each
        (key, call-index) pair exactly once."""
        injector = ChaosInjector(ChaosPolicy(transient_rate=0.5, seed=3))
        fired, clean = [], []

        def caller():
            for index in range(50):
                try:
                    injector.wrap("shared", lambda: None)()
                    clean.append(index)
                except Exception:
                    fired.append(index)

        threads = [threading.Thread(target=caller) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert injector._calls["shared"] == 200
        assert injector.injected["transient"] == len(fired)
        assert len(fired) + len(clean) == 200

    def test_registry_children_count_exactly_under_contention(self):
        from repro.observability import MetricsRegistry

        registry = MetricsRegistry()
        counter = registry.counter("contended_total", "test")
        histogram = registry.histogram(
            "contended_seconds", "test", buckets=(0.5,)
        )

        def spin():
            for _ in range(2000):
                counter.inc()
                histogram.observe(0.1)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        start = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert time.monotonic() - start < 30.0
        assert counter.value == 8000
        assert registry.get("contended_seconds")._default_child.count == 8000
