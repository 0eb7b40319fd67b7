"""CrossbarPool end-to-end: sharded execution with the rescue ladder.

Small tiles keep pricing fast; the contracts pinned here are the serving
layer's headline guarantees — every admitted request terminal exactly
once (clean, under chaos, and under a breaker-tripped shard), results
bit-identical to direct in-process pricing, and the campaign runner
producing the same grid through the pool as sequentially.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import AdmissionRejectedError, ServingError
from repro.observability import MetricsRegistry, set_default_registry
from repro.runtime.campaign import run_campaign
from repro.runtime.chaos import ChaosInjector, ChaosPolicy
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.supervisor import ManualClock
from repro.serving import Client, CrossbarPool, ServingConfig
from repro.units import MIB
from repro.workloads import workload_by_name

TILE = 1 << 9
TERMINAL = ("ok", "retried", "degraded", "fallback", "failed")


@pytest.fixture(scope="module")
def pool():
    with CrossbarPool(shards=2, tile_elements=TILE) as running:
        yield running


class TestRoundTrip:
    def test_result_matches_direct_pricing(self, pool):
        result = Client(pool, tenant="rt").call("Robert", relax_bits=8)
        assert result.status == "ok"
        direct = ComparisonHarness(tile_elements=TILE).compare(
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
        by shard 1, and healthz reports degraded."""
        with CrossbarPool(shards=2, tile_elements=TILE,
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
        shard thread re-sets the gauge every poll."""
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            with CrossbarPool(shards=1, tile_elements=TILE, runtime="inline",
                              shard_failure_threshold=1,
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

    def test_admission_reads_the_one_serving_config(self):
        """The pool admits against the config its scheduler runs: the
        default priority, queue bound and retry hint all come from it."""
        config = ServingConfig(
            priorities=1, default_priority=0, queue_capacity=1,
            retry_after_s=1.5,
        )
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, serving_config=config,
            clock=ManualClock(),
        )
        pool._started = True  # keep admission from starting workers
        try:
            pool.submit("Robert")
            with pytest.raises(AdmissionRejectedError) as info:
                pool.submit("Robert")
            assert info.value.retry_after_s == 1.5
        finally:
            pool.stop(drain=False)


class TestPooledCampaign:
    def test_pool_and_sequential_campaigns_agree(self):
        workloads, levels = ["Robert", "Sobel"], [0, 16]
        sequential = run_campaign(workloads, levels, tile_elements=TILE)
        with CrossbarPool(shards=2, tile_elements=TILE) as pool:
            pooled = run_campaign(
                workloads, levels, tile_elements=TILE, pool=pool
            )
        assert len(pooled.points) == len(sequential.points)
        by_key = {
            (p.workload, p.relax_bits): p for p in sequential.points
        }
        for point in pooled.points:
            twin = by_key[(point.workload, point.relax_bits)]
            assert point.status == twin.status == "ok"
            assert point.speedup == pytest.approx(twin.speedup, rel=1e-12)

    def test_pool_conflicts_with_supervision_knobs(self):
        from repro.errors import ConfigurationError
        from repro.runtime.supervisor import Supervisor

        with CrossbarPool(shards=1, tile_elements=TILE) as pool:
            with pytest.raises(ConfigurationError):
                run_campaign(
                    ["Robert"], [0], tile_elements=TILE,
                    pool=pool, supervisor=Supervisor(),
                )


class TestConcurrencyRegression:
    def test_shared_harness_is_thread_safe(self):
        """One harness hammered from 8 threads on the same key: the tile
        cache must end with exactly one entry per key and every thread
        must see identical numbers (the pre-lock code could race the
        cache dict and duplicate executor runs)."""
        from repro.core.approximation import ApproxSpec

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
        assert len({r.speedup for r in results}) == 1
        assert len(harness._tile_cache) == 1

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
