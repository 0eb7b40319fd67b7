"""The fleet control plane: live resize, autoscaling, DSE, replay.

Four contracts pinned here:

- **Loss-free live resize** — ``add_shard``/``remove_shard`` on a running
  pool never lose an admitted request, and served pricing stays
  bit-identical to a direct in-process comparison across resizes.
- **Deterministic autoscaling** — identical verdict streams under a
  :class:`ManualClock` produce identical decision sequences, with
  hysteresis, cooldown and the min/max envelope enforced.
- **DSE** — the sweep's frontier is strictly non-dominated, per-tenant
  selection honours each latency SLO, and the fleet-config file
  round-trips (and rejects malformed documents as :class:`FleetError`).
- **Open-loop replay** — a seeded trace is reproducible, and replaying
  it against a live pool with the autoscaler resizing mid-traffic ends
  with zero lost acknowledged requests.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.core.approximation import ApproxSpec
from repro.errors import (
    AdmissionRejectedError,
    FleetError,
    ScaleRejectedError,
)
from repro.fleet import (
    Autoscaler,
    FleetPolicy,
    generate_trace,
    load_fleet_config,
    replay,
    run_dse,
    write_fleet_config,
)
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.supervisor import ManualClock
from repro.serving.frontend import _http_json, build_server
from repro.serving.pool import Client, CrossbarPool
from repro.serving.scheduler import ServingConfig
from repro.workloads import workload_by_name


def _pool(shards=1, **kwargs):
    kwargs.setdefault(
        "serving_config", ServingConfig(max_wait_s=0.0, queue_capacity=256)
    )
    kwargs.setdefault("tile_elements", 1 << 8)
    kwargs.setdefault("runtime", "thread")
    return CrossbarPool(shards=shards, **kwargs)


class TestLiveResize:
    def test_add_shard_serves_new_traffic(self):
        with _pool(shards=1) as pool:
            shard = pool.add_shard()
            assert pool.shard_count == 2
            assert shard.index == 1
            client = Client(pool, tenant="resize")
            result = client.call("Sobel", dataset_bytes=1 << 20)
            assert result.completed

    def test_remove_shard_drains_and_keeps_serving(self):
        with _pool(shards=2) as pool:
            client = Client(pool, tenant="resize")
            ids = [
                client.submit("Sobel", dataset_bytes=1 << 20)
                for _ in range(8)
            ]
            # Explicit victim: a busy shard may be removed by index — the
            # drain completes its batch in hand before returning.
            removed = pool.remove_shard(index=1, timeout=30.0)
            assert pool.shard_count == 1
            assert removed.index not in [s.index for s in pool.shards]
            for request_id in ids:
                assert client.result(request_id, timeout=60.0).completed
            # The surviving pool still serves fresh traffic.
            assert client.call("Robert", dataset_bytes=1 << 20).completed

    def test_remove_below_min_is_rejected(self):
        with _pool(shards=1) as pool:
            with pytest.raises(ScaleRejectedError) as info:
                pool.remove_shard()
            assert info.value.reason == "min_shards"
            assert pool.shard_count == 1

    def test_remove_unknown_index_is_rejected(self):
        with _pool(shards=2) as pool:
            with pytest.raises(ScaleRejectedError) as info:
                pool.remove_shard(index=99)
            assert info.value.reason == "unknown_shard"

    def test_shard_indices_never_reused(self):
        with _pool(shards=2) as pool:
            pool.remove_shard(index=1)
            shard = pool.add_shard()
            assert shard.index == 2  # not a recycled 1

    def test_resize_is_loss_free_and_bit_identical(self):
        """Requests admitted across grow+shrink all reach terminal
        results, and an ``ok`` result prices exactly as a direct
        in-process comparison of the same point."""
        with _pool(shards=1, tile_elements=1 << 9) as pool:
            client = Client(pool, tenant="resize")
            ids = []
            for round_ in range(3):
                ids.extend(
                    client.submit(
                        "Sobel", relax_bits=8, dataset_bytes=1 << 20
                    )
                    for _ in range(4)
                )
                if round_ == 0:
                    pool.add_shard()
                elif round_ == 1:
                    pool.remove_shard(index=1, timeout=30.0)
            results = [client.result(i, timeout=60.0) for i in ids]
            assert all(r.completed for r in results)
            direct = ComparisonHarness(tile_elements=1 << 9).compare(
                workload_by_name("Sobel"), 1 << 20, ApproxSpec.last_stage(8)
            )
            served = [r for r in results if r.status == "ok"]
            assert served, "at least one clean result expected"
            for result in served:
                assert result.point.speedup == pytest.approx(
                    direct.speedup, rel=1e-12
                )

    def test_subprocess_pool_resizes_live(self):
        """Grow a running subprocess pool, serve on the new shard, then
        shrink it with requests queued: nothing is lost and the removed
        shard's worker process has exited.  The pool's seed is its own,
        so no request is a priced-memo hit answered at admission.

        Each round's submits carry distinct batch keys, so no driver can
        take a round as one batch, and shard 0 holds its batch until the
        new shard has served one: both shards serve in the first round."""
        with _pool(shards=1, runtime="subprocess", seed=4311) as pool:
            client = Client(pool, tenant="resize")
            new = pool.add_shard()
            run_batch = pool._run_batch
            new_served = threading.Event()

            def gated(shard, batch, execute=None):
                if shard.index == 0:
                    new_served.wait(60.0)
                try:
                    return run_batch(shard, batch, execute=execute)
                finally:
                    if shard.index == new.index:
                        new_served.set()

            pool._run_batch = gated
            served_on = set()
            for _ in range(40):
                ids = [
                    client.submit(
                        "Sobel", relax_bits=4 * i, dataset_bytes=1 << 20
                    )
                    for i in range(4)
                ]
                results = [client.result(i, timeout=120.0) for i in ids]
                assert all(r.completed for r in results)
                served_on.update(r.shard for r in results)
                if served_on == {0, new.index}:
                    break
            pool._run_batch = run_batch
            assert served_on == {0, new.index}
            pid = pool.runtime.stats()["shards"][str(new.index)]["pid"]
            ids = [
                client.submit("Sobel", dataset_bytes=1 << 20)
                for _ in range(8)
            ]
            pool.remove_shard(index=new.index, timeout=60.0)
            assert pool.shard_count == 1
            assert all(
                client.result(i, timeout=120.0).completed for i in ids
            )
            assert str(new.index) not in pool.runtime.stats()["shards"]
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # exited and reaped
            assert pool.scheduler.stats()["workers"] == 1

    @pytest.mark.parametrize("runtime", ["thread", "subprocess"])
    def test_timed_out_shrink_releases_the_worker_slot(self, runtime):
        """A shrink whose victim outlives the drain deadline reports it,
        but the pool's worker count still drops with the shard count:
        deadline admission divides the backlog by that count.  Each arm's
        seed is its own, so the held request misses the priced memo."""
        seed = {"thread": 4312, "subprocess": 4313}[runtime]
        with _pool(shards=2, runtime=runtime, seed=seed) as pool:
            run_batch = pool._run_batch
            holding, release = threading.Event(), threading.Event()
            held_on = []

            def hold(shard, batch, execute=None):
                if held_on:
                    return run_batch(shard, batch, execute=execute)
                held_on.append(shard.index)

                def held(shard, request):
                    holding.set()
                    release.wait(60.0)
                    return (execute or pool._execute_local)(shard, request)

                return run_batch(shard, batch, execute=held)

            pool._run_batch = hold
            client = Client(pool, tenant="resize")
            request_id = client.submit("Sobel", dataset_bytes=1 << 20)
            try:
                assert holding.wait(60.0)
                with pytest.raises(FleetError):
                    pool.remove_shard(index=held_on[0], timeout=0.05)
                assert pool.shard_count == 1
            finally:
                release.set()
            assert client.result(request_id, timeout=120.0).completed
            assert pool.scheduler.stats()["workers"] == 1
            assert client.call("Robert", dataset_bytes=1 << 20).completed

    def test_shed_tenant_is_refused_before_acknowledgement(self):
        with _pool(shards=1) as pool:
            pool.shed_tenants.add("bulk")
            client = Client(pool, tenant="bulk")
            with pytest.raises(AdmissionRejectedError):
                client.submit("Sobel", dataset_bytes=1 << 20)
            # Other tenants are untouched.
            other = Client(pool, tenant="interactive")
            assert other.call("Sobel", dataset_bytes=1 << 20).completed
            pool.shed_tenants.clear()
            assert client.call("Sobel", dataset_bytes=1 << 20).completed

    def test_fleet_status_reflects_the_live_pool(self):
        with _pool(shards=2) as pool:
            pool.shed_tenants.add("bulk")
            status = pool.fleet_status()
            assert status["shards"] == 2
            assert status["shard_indices"] == [0, 1]
            assert set(status["in_flight"]) == {"shard0", "shard1"}
            assert status["shed_tenants"] == ["bulk"]
            assert status["autoscaler"] is None


def _manual_autoscaler(policy=None, shards=1, **pool_kwargs):
    clock = ManualClock()
    pool = _pool(shards=shards, clock=clock, **pool_kwargs)
    autoscaler = Autoscaler(
        pool,
        policy=policy
        or FleetPolicy(
            min_shards=1, max_shards=3, grow_after=2, shrink_after=2,
            cooldown_s=5.0, headroom_burn=1e9,
        ),
    )
    return pool, autoscaler, clock


class TestAutoscaler:
    def test_grow_needs_the_full_burn_streak(self):
        pool, autoscaler, _ = _manual_autoscaler()
        assert autoscaler.step(verdict="slow_burn")["action"] == "hold"
        decision = autoscaler.step(verdict="slow_burn")
        assert decision["action"] == "grow"
        assert pool.shard_count == 2

    def test_interrupted_streak_resets_hysteresis(self):
        pool, autoscaler, _ = _manual_autoscaler()
        autoscaler.step(verdict="slow_burn")
        autoscaler.step(verdict="ok")  # streak broken
        assert autoscaler.step(verdict="slow_burn")["action"] == "hold"
        assert pool.shard_count == 1

    def test_cooldown_refuses_back_to_back_scales(self):
        pool, autoscaler, clock = _manual_autoscaler()
        autoscaler.step(verdict="slow_burn")
        autoscaler.step(verdict="slow_burn")  # grows at t=0
        autoscaler.step(verdict="slow_burn")
        decision = autoscaler.step(verdict="slow_burn")
        assert decision["reason"] == "cooldown"
        assert pool.shard_count == 2
        clock.advance(autoscaler.policy.cooldown_s + 0.1)
        decision = autoscaler.step(verdict="slow_burn")
        assert decision["action"] == "grow"
        assert pool.shard_count == 3

    def test_grow_is_bounded_by_max_shards(self):
        policy = FleetPolicy(
            min_shards=1, max_shards=2, grow_after=1, shrink_after=1,
            cooldown_s=0.0, headroom_burn=1e9,
        )
        pool, autoscaler, _ = _manual_autoscaler(policy=policy)
        autoscaler.step(verdict="slow_burn")
        decision = autoscaler.step(verdict="slow_burn")
        assert decision["action"] == "hold"
        assert decision["reason"] == "at_max_shards"
        assert pool.shard_count == 2

    def test_shrink_after_headroom_bounded_by_min(self):
        policy = FleetPolicy(
            min_shards=1, max_shards=3, grow_after=1, shrink_after=2,
            cooldown_s=0.0, headroom_burn=1e9,
        )
        pool, autoscaler, _ = _manual_autoscaler(policy=policy, shards=2)
        autoscaler.step(verdict="ok")
        decision = autoscaler.step(verdict="ok")
        assert decision["action"] == "shrink"
        assert pool.shard_count == 1
        autoscaler.step(verdict="ok")
        decision = autoscaler.step(verdict="ok")
        assert decision["reason"] == "at_min_shards"
        assert pool.shard_count == 1

    def test_fast_burn_sheds_lowest_priority_then_restores(self):
        pool, autoscaler, _ = _manual_autoscaler()
        autoscaler.tenant_priorities = {"interactive": 0, "bulk": 3}
        decision = autoscaler.step(verdict="fast_burn")
        assert decision["action"] == "shed"
        assert decision["tenant"] == "bulk"
        assert pool.shed_tenants == {"bulk"}
        decision = autoscaler.step(verdict="ok")
        assert decision["action"] == "restore"
        assert pool.shed_tenants == set()

    def test_identical_verdict_streams_decide_identically(self):
        verdicts = [
            "slow_burn", "slow_burn", "ok", "ok", "fast_burn", "ok",
            "ok", "ok", "slow_burn", "slow_burn", "ok", "ok", "ok",
        ]

        def run():
            pool, autoscaler, clock = _manual_autoscaler()
            autoscaler.tenant_priorities = {"a": 0, "b": 2}
            decisions = []
            with pool:
                for verdict in verdicts:
                    decisions.append(autoscaler.step(verdict=verdict))
                    clock.advance(2.0)
                    pool.wait_drained(timeout=5.0)
            return [
                (d["action"], d["reason"], d["shards_after"])
                for d in decisions
            ]

        assert run() == run()

    def test_decisions_surface_on_fleet_status_and_traces(self):
        pool, autoscaler, clock = _manual_autoscaler()
        with pool, build_server(pool) as server:
            code, fleet = _http_json(f"{server.url}/fleet")
            assert code == 200 and fleet["shards"] == 1
            autoscaler.step(verdict="slow_burn")
            autoscaler.step(verdict="slow_burn")
            status = pool.fleet_status()["autoscaler"]
            assert status["scale_ups"] == 1
            assert [d["action"] for d in status["recent_decisions"]] == [
                "hold", "grow",
            ]
            code, fleet = _http_json(f"{server.url}/fleet")
            assert code == 200 and fleet["shards"] == 2
            assert fleet["autoscaler"]["scale_ups"] == 1
            # A request round-trips over HTTP through the grown pool.
            code, reply = _http_json(
                f"{server.url}/submit", {"workload": "Sobel", "relax_bits": 8}
            )
            assert code == 202
            result = pool.result(reply["id"], timeout=60.0)
            assert result.status == "ok"
            # Queue wait reads the pool's clock, which has not moved.
            assert result.queue_wait_s == 0.0
            pool.wait_drained(timeout=10.0)
            clock.advance(autoscaler.policy.cooldown_s + 0.1)
            autoscaler.step(verdict="ok")
            assert autoscaler.step(verdict="ok")["action"] == "shrink"
            code, fleet = _http_json(f"{server.url}/fleet")
            assert code == 200 and fleet["shards"] == 1
            assert fleet["autoscaler"]["scale_downs"] == 1
            actions = [
                d["action"] for d in fleet["autoscaler"]["recent_decisions"]
            ]
            assert "grow" in actions and "shrink" in actions
        # Non-hold decisions leave a fleet trace event.
        events = [
            event
            for record in pool.traces._records.values()
            for event in record.events
            if event.layer == "fleet"
        ]
        assert any(event.kind == "grow" for event in events)


class TestDSE:
    @pytest.fixture(scope="class")
    def dse(self):
        return run_dse(
            block_rows=(256, 1024),
            interconnect_scales=(1.0, 4.0),
            shard_counts=(1, 2, 4),
            batch_sizes=(1, 8),
            tenants={
                "interactive": {"priority": 0, "latency_slo_s": 0.1},
                "bulk": {"priority": 2, "latency_slo_s": 10.0},
            },
            requests_per_point=1,
            tile_elements=1 << 8,
        )

    def test_frontier_has_enough_non_dominated_points(self, dse):
        assert len(dse.frontier) >= 3
        assert len(dse.evaluations) == 24

    def test_frontier_is_strictly_non_dominated(self, dse):
        for a in dse.frontier:
            for b in dse.frontier:
                if a is b:
                    continue
                dominates = (
                    a["cost_w"] <= b["cost_w"]
                    and a["latency_s"] <= b["latency_s"]
                    and (
                        a["cost_w"] < b["cost_w"]
                        or a["latency_s"] < b["latency_s"]
                    )
                )
                assert not dominates, (a["key"], b["key"])

    def test_selection_honours_each_tenant_slo(self, dse):
        for name, sel in dse.selection.items():
            if sel["meets_slo"]:
                assert sel["latency_s"] <= sel["latency_slo_s"]
                # Cheapest eligible frontier point: nothing eligible
                # is cheaper.
                cheaper = [
                    ev
                    for ev in dse.frontier
                    if ev["latency_s"] <= sel["latency_slo_s"]
                    and ev["cost_w"] < sel["cost_w"]
                ]
                assert not cheaper, name

    def test_dse_is_deterministic(self, dse):
        again = run_dse(
            block_rows=(256, 1024),
            interconnect_scales=(1.0, 4.0),
            shard_counts=(1, 2, 4),
            batch_sizes=(1, 8),
            tenants={
                "interactive": {"priority": 0, "latency_slo_s": 0.1},
                "bulk": {"priority": 2, "latency_slo_s": 10.0},
            },
            requests_per_point=1,
            tile_elements=1 << 8,
        )
        assert [ev["key"] for ev in again.frontier] == [
            ev["key"] for ev in dse.frontier
        ]
        assert again.selection == dse.selection

    def test_config_round_trip(self, dse, tmp_path):
        path = str(tmp_path / "fleet.json")
        written = write_fleet_config(
            path, dse, policy={"max_shards": 4, "cooldown_s": 2.0}
        )
        loaded = load_fleet_config(path)
        assert loaded == json.loads(json.dumps(written))
        # The pool point is the highest-priority tenant's pick.
        assert (
            loaded["pool"]
            == dse.selection["interactive"]["design_point"]
        )
        assert loaded["autoscaler"] == {"max_shards": 4, "cooldown_s": 2.0}
        assert set(loaded["tenants"]) == {"interactive", "bulk"}

    @pytest.mark.parametrize(
        "document",
        [
            "not json at all {",
            json.dumps([1, 2]),
            json.dumps({"version": 99, "pool": {}}),
            json.dumps({"version": 1, "pool": {"block_rows": 256}}),
            json.dumps(
                {
                    "version": 1,
                    "pool": {
                        "block_rows": 256, "interconnect_scale": 1.0,
                        "shard_count": 0, "max_batch_size": 1,
                    },
                }
            ),
            json.dumps(
                {
                    "version": 1,
                    "pool": {
                        "block_rows": 256, "interconnect_scale": 1.0,
                        "shard_count": 1, "max_batch_size": 1,
                    },
                    "tenants": {"x": {}},
                }
            ),
        ],
    )
    def test_malformed_configs_raise_fleet_error(self, tmp_path, document):
        path = tmp_path / "bad.json"
        path.write_text(document)
        with pytest.raises(FleetError):
            load_fleet_config(str(path))

    def test_missing_config_raises_fleet_error(self, tmp_path):
        with pytest.raises(FleetError):
            load_fleet_config(str(tmp_path / "absent.json"))


class TestReplay:
    def test_trace_is_deterministic_and_bursty(self):
        kwargs = dict(
            rate_rps=300.0, duration_s=3.0, seed=11,
            tenants={"a": 3, "b": 1}, workloads=("Sobel", "Robert"),
        )
        first = generate_trace(**kwargs)
        second = generate_trace(**kwargs)
        assert first == second
        assert len(first) > 100
        assert any(e.burst for e in first)
        assert any(not e.burst for e in first)
        assert {e.tenant for e in first} == {"a", "b"}
        assert all(
            earlier.at_s <= later.at_s
            for earlier, later in zip(first, first[1:])
        )

    def test_trace_validates_inputs(self):
        with pytest.raises(FleetError):
            generate_trace(rate_rps=0.0)
        with pytest.raises(FleetError):
            generate_trace(burst_multiplier=0.5)

    def test_replay_loses_nothing_while_resizing(self):
        pool = _pool(shards=1)
        policy = FleetPolicy(
            min_shards=1, max_shards=3, grow_after=2, shrink_after=2,
            cooldown_s=0.0, headroom_burn=1e9,
        )
        autoscaler = Autoscaler(pool, policy=policy)
        trace = generate_trace(
            rate_rps=200.0, duration_s=2.0, seed=5,
            dataset_bytes=1 << 20,
        )
        with pool:
            report = replay(
                pool, trace, autoscaler=autoscaler, decide_every=40,
                phase_verdicts=True, headroom_run_s=2.0,
            )
        assert report["lost"] == 0
        assert report["acknowledged"] + report["rejected"] == len(trace)
        assert report["scale_ups"] >= 1
        assert sum(report["statuses"].values()) == report["acknowledged"]
        assert report["final_shards"] == pool.shard_count

    def test_replay_surfaces_results_via_callback(self):
        pool = _pool(shards=1)
        trace = generate_trace(
            rate_rps=100.0, duration_s=1.0, seed=3, dataset_bytes=1 << 20
        )
        seen = {}
        with pool:
            report = replay(
                pool, trace, on_result=lambda i, r: seen.update({i: r})
            )
        assert len(seen) == report["acknowledged"]
        assert all(isinstance(i, str) for i in seen)
