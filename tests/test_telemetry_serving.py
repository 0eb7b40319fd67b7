"""End-to-end telemetry: the HTTP surface and the slope-driven fleet.

A real server answers ``GET /query`` with retained p99 history and
``GET /alerts`` with a rule fired by injected slow traffic; ``/stats``
carries per-tenant request rates once a pipeline is attached.  A stub
fleet on a :class:`ManualClock` then proves the autoscaler grows on a
sustained positive p99 slope while the burn-rate verdict still says
``ok`` — and that the decision stream is replay-identical.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.errors import ScaleRejectedError
from repro.fleet import Autoscaler, FleetPolicy
from repro.observability.sketch import LatencyAnalytics
from repro.observability.timeseries import (
    QUANTILE_SERIES,
    AlertRule,
    SlopeVerdictSource,
    TelemetryPipeline,
)
from repro.runtime.supervisor import ManualClock
from repro.serving import Client, CrossbarPool
from repro.serving.frontend import build_server

TILE = 1 << 9

P99_SELECTOR = f'{QUANTILE_SERIES}{{layer="e2e",quantile="p99"}}'


def fetch(url, payload=None):
    """One urllib round trip -> (status, decoded body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def query_url(base, **params):
    return f"{base}/query?{urllib.parse.urlencode(params)}"


@pytest.fixture(scope="module")
def telemetry_server():
    with CrossbarPool(shards=2, tile_elements=TILE) as pool:
        pipeline = TelemetryPipeline.for_pool(
            pool, interval_s=0.05, sample_process=False
        )
        target = pool.slo.policy.latency_target_s
        pipeline.add_rule(
            AlertRule(
                "e2e_p99_above_target",
                f"value({P99_SELECTOR})",
                threshold=target,
                for_s=0.0,
                severity="page",
            )
        )
        with build_server(pool) as server:
            yield pool, pipeline, server


class TestTelemetryEndpoints:
    def test_query_serves_retained_p99_history(self, telemetry_server):
        pool, pipeline, server = telemetry_server
        for _ in range(8):
            pool.latency.observe("e2e", 0.25)
            pipeline.tick()
        status, body = fetch(
            query_url(server.url, series=P99_SELECTOR, window=300)
        )
        assert status == 200
        assert body["series"], body
        entry = body["series"][0]
        assert entry["key"] == P99_SELECTOR
        assert len(entry["points"]) >= 8
        assert all(v > 0 for _t, v, _w in entry["points"])

    def test_query_derives_a_scalar(self, telemetry_server):
        pool, pipeline, server = telemetry_server
        pool.latency.observe("e2e", 0.25)
        pipeline.tick()
        status, body = fetch(
            query_url(
                server.url, series=P99_SELECTOR, window=300, fn="value"
            )
        )
        assert status == 200
        derived = body["series"][0]["derived"]
        assert derived["fn"] == "value"
        assert derived["value"] > 0
        # A huge window is still a positive window: the exponent form
        # reaches the derive function, not an expression parser.
        status, body = fetch(
            query_url(server.url, series=P99_SELECTOR, window=1e20, fn="slope")
        )
        assert status == 200, body
        assert body["window_s"] == 1e20
        assert body["series"][0]["derived"]["fn"] == "slope"

    def test_injected_slow_traffic_fires_the_alert(self, telemetry_server):
        pool, pipeline, server = telemetry_server
        target = pool.slo.policy.latency_target_s
        for _ in range(64):
            pool.latency.observe("e2e", 2.0 * target)
        pipeline.tick()
        status, body = fetch(f"{server.url}/alerts")
        assert status == 200
        assert "e2e_p99_above_target" in body["firing"]
        rule = next(
            r for r in body["rules"] if r["name"] == "e2e_p99_above_target"
        )
        assert rule["state"] == "firing"
        assert rule["value"] > target

    def test_stats_reports_per_tenant_rates(self, telemetry_server):
        pool, pipeline, server = telemetry_server
        status, reply = fetch(
            f"{server.url}/submit",
            payload={"workload": "Sobel", "relax_bits": 8, "tenant": "acme"},
        )
        assert status == 202
        for _ in range(600):
            status, _ = fetch(f"{server.url}/result/{reply['id']}")
            if status == 200:
                break
        assert status == 200
        pipeline.tick()
        pipeline.tick()
        status, stats = fetch(f"{server.url}/stats")
        assert status == 200
        assert stats["telemetry"]["ticks"] == pipeline.ticks
        acme = stats["tenants"]["acme"]
        assert acme["total"] >= 1
        assert "ok" in acme["by_status"]
        assert "rate_per_s" in acme
        assert acme["rate_per_s"] is None or acme["rate_per_s"] >= 0

        # Tenant names that cannot sit inside a selector string: the
        # rates read each (tenant, status) series by its exact key.
        odd = ("a,b", "x}y", 'q"t')
        for tenant in odd:
            Client(pool, tenant=tenant).call("Sobel", relax_bits=8)
        for _ in range(600):
            status, stats = fetch(f"{server.url}/stats")
            if status != 200 or all(t in stats["tenants"] for t in odd):
                break
        pipeline.tick()
        pipeline.tick()
        status, stats = fetch(f"{server.url}/stats")
        assert status == 200, stats
        for tenant in odd:
            assert stats["tenants"][tenant]["total"] >= 1
            assert stats["tenants"][tenant]["rate_per_s"] >= 0

    def test_query_validation_errors_are_400(self, telemetry_server):
        _, _, server = telemetry_server
        status, body = fetch(f"{server.url}/query")
        assert status == 400 and "series" in body["error"]
        for params in (
            {"series": "bad{selector"},
            {"series": "ok_series", "window": "soon"},
            {"series": "ok_series", "window": "-5"},
            {"series": "ok_series", "window": "nan"},
            {"series": "ok_series", "window": "inf"},
            {"series": "ok_series", "window": "nan", "fn": "slope"},
            {"series": "ok_series", "window": "inf", "fn": "rate"},
            {"series": "ok_series", "fn": "frobnicate"},
            {"series": "ok_series", "fn": "mean"},
        ):
            status, body = fetch(query_url(server.url, **params))
            assert status == 400, (params, body)
            assert "error" in body

    def test_endpoints_503_without_telemetry(self):
        with CrossbarPool(shards=1, tile_elements=TILE) as pool:
            with build_server(pool) as server:
                status, body = fetch(
                    query_url(server.url, series="anything")
                )
                assert status == 503
                assert "telemetry" in body["error"]
                status, body = fetch(f"{server.url}/alerts")
                assert status == 503
                status, stats = fetch(f"{server.url}/stats")
                assert status == 200
                assert stats["telemetry"] is None


def test_top_once_smoke():
    """``repro top --once`` renders the dashboard and exits 0 (the CI
    smoke): the demo fleet's injected slow traffic must fire the page."""
    from repro.cli import main

    assert main(["top", "--once"]) == 0


# -- the slope-driven fleet on a manual clock ---------------------------------


class _StubShard:
    def __init__(self, index: int) -> None:
        self.index = index
        self.in_flight = 0


class _StubTrace:
    def event(self, *args, **kwargs):
        pass


class _StubTraces:
    def new_trace(self, **baggage):
        return _StubTrace()


class _StubConfig:
    default_priority = 1


class _StubScheduler:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.config = _StubConfig()

    def stats(self):
        return {"tenants": {}}


class _StubSLO:
    """Always ``ok``: the burn budget never trips in this test — only
    the slope escalation can make the autoscaler grow."""

    def evaluate(self):
        return {"verdict": "ok", "short_burn": 0.0, "long_burn": 1e9}


class _StubPool:
    def __init__(self, shards: int, clock) -> None:
        self.shards = [_StubShard(i) for i in range(shards)]
        self._next_index = shards
        self.shed_tenants: set[str] = set()
        self.autoscaler = None
        self.scheduler = _StubScheduler(clock)
        self.slo = _StubSLO()
        self.traces = _StubTraces()

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def add_shard(self):
        shard = _StubShard(self._next_index)
        self._next_index += 1
        self.shards.append(shard)
        return shard

    def remove_shard(self, index=None, timeout=30.0):
        if len(self.shards) <= 1:
            raise ScaleRejectedError(
                "last shard", direction="shrink", reason="min_shards"
            )
        victim = next(s for s in self.shards if s.index == index)
        self.shards.remove(victim)
        return victim


def _run_slope_fleet(latencies):
    """Drive one stub fleet through a latency trace; returns the
    decision stream as comparable tuples."""
    clock = ManualClock()
    pool = _StubPool(shards=1, clock=clock)
    analytics = LatencyAnalytics()
    pipeline = TelemetryPipeline(
        analytics=analytics, clock=clock, sample_process=False
    )
    source = SlopeVerdictSource(
        pipeline, window_s=60.0, slope_threshold=0.001, sustain=2
    )
    autoscaler = Autoscaler(
        pool,
        policy=FleetPolicy(grow_after=2, cooldown_s=0.0, max_shards=4),
        verdict_source=source,
    )
    stream = []
    for latency in latencies:
        analytics.observe("e2e", latency)
        pipeline.tick()
        decision = autoscaler.step()
        stream.append(
            (
                decision["action"],
                decision["verdict"],
                decision["signal"],
                decision["shards_after"],
            )
        )
        clock.advance(1.0)
    return stream


class TestSlopeDrivenFleet:
    RISING = [0.1 + 0.05 * i for i in range(12)]
    FLAT = [0.1] * 12

    def test_grows_on_sustained_slope_while_slo_is_ok(self):
        stream = _run_slope_fleet(self.RISING)
        grows = [step for step in stream if step[0] == "grow"]
        assert grows, stream
        action, verdict, signal, _shards = grows[0]
        # The budget never burned (_StubSLO always says ok): the grow
        # came from the escalated slope verdict, and the decision
        # records which signal produced it.
        assert verdict == "slow_burn"
        assert signal.startswith("p99_slope_s_per_s=")
        assert stream[-1][3] > 1

    def test_flat_latency_never_escalates(self):
        stream = _run_slope_fleet(self.FLAT)
        assert all(step[0] == "hold" for step in stream)
        assert all(step[1] == "ok" for step in stream)
        assert all(step[2] == "slo" for step in stream)

    def test_replaying_the_trace_is_decision_identical(self):
        assert _run_slope_fleet(self.RISING) == _run_slope_fleet(
            self.RISING
        )
        assert _run_slope_fleet(self.FLAT) == _run_slope_fleet(self.FLAT)
