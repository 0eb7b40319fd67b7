"""SLO policy and burn-rate evaluation: the serving stack's error budget.

Pins the two-window burn-rate rule on a :class:`ManualClock` — including
the exact tick where a sustained fast burn flips ``healthz`` to 503 —
the traffic floor that keeps a handful of unlucky requests from paging,
and the offline campaign-grid evaluation behind ``repro slo``.
"""

from __future__ import annotations

import pytest

from repro.errors import SLOError
from repro.observability.slo import (
    BurnRateEvaluator,
    SLOPolicy,
    evaluate_points,
)
from repro.runtime.supervisor import ManualClock
from repro.serving import CrossbarPool

TILE = 1 << 9


class TestSLOPolicy:
    def test_defaults_are_valid_and_serializable(self):
        policy = SLOPolicy()
        payload = policy.to_dict()
        assert payload["error_budget"] == 0.01
        assert payload["fast_burn"] == 14.4
        assert payload["min_events"] == 10

    @pytest.mark.parametrize("bad", [
        {"latency_target_s": 0.0},
        {"error_budget": 0.0},
        {"error_budget": 1.0},
        {"fast_burn": 2.0, "slow_burn": 3.0},
        {"slow_burn": 0.0, "fast_burn": 1.0},
        {"short_window_s": 0.0},
        {"short_window_s": 3600.0, "long_window_s": 300.0},
        {"min_events": 0},
    ])
    def test_invalid_policies_raise(self, bad):
        with pytest.raises(SLOError):
            SLOPolicy(**bad)

    def test_is_good_requires_both_ok_and_latency(self):
        policy = SLOPolicy(latency_target_s=1.0)
        assert policy.is_good(0.5, ok=True)
        assert not policy.is_good(1.5, ok=True)
        assert not policy.is_good(0.5, ok=False)


def _evaluator(**policy_kwargs):
    clock = ManualClock()
    policy = SLOPolicy(**policy_kwargs)
    return BurnRateEvaluator(policy, clock=clock), clock


class TestBurnRateEvaluator:
    def test_no_traffic_is_not_an_outage(self):
        evaluator, _ = _evaluator()
        assert evaluator.burn_rate(300.0) == 0.0
        verdict = evaluator.evaluate()
        assert verdict["verdict"] == "ok"
        assert verdict["short_events"] == 0

    def test_burn_rate_is_bad_fraction_over_budget(self):
        evaluator, _ = _evaluator(error_budget=0.1, min_events=1)
        for good in (True, True, True, False):
            evaluator.record_outcome(good)
        # 1 bad of 4 = 25% bad fraction, over a 10% budget = burn 2.5.
        assert evaluator.burn_rate(300.0) == pytest.approx(2.5)

    def test_record_applies_the_latency_gate(self):
        evaluator, _ = _evaluator(latency_target_s=1.0, min_events=1)
        assert evaluator.record(0.5, ok=True)
        assert not evaluator.record(2.0, ok=True)  # slow counts as bad
        assert not evaluator.record(0.5, ok=False)
        assert evaluator.total == 3
        assert evaluator.total_bad == 2

    def test_two_window_rule_needs_both_windows_burning(self):
        """Bad events older than the short window: the long window burns
        but the short one is clean — a recovered incident must not page."""
        evaluator, clock = _evaluator(min_events=1)
        for _ in range(20):
            evaluator.record_outcome(False)
        clock.advance(600.0)  # past the 5 m short window, inside the 1 h
        for _ in range(20):
            evaluator.record_outcome(True)
        verdict = evaluator.evaluate()
        assert verdict["long_burn"] >= verdict["policy"]["slow_burn"]
        assert verdict["short_burn"] == 0.0
        assert verdict["verdict"] == "ok"

    def test_sustained_bad_traffic_is_a_fast_burn(self):
        evaluator, _ = _evaluator(min_events=10)
        for _ in range(20):
            evaluator.record_outcome(False)
        verdict = evaluator.evaluate()
        assert verdict["verdict"] == "fast_burn"
        assert verdict["short_burn"] == pytest.approx(100.0)
        assert not evaluator.healthy()

    def test_min_events_floor_suppresses_thin_verdicts(self):
        evaluator, _ = _evaluator(min_events=10)
        for _ in range(9):
            evaluator.record_outcome(False)
        assert evaluator.evaluate()["verdict"] == "ok"
        evaluator.record_outcome(False)  # the tenth event crosses the floor
        assert evaluator.evaluate()["verdict"] == "fast_burn"

    def test_intermediate_burn_is_slow_burn(self):
        evaluator, _ = _evaluator(error_budget=0.1, min_events=1)
        for index in range(20):
            evaluator.record_outcome(index % 2 == 0)  # 50% bad, burn 5.0
        verdict = evaluator.evaluate()
        assert verdict["verdict"] == "slow_burn"
        assert evaluator.healthy()  # only fast burn fails health

    def test_events_prune_beyond_the_long_window(self):
        evaluator, clock = _evaluator(min_events=1)
        for _ in range(5):
            evaluator.record_outcome(False)
        clock.advance(3601.0)
        evaluator.record_outcome(True)
        assert len(evaluator._events) == 1
        assert evaluator.evaluate()["long_bad"] == 0
        assert evaluator.total == 6  # lifetime counters survive pruning

    def test_recovery_clears_the_verdict_as_the_window_slides(self):
        evaluator, clock = _evaluator(min_events=1)
        for _ in range(20):
            evaluator.record_outcome(False)
        assert not evaluator.healthy()
        clock.advance(301.0)
        for _ in range(20):
            evaluator.record_outcome(True)
        assert evaluator.healthy()


class TestPoolHealthFlip:
    def test_fast_burn_turns_healthz_unhealthy_and_http_503(self):
        """Drive the pool's evaluator to a deterministic fast burn and
        watch the verdict propagate: pool.healthz -> frontend 503."""
        import json
        import urllib.error
        import urllib.request

        from repro.serving.frontend import build_server

        pool = CrossbarPool(shards=1, tile_elements=TILE)
        assert pool.healthz()["status"] == "ok"
        for _ in range(20):
            pool.slo.record_outcome(False)
        health = pool.healthz()
        assert health["status"] == "fast_burn"
        assert health["slo"]["verdict"] == "fast_burn"
        assert health["healthy_shards"] == 1  # shards fine; budget is not
        with build_server(pool, port=0) as server:
            try:
                with urllib.request.urlopen(
                    f"{server.url}/healthz", timeout=10.0
                ) as response:
                    status, body = response.status, response.read()
            except urllib.error.HTTPError as exc:
                status, body = exc.code, exc.read()
            assert status == 503
            assert json.loads(body)["status"] == "fast_burn"
        pool.stop()

    def test_healthy_pool_serves_200(self):
        import urllib.request

        from repro.serving.frontend import build_server

        pool = CrossbarPool(shards=1, tile_elements=TILE)
        with build_server(pool, port=0) as server:
            with urllib.request.urlopen(
                f"{server.url}/healthz", timeout=10.0
            ) as response:
                assert response.status == 200
        pool.stop()


class TestEvaluatePoints:
    def test_judges_status_and_latency(self):
        policy = SLOPolicy(latency_target_s=1.0, error_budget=0.1,
                           min_events=1)
        points = [
            {"status": "ok", "apim_time_s": 0.5},
            {"status": "retried", "apim_time_s": 0.9},
            {"status": "degraded", "apim_time_s": 0.1},
            {"status": "ok", "apim_time_s": 2.0},      # too slow
            {"status": "failed", "apim_time_s": 0.1},  # bad status
        ]
        report = evaluate_points(points, policy)
        assert report["total"] == 5
        assert report["bad"] == 2
        assert report["by_reason"] == {"latency": 1, "status:failed": 1}
        assert report["burn_rate"] == pytest.approx((2 / 5) / 0.1)
        assert report["verdict"] == "slow_burn"

    def test_all_good_is_ok_and_all_bad_is_fast_burn(self):
        policy = SLOPolicy(latency_target_s=1.0, min_events=1)
        good = [{"status": "ok", "apim_time_s": 0.1}] * 10
        assert evaluate_points(good, policy)["verdict"] == "ok"
        bad = [{"status": "failed", "apim_time_s": 0.1}] * 10
        assert evaluate_points(bad, policy)["verdict"] == "fast_burn"

    def test_empty_grid_raises(self):
        with pytest.raises(SLOError):
            evaluate_points([])


class TestCLI:
    def test_slo_exits_zero(self, capsys):
        from repro.cli import main

        assert main([
            "slo", "--workloads", "Robert", "--levels", "0", "16",
            "--tile", "512", "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "verdict=" in out
        assert "p999" in out

    def test_trace_file_finds_a_record_by_trace_or_request_id(
        self, tmp_path, capsys, cold_memos
    ):
        from repro.cli import main
        from repro.observability.tracing import TraceStore
        from repro.serving import Client

        path = str(tmp_path / "traces.jsonl")
        store = TraceStore(capacity=1, spill_path=path)
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline", trace_store=store
        )
        with pool:
            client = Client(pool)
            result = client.call("Robert", relax_bits=8)
            client.call("Robert", relax_bits=8)  # spills the first trace
        assert store.spilled == 1
        capsys.readouterr()
        assert main(["trace", result.id, "--file", path]) == 0
        out = capsys.readouterr().out
        assert f"trace {result.id}" in out
        assert "executor" in out
        assert main(["trace", "no-such-id", "--file", path]) == 1

    def test_trace_without_arguments_is_a_usage_error(self, capsys):
        from repro.cli import main

        assert main(["trace"]) == 2
