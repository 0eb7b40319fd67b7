"""End-to-end observability: every runtime layer emits into one registry."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.crossbar.block import BlockedCrossbar
from repro.crossbar.controller import Command, MemoryController
from repro.errors import TransientError
from repro.observability import MetricsRegistry, set_default_registry
from repro.runtime.campaign import run_campaign
from repro.runtime.checkpoint import CheckpointJournal, recover
from repro.runtime.executor import APIMExecutor
from repro.runtime.supervisor import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    Supervisor,
)
from repro.runtime.trace import ChromeTraceWriter
from repro.workloads import workload_by_name


@pytest.fixture
def registry():
    """A fresh default registry for the duration of one test."""
    mine = MetricsRegistry()
    previous = set_default_registry(mine)
    yield mine
    set_default_registry(previous)


def _value(registry, name, **labels):
    family = registry.get(name)
    assert family is not None, f"{name} was never registered"
    return family.labels(**labels).value


class TestExecutorMetrics:
    def test_run_populates_op_cycle_energy_and_latency(self, registry):
        workload = workload_by_name("Robert")
        result = APIMExecutor().run(
            workload, elements=256, rng=np.random.default_rng(0)
        )
        assert _value(
            registry, "repro_executor_runs_total",
            workload="Robert", status="ok",
        ) == 1
        assert _value(
            registry, "repro_executor_ops_total",
            workload="Robert", op="mul",
        ) == result.mul_count
        assert _value(
            registry, "repro_executor_cycles_total", workload="Robert"
        ) == result.cost.cycles
        latency = registry.get("repro_executor_time_seconds").labels(
            workload="Robert"
        )
        assert latency.count == 1
        assert latency.sum == result.time
        spans = registry.get("repro_span_duration_seconds")
        assert spans.labels(name="executor.kernel").count == 1


class TestSupervisorMetrics:
    def test_retries_and_backoff_counted(self, registry):
        clock = ManualClock()
        supervisor = Supervisor(
            retry=RetryPolicy(max_attempts=3, base_delay=0.01),
            clock=clock,
        )
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("glitch")
            return "done"

        result, report = supervisor.supervise("k", flaky)
        assert result == "done"
        assert _value(registry, "repro_supervisor_retries_total") == 2
        assert _value(
            registry, "repro_supervisor_events_total", kind="attempt"
        ) == 3
        assert _value(
            registry, "repro_supervisor_events_total", kind="success"
        ) == 1
        backoff = registry.get("repro_supervisor_backoff_seconds")
        assert backoff.labels().count == 2
        assert backoff.labels().sum == pytest.approx(sum(report.delays))

    def test_healthy_run_materialises_zero_retries(self, registry):
        supervisor = Supervisor(clock=ManualClock())
        supervisor.supervise("k", lambda: 1)
        assert _value(registry, "repro_supervisor_retries_total") == 0

    def test_breaker_transitions(self, registry):
        clock = ManualClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=1.0, clock=clock
        )
        breaker.record_failure("k")
        breaker.record_failure("k")  # trips: closed -> open
        assert _value(
            registry, "repro_breaker_transitions_total", state="open"
        ) == 1
        clock.advance(1.5)
        breaker.check("k")  # cooldown over: open -> half_open
        assert _value(
            registry, "repro_breaker_transitions_total", state="half_open"
        ) == 1
        breaker.record_success("k")  # probe passed: half_open -> closed
        assert _value(
            registry, "repro_breaker_transitions_total", state="closed"
        ) == 1


class TestCampaignAndCheckpointMetrics:
    def test_grid_points_and_journal_activity(self, registry, tmp_path):
        journal_path = str(tmp_path / "grid.jsonl")
        result = run_campaign(
            ["Robert"], [0, 16],
            tile_elements=256,
            checkpoint=journal_path,
        )
        assert len(result.points) == 2
        assert _value(
            registry, "repro_campaign_points_total", status="ok"
        ) == 2
        # 1 descriptor + 2 begin + 2 end appends, each with one fsync.
        appends = registry.get("repro_checkpoint_appends_total")
        assert appends.labels(type="begin").value == 2
        assert appends.labels(type="end").value == 2
        assert appends.labels(type="campaign").value == 1
        assert _value(registry, "repro_checkpoint_fsyncs_total") == 5

    def test_resumed_points_counted(self, registry, tmp_path):
        journal_path = str(tmp_path / "grid.jsonl")
        run_campaign(
            ["Robert"], [0], tile_elements=256, checkpoint=journal_path
        )
        run_campaign(
            ["Robert"], [0], tile_elements=256,
            checkpoint=journal_path, resume=True,
        )
        assert _value(
            registry, "repro_campaign_points_resumed_total"
        ) == 1

    def test_torn_tail_recovery_counted(self, registry, tmp_path):
        path = str(tmp_path / "torn.jsonl")
        with CheckpointJournal(path) as journal:
            journal.begin("a")
        with open(path, "ab") as handle:
            handle.write(b'{"type": "end", "key"')  # torn mid-append
        recover(path)
        assert _value(registry, "repro_checkpoint_recovered_total") == 1


class TestControllerMetrics:
    def test_commands_magic_ops_and_row_activations(self, registry):
        fabric = BlockedCrossbar(num_blocks=2, rows=16, cols=16)
        controller = MemoryController(fabric)
        controller.execute(Command("WR", (0, 0, 0b1010, 4)))
        controller.execute(Command("INIT", (0, ((2, 0),))))
        controller.execute(
            Command("NOR", (0, ((0, 0), (0, 1)), (2, 0)))
        )
        controller.execute(Command("RD", (0, 0, 4)))
        commands = registry.get("repro_controller_commands_total")
        assert commands.labels(opcode="WR").value == 1
        assert commands.labels(opcode="NOR").value == 1
        assert _value(registry, "repro_controller_magic_ops_total") == 1
        # WR + RD activate one row each; NOR/INIT act on cells.
        assert _value(
            registry, "repro_controller_row_activations_total"
        ) == 2


class TestResilienceMetrics:
    def test_bist_scan_counted_via_context(self, registry):
        from repro.resilience.engine import ResilienceContext
        from repro.resilience.policy import ResiliencePolicy

        fabric = BlockedCrossbar(num_blocks=2, rows=32, cols=32)
        context = ResilienceContext(
            fabric, ResiliencePolicy(spare_fraction=0.1)
        )
        context.make_engine()
        assert _value(registry, "repro_resilience_bist_scans_total") >= 1


class TestCliMetrics:
    def test_quick_scrape_has_required_families(self, capsys, cold_memos):
        from repro.cli import main

        assert main(["metrics", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "repro_executor_ops_total" in out
        assert "repro_supervisor_retries_total 0" in out
        assert "repro_executor_time_seconds_bucket" in out
        assert 'repro_campaign_points_total{status="ok"} 1' in out

    def test_jsonl_and_output_files(self, tmp_path, capsys):
        from repro.cli import main

        scrape = tmp_path / "scrape.prom"
        telemetry = tmp_path / "telemetry.jsonl"
        assert main([
            "metrics", "--quick",
            "-o", str(scrape), "--jsonl", str(telemetry),
        ]) == 0
        assert "repro_executor_ops_total" in scrape.read_text()
        (line,) = telemetry.read_text().splitlines()
        record = json.loads(line)
        assert record["points"] == 1
        assert "repro_executor_ops_total" in record["metrics"]

    def test_chrome_trace_export(self, tmp_path, capsys, cold_memos):
        from repro.cli import main

        path = tmp_path / "spans.json"
        scrape = tmp_path / "scrape.prom"
        assert main([
            "metrics", "--quick", "--trace", str(path), "-o", str(scrape),
        ]) == 0
        events = json.loads(path.read_text())["traceEvents"]
        kinds = {(e["cat"], e["name"], e["ph"]) for e in events}
        assert ("executor", "kernel", "X") in kinds
        assert ("campaign", "point", "X") in kinds
        assert ("supervisor", "attempt", "i") in kinds
        assert ("supervisor", "success", "i") in kinds
        # The slice and the histogram are one measurement.
        (point,) = [e for e in events if e["name"] == "point"]
        assert point["args"]["key"].startswith("Sobel/")
        assert 'repro_span_duration_seconds_count{name="campaign.point"} 1' \
            in scrape.read_text()


class TestTraceWriterConcurrency:
    def test_concurrent_adds_tear_nothing(self, tmp_path):
        path = tmp_path / "trace.json"
        writer = ChromeTraceWriter(str(path), flush_every=7)
        per_thread, threads = 50, 4

        def emit(tag: int):
            for i in range(per_thread):
                writer.event("test", f"t{tag}.{i}", duration_s=1e-6)

        workers = [
            threading.Thread(target=emit, args=(t,)) for t in range(threads)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        writer.close()
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) == per_thread * threads
        # Every event got stamped with a real pid and its emitter's tid.
        tids = {event["tid"] for event in payload["traceEvents"]}
        assert len(tids) == threads
        assert all(event["pid"] > 0 for event in payload["traceEvents"])
