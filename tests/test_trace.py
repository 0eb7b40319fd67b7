"""Unit tests for trace export (repro.runtime.trace)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.compiler import KernelBuilder, ListScheduler
from repro.core.engine import APIMEngine
from repro.errors import ConfigurationError
from repro.runtime.trace import ledger_to_chrome_trace, schedule_to_chrome_trace
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def scheduled():
    b = KernelBuilder("traced")
    x = b.input("x")
    p1 = b.mul(x, b.const(3))
    p2 = b.mul(x, b.const(5))
    b.output("out", b.add(p1, p2, width=48))
    kernel = b.build()
    return kernel, ListScheduler(lanes=2).schedule(kernel)


class TestScheduleTrace:
    def test_valid_json_with_events(self, scheduled):
        kernel, schedule = scheduled
        payload = json.loads(schedule_to_chrome_trace(schedule, kernel))
        assert payload["traceEvents"]

    def test_one_thread_per_lane(self, scheduled):
        kernel, schedule = scheduled
        payload = json.loads(schedule_to_chrome_trace(schedule, kernel))
        threads = [
            e for e in payload["traceEvents"]
            if e.get("name") == "thread_name"
        ]
        assert len(threads) == schedule.lanes

    def test_duration_events_match_placements(self, scheduled):
        kernel, schedule = scheduled
        payload = json.loads(schedule_to_chrome_trace(schedule, kernel))
        slices = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        busy_placements = [
            p for p in schedule.placements if p.end > p.start
        ]
        assert len(slices) == len(busy_placements)
        for event in slices:
            assert event["dur"] > 0
            assert event["ts"] >= 0

    def test_instant_events_for_free_nodes(self, scheduled):
        kernel, schedule = scheduled
        payload = json.loads(schedule_to_chrome_trace(schedule, kernel))
        instants = [e for e in payload["traceEvents"] if e.get("ph") == "i"]
        free_nodes = [p for p in schedule.placements if p.end == p.start]
        assert len(instants) == len(free_nodes)

    def test_kernel_mismatch_rejected(self, scheduled):
        kernel, schedule = scheduled
        other = KernelBuilder("other")
        x = other.input("x")
        other.output("out", x)
        with pytest.raises(ConfigurationError):
            schedule_to_chrome_trace(schedule, other.build())


class TestLedgerTrace:
    def test_phases_laid_end_to_end(self):
        workload = workload_by_name("Robert")
        engine = APIMEngine()
        workload.run(engine, workload.generate(512, np.random.default_rng(0)))
        payload = json.loads(
            ledger_to_chrome_trace(engine.ledger, lanes=16)
        )
        slices = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        assert {s["name"] for s in slices} >= {"multiply", "add"}
        cursor = 0.0
        for event in slices:
            assert event["ts"] == pytest.approx(cursor)
            cursor += event["dur"]

    def test_args_carry_cost_details(self):
        workload = workload_by_name("Sobel")
        engine = APIMEngine()
        workload.run(engine, workload.generate(256, np.random.default_rng(1)))
        payload = json.loads(ledger_to_chrome_trace(engine.ledger))
        slices = [e for e in payload["traceEvents"] if e.get("ph") == "X"]
        for event in slices:
            assert event["args"]["cycles"] >= 0
            assert event["args"]["energy_J"] >= 0

    def test_invalid_lanes_rejected(self):
        engine = APIMEngine()
        with pytest.raises(ConfigurationError):
            ledger_to_chrome_trace(engine.ledger, lanes=0)


class TestChromeTraceWriter:
    def _writer(self, tmp_path, **kwargs):
        from repro.runtime.trace import ChromeTraceWriter

        return ChromeTraceWriter(str(tmp_path / "trace.json"), **kwargs)

    def test_file_is_loadable_after_every_event(self, tmp_path):
        writer = self._writer(tmp_path)
        for i in range(3):
            writer.event("compiler", f"op{i}", duration_s=1e-6)
            payload = json.loads((tmp_path / "trace.json").read_text())
            assert len(payload["traceEvents"]) == i + 1

    def test_flush_on_failure_path(self, tmp_path):
        """The context manager flushes buffered events even while an
        exception propagates — and never swallows it."""
        path = tmp_path / "trace.json"
        with pytest.raises(RuntimeError):
            with self._writer(tmp_path, flush_every=100) as writer:
                writer.event("supervisor", "attempt")
                writer.event("supervisor", "failure")
                assert not path.exists()  # still buffered
                raise RuntimeError("run died mid-campaign")
        payload = json.loads(path.read_text())
        names = [e["name"] for e in payload["traceEvents"]]
        assert names == ["attempt", "failure"]

    def test_batched_flush_policy(self, tmp_path):
        path = tmp_path / "trace.json"
        writer = self._writer(tmp_path, flush_every=2)
        writer.event("test", "a")
        assert not path.exists()
        writer.event("test", "b")
        assert len(json.loads(path.read_text())["traceEvents"]) == 2

    def test_close_is_idempotent_and_final(self, tmp_path):
        writer = self._writer(tmp_path, flush_every=10)
        writer.event("test", "only")
        writer.close()
        writer.close()
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert [e["name"] for e in payload["traceEvents"]] == ["only"]
        with pytest.raises(ConfigurationError):
            writer.event("test", "late")

    def test_bad_flush_interval_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            self._writer(tmp_path, flush_every=0)

    def test_events_map_to_instants_and_slices_on_the_clock(self, tmp_path):
        from repro.runtime.supervisor import ManualClock

        clock = ManualClock()
        clock.advance(10.0)  # the epoch is the clock at open
        writer = self._writer(tmp_path, clock=clock)
        clock.advance(2.0)
        writer.event("supervisor", "retry", "glitch", key="Sobel/0")
        clock.advance(1.0)
        writer.event("executor", "kernel", duration_s=0.5, workload="Sobel")
        instant, timed = writer.events
        assert instant["cat"] == "supervisor" and instant["name"] == "retry"
        assert instant["ph"] == "i" and instant["ts"] == 2e6
        assert instant["args"] == {"key": "Sobel/0", "detail": "glitch"}
        assert timed["cat"] == "executor" and timed["name"] == "kernel"
        assert timed["ph"] == "X"
        assert timed["ts"] == 2.5e6 and timed["dur"] == 5e5  # ends now
        assert timed["args"]["workload"] == "Sobel"

    def test_use_trace_installs_the_writer_as_a_sink(self, tmp_path):
        from repro.observability.tracing import trace_event, use_trace

        writer = self._writer(tmp_path)
        with use_trace(writer):
            trace_event("campaign", "degrade_rung", rung_m=8)
        trace_event("campaign", "ignored")  # no sink installed
        (event,) = writer.events
        assert (event["cat"], event["name"]) == ("campaign", "degrade_rung")
        assert event["args"] == {"rung_m": 8}


class TestThreadSafety:
    def _writer(self, tmp_path, **kwargs):
        from repro.runtime.trace import ChromeTraceWriter

        return ChromeTraceWriter(str(tmp_path / "trace.json"), **kwargs)

    def test_events_stamped_with_pid_and_tid(self, tmp_path):
        import os
        import threading

        writer = self._writer(tmp_path, flush_every=10)
        writer.event("test", "here")
        writer.close()
        (event,) = json.loads((tmp_path / "trace.json").read_text())[
            "traceEvents"
        ]
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident()

    def test_explicit_tid_not_overwritten(self, tmp_path):
        writer = self._writer(tmp_path, flush_every=10)
        writer.add({"name": "pinned", "ph": "X", "ts": 0.0, "dur": 1.0,
                    "tid": 7})
        writer.close()
        (event,) = json.loads((tmp_path / "trace.json").read_text())[
            "traceEvents"
        ]
        assert event["tid"] == 7

    def test_concurrent_adds_keep_every_event(self, tmp_path):
        import threading

        writer = self._writer(tmp_path, flush_every=3)

        def emit(tag: int):
            for i in range(40):
                writer.event("test", f"w{tag}.{i}")

        workers = [
            threading.Thread(target=emit, args=(t,)) for t in range(4)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        writer.close()
        payload = json.loads((tmp_path / "trace.json").read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert len(payload["traceEvents"]) == 160
        assert names == {f"w{t}.{i}" for t in range(4) for i in range(40)}
