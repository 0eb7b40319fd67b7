"""Unit tests for the Chrome trace writer (repro.runtime.trace)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError


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
