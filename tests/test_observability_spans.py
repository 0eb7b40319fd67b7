"""Unit tests for timed regions (repro.observability.tracing.timed_event).

A timed region is one trace event that carries its own ``duration_s``,
plus one ``repro_span_duration_seconds{name="<layer>.<kind>"}``
observation of the same measurement.
"""

from __future__ import annotations

import threading

import pytest

from repro.observability import (
    MetricsRegistry,
    disable,
    enable,
    set_default_registry,
    timed_event,
    use_trace,
)
from repro.observability.tracing import BufferedTraceContext
from repro.runtime.trace import ChromeTraceWriter

SPAN_HISTOGRAM = "repro_span_duration_seconds"


@pytest.fixture
def registry():
    """A fresh default registry for the duration of one test."""
    mine = MetricsRegistry()
    previous = set_default_registry(mine)
    yield mine
    set_default_registry(previous)


class TestPublishing:
    def test_span_survives_exceptions(self, registry):
        """The event and the observation land even when the body raises."""
        sink = BufferedTraceContext()
        with pytest.raises(RuntimeError):
            with use_trace(sink), timed_event("executor", "kernel", n=1):
                raise RuntimeError("kernel died")
        (event,) = sink.drain()
        assert (event["layer"], event["kind"]) == ("executor", "kernel")
        assert event["attrs"]["n"] == 1
        assert event["attrs"]["duration_s"] >= 0.0
        assert registry.get(SPAN_HISTOGRAM).labels(
            name="executor.kernel"
        ).count == 1

    def test_durations_land_in_registry_histogram(self, registry):
        sink = BufferedTraceContext()
        with use_trace(sink), timed_event("campaign", "point"):
            pass
        child = registry.get(SPAN_HISTOGRAM).labels(name="campaign.point")
        assert child.count == 1
        # One measurement, two outputs: the histogram and the event agree.
        (event,) = sink.drain()
        assert child.sum == event["attrs"]["duration_s"]

    def test_trace_writer_gets_slices_with_thread_ids(self, tmp_path):
        writer = ChromeTraceWriter(str(tmp_path / "spans.json"))
        with use_trace(writer), timed_event("executor", "kernel",
                                            workload="Sobel"):
            pass
        (event,) = writer.events
        assert (event["cat"], event["name"]) == ("executor", "kernel")
        assert event["ph"] == "X"
        assert event["dur"] == event["args"]["duration_s"] * 1e6
        assert event["tid"] == threading.get_ident()
        assert event["args"]["workload"] == "Sobel"

    def test_module_level_span_feeds_default_registry(self, registry):
        with timed_event("module", "level"):
            pass
        assert registry.get(SPAN_HISTOGRAM).labels(
            name="module.level"
        ).count == 1

    def test_disabled_module_span_is_null_and_free(self, registry):
        disable()
        try:
            with timed_event("invisible", "region") as record:
                assert record is None
            assert timed_event("a", "b") is timed_event("c", "d")
        finally:
            enable()
        assert registry.get(SPAN_HISTOGRAM) is None

    def test_honours_registry_swap(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_default_registry(first)
        try:
            with timed_event("dynamic", "region"):
                set_default_registry(second)  # resolved at exit
        finally:
            set_default_registry(previous)
        assert second.get(SPAN_HISTOGRAM).labels(
            name="dynamic.region"
        ).count == 1
        assert first.get(SPAN_HISTOGRAM) is None
