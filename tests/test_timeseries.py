"""Unit tests for the streaming-telemetry layer.

Ring-buffer retention and merge semantics, selector/expression parsing,
the derived-signal functions, the alert state machine on a
:class:`ManualClock`, the full pipeline tick (registry + sketches +
process gauges + JSONL sink), and the fleet's
:class:`SlopeVerdictSource` escalation.  Everything here runs on injected
clocks — no sleeps, no wall-time dependence.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import TelemetryError
from repro.observability import JsonlSnapshotSink
from repro.observability.registry import MetricsRegistry
from repro.observability.sketch import TAIL_QUANTILES, LatencyAnalytics
from repro.observability.timeseries import (
    QUANTILE_SERIES,
    AlertRule,
    RingSeries,
    SlopeVerdictSource,
    TelemetryPipeline,
    TimeSeriesStore,
    counter_rate,
    derive,
    parse_expr,
    parse_selector,
    series_key,
    slope,
)
from repro.runtime.supervisor import ManualClock
from tests.test_sketch_properties import CountingLock


class TestRingSeries:
    def test_capacity_is_a_hard_envelope(self):
        series = RingSeries(kind="gauge", capacity=8)
        for i in range(1000):
            series.append(float(i), float(i))
        assert len(series.points) <= 8
        assert series.total_samples == 1000
        assert series.decimations > 0

    def test_decimation_keeps_the_whole_span(self):
        series = RingSeries(kind="gauge", capacity=8)
        for i in range(100):
            series.append(float(i), 1.0)
        # Never a silent truncation: the newest sample is always retained
        # verbatim and every raw sample is still represented in some
        # merged point's weight.
        assert series.latest() == (99.0, 1.0)
        assert sum(w for _t, _v, w in series.points) == 100

    def test_counter_merge_keeps_later_point_verbatim(self):
        series = RingSeries(kind="counter", capacity=4)
        raw = [(float(i), float(i * 10)) for i in range(16)]
        for t, v in raw:
            series.append(t, v)
        # Every retained (t, v) is an exact raw sample — cumulative
        # totals are never interpolated.
        raw_set = set(raw)
        for t, v, _w in series.points:
            assert (t, v) in raw_set

    def test_gauge_merge_preserves_the_weighted_mean_exactly(self):
        series = RingSeries(kind="gauge", capacity=8)
        raw = [float(i) * 1.25 for i in range(40)]
        for i, v in enumerate(raw):
            series.append(float(i), v)
        total_w = sum(w for _t, _v, w in series.points)
        weighted = sum(v * w for _t, v, w in series.points) / total_w
        assert weighted == pytest.approx(sum(raw) / len(raw), abs=1e-12)
        assert total_w == len(raw)

    def test_nan_is_rejected(self):
        series = RingSeries()
        with pytest.raises(TelemetryError):
            series.append(0.0, float("nan"))

    def test_window_filters_by_time(self):
        series = RingSeries(capacity=64)
        for i in range(10):
            series.append(float(i), float(i))
        assert len(series.window(4.0)) == 5  # t in [5, 9]
        assert len(series.window(4.0, now=20.0)) == 0
        assert len(series.window()) == 10
        assert RingSeries().window(5.0) == []


class TestSelectorsAndExpressions:
    def test_series_key_sorts_labels(self):
        assert series_key("m") == "m"
        assert series_key("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'

    def test_parse_selector_round_trips(self):
        assert parse_selector("up") == ("up", None)
        assert parse_selector('up{job="api"}') == ("up", {"job": "api"})
        assert parse_selector("up{}") == ("up", {})

    @pytest.mark.parametrize(
        "bad", ["", "1leading", "up{job}", "up{job='x'}", "up{", "a b"]
    )
    def test_malformed_selectors_raise(self, bad):
        with pytest.raises(TelemetryError):
            parse_selector(bad)

    def test_parse_expr(self):
        assert parse_expr("value(up)") == ("value", "up", None)
        assert parse_expr('rate(req{t="a"}, 60)') == (
            "rate",
            'req{t="a"}',
            60.0,
        )

    @pytest.mark.parametrize(
        "bad",
        [
            "up", "frob(up)", "rate(up)", "value()", "value(up, 1, 2)",
            "ewma(up, 5)", "mean(up, 60)",
        ],
    )
    def test_malformed_expressions_raise(self, bad):
        with pytest.raises(TelemetryError):
            parse_expr(bad)


class TestTimeSeriesStore:
    def test_get_or_create_returns_the_same_series(self):
        store = TimeSeriesStore(capacity=16)
        first = store.series("m", {"a": "1"}, kind="counter")
        second = store.series("m", {"a": "1"}, kind="gauge")
        assert first is second
        assert first.kind == "counter"  # fixed at first creation
        assert len(store) == 1

    def test_bare_name_selects_every_labelled_child(self):
        store = TimeSeriesStore()
        store.series("req", {"tenant": "a"})
        store.series("req", {"tenant": "b"})
        store.series("other")
        assert set(store.select("req")) == {
            'req{tenant="a"}',
            'req{tenant="b"}',
        }
        assert set(store.select('req{tenant="a"}')) == {'req{tenant="a"}'}
        assert store.select('req{tenant="zzz"}') == {}

    def test_label_matching_is_a_subset_match(self):
        store = TimeSeriesStore()
        store.series("m", {"a": "1", "b": "2"})
        assert len(store.select('m{a="1"}')) == 1
        assert len(store.select('m{a="1",b="2"}')) == 1
        assert len(store.select('m{a="1",b="9"}')) == 0


class TestDerivedSignals:
    def test_counter_rate_over_a_steady_counter(self):
        points = [(float(t), float(t * 5), 1) for t in range(11)]
        assert counter_rate(points) == pytest.approx(5.0)
        assert counter_rate(points, window_s=2.0) == pytest.approx(5.0)

    def test_counter_rate_tolerates_resets(self):
        # 0..40, reset, climbs to 10: increase = 40 + 10 over 5s.
        points = [(0.0, 0.0, 1), (1.0, 20.0, 1), (2.0, 40.0, 1),
                  (3.0, 0.0, 1), (4.0, 5.0, 1), (5.0, 10.0, 1)]
        assert counter_rate(points) == pytest.approx(50.0 / 5.0)

    def test_counter_rate_degenerate_inputs(self):
        assert counter_rate([]) is None
        assert counter_rate([(0.0, 1.0, 1)]) is None
        assert counter_rate([(1.0, 1.0, 1), (1.0, 2.0, 1)]) is None

    def test_slope_of_a_line_is_exact(self):
        points = [(float(t), 3.0 + 0.25 * t, 1) for t in range(20)]
        assert slope(points) == pytest.approx(0.25)
        translated = [(t + 1e6, v, w) for t, v, w in points]
        assert slope(translated) == pytest.approx(slope(points))

    def test_slope_degenerate_inputs(self):
        assert slope([]) is None
        assert slope([(0.0, 1.0, 1)]) is None
        assert slope([(2.0, 1.0, 1), (2.0, 3.0, 1)]) is None

    def test_derive_folds_multiple_series(self):
        store = TimeSeriesStore()
        for tenant, per_s in (("a", 2.0), ("b", 3.0)):
            s = store.series("req", {"tenant": tenant}, kind="counter")
            for t in range(11):
                s.append(float(t), per_s * t)
        assert derive(store, "rate", "req", 60) == pytest.approx(5.0)
        assert derive(store, "rate", 'req{tenant="a"}', 60) == (
            pytest.approx(2.0)
        )
        assert derive(store, "value", "req") == pytest.approx(50.0)
        assert derive(store, "slope", "req", 60) == pytest.approx(5.0)
        assert derive(store, "value", "absent_series") is None
        assert derive(store, *parse_expr("rate(req, 60)")) == (
            pytest.approx(5.0)
        )
        with pytest.raises(TelemetryError):
            derive(store, "mean", "req", 60)


def _bare_pipeline(clock, **kwargs):
    """A pipeline with no registry/sketch/process sources — the store is
    fed directly, so rule-engine tests control the signal exactly."""
    kwargs.setdefault("sample_process", False)
    return TelemetryPipeline(clock=clock, **kwargs)


class TestAlertStateMachine:
    def _drive(self, pipeline, clock, signal_value, advance=1.0):
        pipeline.store.series("sig").append(clock(), signal_value)
        summary = pipeline.tick()
        clock.advance(advance)
        return summary

    def test_pending_dwell_before_firing(self):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        pipeline.add_rule(
            AlertRule("hot", "value(sig)", threshold=1.0, for_s=2.5)
        )
        states = []
        for value in (0.0, 5.0, 5.0, 5.0, 5.0):
            self._drive(pipeline, clock, value)
            states.append(pipeline.alerts()["rules"][0]["state"])
        # Breach at t=1; dwell 2.5s means firing at t=4 (4th breach tick).
        assert states == [
            "inactive", "pending", "pending", "pending", "firing",
        ]
        assert pipeline.alerts()["firing"] == ["hot"]

    def test_breach_clearing_while_pending_goes_inactive(self):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        pipeline.add_rule(
            AlertRule("hot", "value(sig)", threshold=1.0, for_s=10.0)
        )
        for value in (5.0, 0.0):
            self._drive(pipeline, clock, value)
        assert pipeline.alerts()["rules"][0]["state"] == "inactive"

    def test_resolve_dwell_and_flap_guard(self):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        pipeline.add_rule(
            AlertRule("hot", "value(sig)", threshold=1.0, for_s=2.0)
        )
        trajectory = []
        # breach long enough to fire, clear briefly, re-breach.
        for value in (5.0, 5.0, 5.0, 0.0, 5.0):
            self._drive(pipeline, clock, value)
            trajectory.append(pipeline.alerts()["rules"][0]["state"])
        # The re-breach inside the resolve dwell returns straight to
        # firing — never a second pending dwell (the flap guard).
        assert trajectory == [
            "pending", "pending", "firing", "resolved", "firing",
        ]

    def test_zero_dwell_still_passes_through_pending(self):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        pipeline.add_rule(
            AlertRule("hot", "value(sig)", threshold=1.0, for_s=0.0)
        )
        self._drive(pipeline, clock, 5.0)
        status = pipeline.alerts()["rules"][0]
        assert status["state"] == "firing"
        # inactive -> pending -> firing: two transitions, never a skip.
        assert status["transitions"] == 2

    def test_no_data_never_breaches(self):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        pipeline.add_rule(
            AlertRule("hot", "value(absent)", threshold=-1e9, for_s=0.0)
        )
        pipeline.tick()
        assert pipeline.alerts()["rules"][0]["state"] == "inactive"

    def test_duplicate_rule_names_rejected(self):
        pipeline = _bare_pipeline(ManualClock())
        pipeline.add_rule(AlertRule("r", "value(x)", threshold=1.0))
        with pytest.raises(TelemetryError):
            pipeline.add_rule(AlertRule("r", "value(x)", threshold=2.0))
        with pytest.raises(TelemetryError):
            pipeline.add_rule("not a rule")


class TestTelemetryPipeline:
    def test_tick_samples_registry_and_sketches(self):
        clock = ManualClock()
        registry = MetricsRegistry()
        registry.counter("jobs_total", labelnames=("tenant",)).labels(
            tenant="a"
        ).inc(3)
        registry.gauge("depth").set(7.0)
        registry.histogram("lat_seconds").observe(0.2)
        analytics = LatencyAnalytics()
        for _ in range(50):
            analytics.observe("e2e", 0.1)
        pipeline = TelemetryPipeline(
            registry=registry,
            analytics=analytics,
            clock=clock,
            sample_process=False,
        )
        summary = pipeline.tick()
        assert summary["samples"] == summary["series"] == len(pipeline.store)
        assert pipeline.store.get('jobs_total{tenant="a"}').latest() == (
            0.0,
            3.0,
        )
        assert pipeline.store.get("depth").latest() == (0.0, 7.0)
        assert pipeline.store.get("lat_seconds_count").latest()[1] == 1.0
        # Buckets sampled as counters with the le label.
        assert any(
            key.startswith("lat_seconds_bucket{le=")
            for key in pipeline.store.keys()
        )
        # Sketch quantiles land under the canonical quantile series.
        for quantile in TAIL_QUANTILES:
            key = series_key(
                QUANTILE_SERIES, {"layer": "e2e", "quantile": quantile}
            )
            assert pipeline.store.get(key).latest()[1] == pytest.approx(
                0.1, rel=0.2
            )

    def test_tick_skips_self_referential_families(self):
        registry = MetricsRegistry()
        registry.counter("repro_telemetry_samples_total").inc()
        registry.gauge("repro_process_rss_bytes").set(1.0)
        registry.counter("ordinary_total").inc()
        pipeline = TelemetryPipeline(
            registry=registry, clock=ManualClock(), sample_process=False
        )
        pipeline.tick()
        assert pipeline.store.keys() == ("ordinary_total",)

    def test_tick_reads_each_sketch_once(self, monkeypatch):
        """A tick takes one snapshot per layer: one lock entry and one
        sort serve the four quantile gauges and the count.  A writer
        landing after every release of a sketch's lock cannot pair the
        recorded count with quantiles of a later state."""
        analytics = LatencyAnalytics()
        layers = ("e2e", "queue_wait", "service")
        for layer in layers:
            for value in range(1, 21):
                analytics.observe(layer, value / 100)
        expected = {layer: analytics.sketch(layer).summary()
                    for layer in layers}
        locks, sorts = {}, {layer: 0 for layer in layers}
        for layer in layers:
            sketch = analytics.sketch(layer)
            lock = locks[layer] = sketch._lock = CountingLock()

            def write(lock=lock, sketch=sketch) -> None:
                with lock.lock:  # a burst of slow requests lands
                    for _ in range(100):
                        sketch._ingest(10.0)

            def counted(weighted=sketch._weighted, layer=layer):
                sorts[layer] += 1
                return weighted()

            lock.after_release = write
            monkeypatch.setattr(sketch, "_weighted", counted)
        pipeline = TelemetryPipeline(
            analytics=analytics, clock=ManualClock(), sample_process=False
        )
        pipeline.tick()
        for layer in layers:
            assert locks[layer].entered == 1
            assert sorts[layer] == 1
            assert analytics.sketch(layer).count > 20  # the writer landed
            recorded = {
                name: pipeline.store.get(series_key(
                    QUANTILE_SERIES, {"layer": layer, "quantile": name}
                )).latest()[1]
                for name in TAIL_QUANTILES
            }
            recorded["count"] = pipeline.store.get(series_key(
                "repro_latency_events_total", {"layer": layer}
            )).latest()[1]
            assert recorded == {
                name: expected[layer][name]
                for name in (*TAIL_QUANTILES, "count")
            }

    def test_process_gauges_are_sampled(self):
        pipeline = TelemetryPipeline(
            clock=ManualClock(), sample_process=True
        )
        summary = pipeline.tick()
        keys = pipeline.store.keys()
        assert keys and all(key.startswith("repro_process_") for key in keys)
        assert summary["samples"] == len(keys)
        rss = pipeline.store.select("repro_process_rss_bytes")
        assert all(s.latest()[1] > 0 for s in rss.values())

    def test_jsonl_sink_gets_one_record_per_tick(self, tmp_path):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        sink = JsonlSnapshotSink(str(tmp_path / "telemetry.jsonl"))
        pipeline.attach_sink(sink)
        for t in range(3):
            pipeline.store.series("sig").append(clock(), float(t))
            pipeline.tick()
            clock.advance(1.0)
        lines = (tmp_path / "telemetry.jsonl").read_text().splitlines()
        assert len(lines) == 3
        records = [json.loads(line) for line in lines]
        assert [r["ts"] for r in records] == [0.0, 1.0, 2.0]
        assert records[-1]["telemetry"]["tails"]["sig"] == 2.0

    def test_query_payload_includes_derived_scalar(self):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        for t in range(10):
            pipeline.store.series("sig").append(clock(), float(t))
            clock.advance(1.0)
        payload = pipeline.query("sig", window_s=100.0, fn="slope")
        assert payload["series"][0]["key"] == "sig"
        assert payload["series"][0]["derived"]["value"] == pytest.approx(
            1.0
        )
        assert len(payload["series"][0]["points"]) == 10

    def test_status_summarises_the_pipeline(self):
        pipeline = _bare_pipeline(ManualClock())
        pipeline.add_rule(AlertRule("r", "value(x)", threshold=1.0))
        pipeline.tick()
        status = pipeline.status()
        assert status["ticks"] == 1
        assert status["alert_rules"] == 1
        assert status["alerts"]["inactive"] == 1

    def test_background_thread_start_stop(self):
        pipeline = TelemetryPipeline(
            interval_s=0.01, sample_process=False
        )
        with pipeline.start():
            with pytest.raises(TelemetryError):
                pipeline.start()
        pipeline.stop()  # idempotent


class TestSlopeVerdictSource:
    def _pipeline_with_slope(self, per_second: float):
        clock = ManualClock()
        pipeline = _bare_pipeline(clock)
        series = pipeline.store.series(
            QUANTILE_SERIES, {"layer": "e2e", "quantile": "p99"}
        )
        for t in range(30):
            series.append(float(t), 1.0 + per_second * t)
        return pipeline

    def test_burning_verdicts_pass_through(self):
        pipeline = self._pipeline_with_slope(1.0)
        source = SlopeVerdictSource(pipeline, sustain=1)
        assert source.verdict({"verdict": "fast_burn"}) == (
            "fast_burn",
            "slo",
        )

    def test_sustained_slope_escalates_ok(self):
        pipeline = self._pipeline_with_slope(0.05)
        source = SlopeVerdictSource(
            pipeline, window_s=60.0, slope_threshold=0.01, sustain=3
        )
        verdicts = [source.verdict({"verdict": "ok"}) for _ in range(4)]
        assert [v[0] for v in verdicts] == [
            "ok", "ok", "slow_burn", "slow_burn",
        ]
        assert "p99_slope_s_per_s" in verdicts[2][1]
        assert source.escalations == 2
        assert source.status()["last_slope"] == pytest.approx(0.05)

    def test_flat_slope_never_escalates(self):
        pipeline = self._pipeline_with_slope(0.0)
        source = SlopeVerdictSource(pipeline, sustain=1)
        for _ in range(5):
            assert source.verdict({"verdict": "ok"}) == ("ok", "slo")
        assert source.streak == 0

    def test_streak_resets_when_slope_clears(self):
        pipeline = self._pipeline_with_slope(0.05)
        source = SlopeVerdictSource(
            pipeline, window_s=60.0, slope_threshold=0.01, sustain=3
        )
        source.verdict({"verdict": "ok"})
        source.verdict({"verdict": "ok"})
        # Flatten the series: new samples at the same level.
        series = pipeline.store.select(QUANTILE_SERIES)
        key, ring = next(iter(series.items()))
        for t in range(30, 300):
            ring.append(float(t), 1.0)
        assert source.verdict({"verdict": "ok"})[0] == "ok"
        assert source.streak == 0

    def test_constructor_validation(self):
        pipeline = _bare_pipeline(ManualClock())
        with pytest.raises(TelemetryError):
            SlopeVerdictSource(pipeline, window_s=0.0)
        with pytest.raises(TelemetryError):
            SlopeVerdictSource(pipeline, slope_threshold=0.0)
        with pytest.raises(TelemetryError):
            SlopeVerdictSource(pipeline, sustain=0)
        with pytest.raises(TelemetryError):
            SlopeVerdictSource(pipeline, series="not {a selector")
