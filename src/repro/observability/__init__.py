"""Observability: metrics, event tracing, tail analytics and SLOs.

The subsystem's parts:

- :mod:`repro.observability.registry` — labelled counters, gauges and
  fixed-bucket histograms (with per-bucket exemplars) in a process-wide
  :class:`MetricsRegistry`;
- :mod:`repro.observability.tracing` — the one event record:
  :func:`trace_event` (and :func:`timed_event`, the same event carrying
  its ``duration_s``) emits into the thread's ambient trace, which is a
  per-request :class:`TraceContext` in a bounded :class:`TraceStore`
  (JSONL spill, ``GET /trace/<id>``), a subprocess worker's buffer, or a
  :class:`~repro.runtime.trace.ChromeTraceWriter` file;
- :mod:`repro.observability.sketch` — bounded streaming quantile
  sketches (:class:`QuantileSketch`, :class:`LatencyAnalytics`) for
  p50/p95/p99/p999 tail reporting;
- :mod:`repro.observability.slo` — :class:`SLOPolicy` objectives and
  multi-window :class:`BurnRateEvaluator` verdicts (the ``healthz``
  503-on-fast-burn signal);
- :mod:`repro.observability.export` — Prometheus text exposition
  (exemplar-annotated) and the rotating JSONL snapshot sink;
- :mod:`repro.observability.timeseries` — the streaming telemetry
  pipeline: bounded :class:`RingSeries` history of the registry and
  sketch quantiles, derived signals (value, rate, slope), declarative
  alert rules and the fleet's :class:`SlopeVerdictSource`;
- :mod:`repro.observability.instruments` — the declared metric families:
  one table row (kind, name, help, labels, buckets) per family, each a
  module-level handle the executor, supervisor, campaign, checkpoint,
  resilience, serving, fleet and controller layers write through.

See ``docs/observability.md`` for naming conventions and usage.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "export": ("JsonlSnapshotSink", "snapshot", "to_prometheus"),
    "registry": ("DEFAULT_ENERGY_BUCKETS", "DEFAULT_LATENCY_BUCKETS",
                 "Counter", "Gauge", "Histogram", "MetricsRegistry",
                 "active_registry", "default_registry", "disable", "enable",
                 "enabled", "exponential_buckets", "set_default_registry"),
    "sketch": ("TAIL_QUANTILES", "LatencyAnalytics", "QuantileSketch"),
    "slo": ("BurnRateEvaluator", "SLOPolicy", "evaluate_points"),
    "timeseries": ("AlertRule", "RingSeries", "SlopeVerdictSource",
                   "TelemetryPipeline", "TimeSeriesStore", "counter_rate",
                   "derive", "series_key", "slope"),
    "tracing": ("TraceContext", "TraceEvent", "TraceRecord", "TraceStore",
                "current_trace", "format_timeline", "timed_event",
                "trace_event", "use_trace"),
})

__all__ = [
    "AlertRule",
    "BurnRateEvaluator",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSnapshotSink",
    "LatencyAnalytics",
    "MetricsRegistry",
    "QuantileSketch",
    "RingSeries",
    "SLOPolicy",
    "SlopeVerdictSource",
    "TelemetryPipeline",
    "TimeSeriesStore",
    "TraceContext",
    "TraceEvent",
    "TraceRecord",
    "TraceStore",
    "DEFAULT_ENERGY_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "TAIL_QUANTILES",
    "active_registry",
    "counter_rate",
    "current_trace",
    "derive",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "evaluate_points",
    "exponential_buckets",
    "format_timeline",
    "series_key",
    "set_default_registry",
    "slope",
    "snapshot",
    "timed_event",
    "to_prometheus",
    "trace_event",
    "use_trace",
]
