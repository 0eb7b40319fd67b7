"""Streaming telemetry: ring-buffer time series, derived signals, alerts.

The registry (:mod:`repro.observability.registry`) and the latency
sketches (:mod:`repro.observability.sketch`) answer *point-in-time*
questions — current counter totals, current tail quantiles.  This module
retains their **history** so trends become first-class signals:

- :class:`RingSeries` — a fixed-capacity sample buffer.  When full it
  never truncates silently: adjacent samples merge pairwise (2x
  decimation), halving the resolution while keeping the *whole* retained
  span.  Counter samples merge by keeping the later cumulative value
  (exact at its timestamp); gauge samples merge into their weighted
  centroid (the weighted mean over the series is preserved exactly).
  Memory per series is therefore bounded by ``capacity`` forever.
- :class:`TimeSeriesStore` — named, labelled series
  (``name{label="value"}``), with selector lookup (a bare name selects
  every labelled child).
- Derived signals — :func:`counter_rate` (reset-tolerant, never
  negative) and :func:`slope` (least-squares trend, invariant under time
  translation), folded over a selector by :func:`derive`.  The slope of
  the sampled end-to-end p99 is the headline signal the fleet autoscaler
  consumes through :class:`SlopeVerdictSource`.
- :class:`AlertRule` — a declarative alert evaluated every sample tick
  on the *injected clock*.  Alerts walk the ``inactive -> pending ->
  firing -> resolved`` state machine with ``for_s`` hysteresis on both
  edges, so a flapping signal neither pages instantly nor silences
  instantly.
- :class:`TelemetryPipeline` — the conductor: each :meth:`tick` samples
  the registry (counters, gauges, histogram count/sum/buckets), the
  latency sketches' tail quantiles and the process resource gauges into
  the store, evaluates the alerts, observes itself (``repro_telemetry_*``
  families) and optionally appends one JSONL record to a rotating
  :class:`~repro.observability.export.JsonlSnapshotSink`.

Everything runs on an injectable clock: a test (or the replay harness)
drives :class:`~repro.runtime.supervisor.ManualClock` ticks and the whole
pipeline — samples, alert transitions, verdicts — is deterministic.  The
optional :meth:`TelemetryPipeline.start` background thread exists only
for wall-clock serving.

Three derive functions (``GET /query``'s ``fn``, and an alert's
``expr``, written ``fn(series_selector[, window_s])``)::

    value(series_selector)            latest sample
    rate(series_selector, window_s)   per-second increase (counters)
    slope(series_selector, window_s)  least-squares trend per second

A selector matching several series folds by summation, which is the
natural fold for per-tenant counters.
"""

from __future__ import annotations

import math
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import TelemetryError
from repro.observability.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.observability.sketch import TAIL_QUANTILES, LatencyAnalytics

__all__ = [
    "AlertRule",
    "RingSeries",
    "SlopeVerdictSource",
    "TelemetryPipeline",
    "TimeSeriesStore",
    "counter_rate",
    "derive",
    "series_key",
    "slope",
]

#: Series name for sampled sketch quantiles (labels: layer, quantile).
QUANTILE_SERIES = "repro_latency_quantile_seconds"

#: The alert states the rule engine can report.
ALERT_STATES = ("inactive", "pending", "firing", "resolved")


def series_key(name: str, labels: dict | None = None) -> str:
    """The canonical key of one series: ``name{k="v",...}`` with label
    names sorted, or the bare name for an unlabelled series."""
    if not labels:
        return name
    body = ",".join(
        f'{key}="{labels[key]}"' for key in sorted(labels)
    )
    return f"{name}{{{body}}}"


_SELECTOR_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>[^}]*)\})?$"
)
_LABEL_PAIR_RE = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"$')


def parse_selector(selector: str) -> tuple[str, dict | None]:
    """``name`` or ``name{k="v",...}`` -> (name, labels-or-None).

    A bare name selects every labelled child of the family; a labelled
    selector matches series carrying (at least) those label values.
    """
    match = _SELECTOR_RE.match(selector.strip())
    if match is None:
        raise TelemetryError(f"malformed series selector {selector!r}")
    body = match.group("labels")
    if body is None:
        return match.group("name"), None
    labels: dict[str, str] = {}
    if body.strip():
        for pair in body.split(","):
            pair_match = _LABEL_PAIR_RE.match(pair.strip())
            if pair_match is None:
                raise TelemetryError(
                    f"malformed label matcher {pair.strip()!r} in "
                    f"{selector!r} (want key=\"value\")"
                )
            labels[pair_match.group("key")] = pair_match.group("value")
    return match.group("name"), labels


class RingSeries:
    """One series: bounded samples with pairwise 2x decimation.

    Samples are ``(t, value, weight)`` where ``weight`` counts the raw
    samples merged into the point (1 until the first decimation).  The
    buffer holds at most ``capacity`` points; an append into a full
    buffer first merges adjacent pairs oldest-first, so the series keeps
    its entire retained time span at half the resolution instead of
    dropping history.

    ``kind`` picks the merge rule:

    - ``"counter"`` — keep the later sample verbatim.  Cumulative totals
      are exact at every retained timestamp, so rates between retained
      points are exact.
    - ``"gauge"`` — weighted centroid of time and value.  The weighted
      mean of the retained points equals the mean of all raw samples
      exactly, at any decimation depth.
    """

    __slots__ = ("kind", "capacity", "points", "decimations", "total_samples")

    def __init__(self, kind: str = "gauge", capacity: int = 512) -> None:
        if kind not in ("counter", "gauge"):
            raise TelemetryError(f"unknown series kind {kind!r}")
        if capacity < 4:
            raise TelemetryError(
                f"series capacity must be at least 4: {capacity}"
            )
        if capacity % 2:
            raise TelemetryError(
                f"series capacity must be even (pairwise decimation): "
                f"{capacity}"
            )
        self.kind = kind
        self.capacity = int(capacity)
        self.points: list[tuple[float, float, int]] = []
        self.decimations = 0
        self.total_samples = 0

    def append(self, t: float, value: float) -> None:
        """Ingest one sample; decimates first when the buffer is full."""
        value = float(value)
        if math.isnan(value):
            raise TelemetryError("cannot record NaN")
        if len(self.points) >= self.capacity:
            self._decimate()
        self.points.append((float(t), value, 1))
        self.total_samples += 1

    def _decimate(self) -> None:
        merged: list[tuple[float, float, int]] = []
        points = self.points
        for i in range(0, len(points) - 1, 2):
            t1, v1, w1 = points[i]
            t2, v2, w2 = points[i + 1]
            if self.kind == "counter":
                merged.append((t2, v2, w1 + w2))
            else:
                w = w1 + w2
                merged.append(
                    ((t1 * w1 + t2 * w2) / w, (v1 * w1 + v2 * w2) / w, w)
                )
        if len(points) % 2:
            merged.append(points[-1])
        self.points = merged
        self.decimations += 1

    def window(
        self, window_s: float | None = None, now: float | None = None
    ) -> list[tuple[float, float, int]]:
        """The retained points, optionally only those within
        ``[now - window_s, now]`` (``now`` defaults to the newest
        sample's timestamp)."""
        if window_s is None:
            return list(self.points)
        if not self.points:
            return []
        horizon = (now if now is not None else self.points[-1][0]) - window_s
        return [p for p in self.points if p[0] >= horizon]

    def latest(self) -> tuple[float, float] | None:
        """The newest ``(t, value)``, or None while empty."""
        if not self.points:
            return None
        t, v, _w = self.points[-1]
        return t, v


class TimeSeriesStore:
    """Named, labelled :class:`RingSeries`; thread-safe get-or-create."""

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._series: dict[str, RingSeries] = {}
        self._meta: dict[str, tuple[str, dict]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._series)

    def series(
        self, name: str, labels: dict | None = None, kind: str = "gauge"
    ) -> RingSeries:
        """Get-or-create one series (kind fixed at first creation)."""
        key = series_key(name, labels)
        existing = self._series.get(key)
        if existing is not None:
            return existing
        with self._lock:
            existing = self._series.get(key)
            if existing is None:
                existing = self._series[key] = RingSeries(
                    kind=kind, capacity=self.capacity
                )
                self._meta[key] = (name, dict(labels or {}))
            return existing

    def get(self, key: str) -> RingSeries | None:
        return self._series.get(key)

    def keys(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._series))

    def select(self, selector: str) -> dict[str, RingSeries]:
        """Series matching a selector (see :func:`parse_selector`)."""
        name, labels = parse_selector(selector)
        out: dict[str, RingSeries] = {}
        with self._lock:
            items = list(self._series.items())
        for key, series in items:
            meta = self._meta.get(key)
            if meta is None or meta[0] != name:
                continue
            if labels is not None and any(
                meta[1].get(k) != v for k, v in labels.items()
            ):
                continue
            out[key] = series
        return out


# -- derived signals ----------------------------------------------------------


def counter_rate(
    points: list[tuple[float, float, int]], window_s: float | None = None
) -> float | None:
    """Per-second increase of a cumulative counter over its points.

    Reset-tolerant: a decrease between adjacent samples is read as a
    counter restart, contributing the new absolute value (the increase
    since the reset) rather than a negative delta — so the result is
    never negative.  None with fewer than two points or zero elapsed
    time.
    """
    if window_s is not None and points:
        horizon = points[-1][0] - window_s
        points = [p for p in points if p[0] >= horizon]
    if len(points) < 2:
        return None
    elapsed = points[-1][0] - points[0][0]
    if elapsed <= 0:
        return None
    increase = 0.0
    for (t1, v1, _w1), (t2, v2, _w2) in zip(points, points[1:]):
        del t1, t2
        increase += (v2 - v1) if v2 >= v1 else v2
    return max(0.0, increase) / elapsed


def slope(
    points: list[tuple[float, float, int]], window_s: float | None = None
) -> float | None:
    """Weighted least-squares trend in value-units per second.

    Centered on the weighted mean time, so translating every timestamp
    by a constant leaves the result unchanged (the property test pins
    this).  None with fewer than two distinct timestamps.
    """
    if window_s is not None and points:
        horizon = points[-1][0] - window_s
        points = [p for p in points if p[0] >= horizon]
    if len(points) < 2:
        return None
    total_w = sum(w for _t, _v, w in points)
    mean_t = sum(t * w for t, _v, w in points) / total_w
    mean_v = sum(v * w for _t, v, w in points) / total_w
    var_t = sum(w * (t - mean_t) ** 2 for t, _v, w in points)
    if var_t <= 0:
        return None
    cov = sum(
        w * (t - mean_t) * (v - mean_v) for t, v, w in points
    )
    return cov / var_t


def _latest(
    points: list[tuple[float, float, int]], window_s: float | None = None
) -> float | None:
    """The newest sample's value (``window_s`` is ignored)."""
    return points[-1][1] if points else None


#: The derive functions, each over one series' points and a trailing
#: window in seconds.
_DERIVE_FNS: dict[str, Callable[..., float | None]] = {
    "value": _latest,
    "rate": counter_rate,
    "slope": slope,
}


def _derive_fn(fn: str) -> Callable[..., float | None]:
    """The derive function named ``fn``; TelemetryError if unknown."""
    try:
        return _DERIVE_FNS[fn]
    except KeyError:
        raise TelemetryError(
            f"unknown derive function {fn!r} (one of {tuple(_DERIVE_FNS)})"
        ) from None


def derive(
    store: TimeSeriesStore,
    fn: str,
    selector: str,
    window_s: float | None = None,
) -> float | None:
    """``fn`` over every series matching ``selector``, folded by
    summation (None = no data yet).  A trend over a summed family equals
    the sum of trends for aligned samples, so ``slope`` sums too."""
    compute = _derive_fn(fn)
    values = [
        compute(series.window(), window_s)
        for series in store.select(selector).values()
    ]
    values = [value for value in values if value is not None]
    return sum(values) if values else None


# -- alert expressions --------------------------------------------------------

_EXPR_RE = re.compile(
    r"^\s*(?P<fn>[a-z_]+)\s*\(\s*"
    r"(?P<selector>[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[^}]*\})?)\s*"
    r"(?:,\s*(?P<window>[0-9]*\.?[0-9]+)\s*)?\)\s*$"
)


def parse_expr(expr: str) -> tuple[str, str, float | None]:
    """``fn(selector[, window_s])`` -> (fn, selector, window), the
    arguments of :func:`derive`."""
    match = _EXPR_RE.match(expr)
    if match is None:
        raise TelemetryError(
            f"malformed expression {expr!r} (want fn(series[, window_s]), "
            f"fn one of {tuple(_DERIVE_FNS)})"
        )
    fn = match.group("fn")
    _derive_fn(fn)
    window = match.group("window")
    if window is None and fn != "value":
        raise TelemetryError(f"{fn}() needs a window: {expr!r}")
    parse_selector(match.group("selector"))  # validate eagerly
    return fn, match.group("selector"), None if window is None else float(window)


# -- alerts -------------------------------------------------------------------


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert: fire when ``expr > threshold`` sustains.

    ``for_s`` is the hysteresis on *both* edges, on the injected clock:
    a breach must hold ``for_s`` before ``pending`` promotes to
    ``firing``, and the breach must stay clear ``for_s`` before
    ``resolved`` relaxes to ``inactive`` (a re-breach while resolved
    returns straight to ``firing`` — the flap guard).
    """

    name: str
    expr: str
    threshold: float
    for_s: float = 0.0
    severity: str = "warn"

    def __post_init__(self) -> None:
        if not self.name:
            raise TelemetryError("alert rule needs a name")
        if self.for_s < 0:
            raise TelemetryError(f"for_s must be non-negative: {self.for_s}")
        if self.severity not in ("info", "warn", "page"):
            raise TelemetryError(
                f"severity must be info/warn/page: {self.severity!r}"
            )
        parse_expr(self.expr)  # validate eagerly

    def breached(self, value: float | None) -> bool:
        """No data is never a breach — absence of samples must not page."""
        return value is not None and value > self.threshold


class _AlertStatus:
    """Mutable per-rule state the engine walks each tick."""

    __slots__ = ("state", "since", "value", "transitions")

    def __init__(self, now: float) -> None:
        self.state = "inactive"
        self.since = now
        self.value: float | None = None
        self.transitions = 0

    def _move(self, state: str, now: float) -> None:
        if state != self.state:
            self.state = state
            self.since = now
            self.transitions += 1

    def step(self, rule: AlertRule, value: float | None, now: float) -> None:
        self.value = value
        breached = rule.breached(value)
        if self.state == "inactive":
            if breached:
                self._move("pending", now)
        elif self.state == "pending":
            if not breached:
                self._move("inactive", now)
        elif self.state == "firing":
            if not breached:
                self._move("resolved", now)
        elif self.state == "resolved":
            if breached:
                # Re-breach inside the hysteresis window: straight back
                # to firing, no second pending dwell (the flap guard).
                self._move("firing", now)
        # Dwell promotions (may complete within the same tick iff
        # for_s == 0 — pending is still entered first, never skipped).
        if self.state == "pending" and now - self.since >= rule.for_s:
            self._move("firing", now)
        elif self.state == "resolved" and now - self.since >= rule.for_s:
            self._move("inactive", now)

    def to_dict(self, rule: AlertRule) -> dict:
        return {
            "name": rule.name,
            "expr": rule.expr,
            "threshold": rule.threshold,
            "for_s": rule.for_s,
            "severity": rule.severity,
            "state": self.state,
            "since": self.since,
            "value": self.value,
            "transitions": self.transitions,
        }


# -- the pipeline -------------------------------------------------------------


class TelemetryPipeline:
    """Sample -> derive -> evaluate, one deterministic tick at a time.

    ``interval_s`` is the intended cadence; it scales the retention
    math (``capacity * interval_s`` seconds at full resolution, doubling
    per decimation) and is the sleep used by the optional background
    thread.  Determinism never depends on it: every :meth:`tick` stamps
    samples from the injected ``clock``.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        analytics: LatencyAnalytics | None = None,
        interval_s: float = 1.0,
        capacity: int = 512,
        clock: Callable[[], float] = time.monotonic,
        sample_process: bool = True,
    ) -> None:
        if interval_s <= 0:
            raise TelemetryError(
                f"sampling interval must be positive: {interval_s}"
            )
        self.registry = registry
        self.analytics = analytics
        self.interval_s = float(interval_s)
        self.clock = clock
        self.sample_process = sample_process
        self.store = TimeSeriesStore(capacity=capacity)
        self.alert_rules: list[AlertRule] = []
        self._alert_status: dict[str, _AlertStatus] = {}
        self.ticks = 0
        self.last_tick_at: float | None = None
        self._sink = None
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- wiring ---------------------------------------------------------------

    @classmethod
    def for_pool(cls, pool, **kwargs) -> "TelemetryPipeline":
        """A pipeline wired to one serving pool: the process registry,
        the pool's latency sketches and the pool scheduler's clock (a
        :class:`~repro.runtime.supervisor.ManualClock` injected there
        drives telemetry too).  Attaches itself as ``pool.telemetry`` —
        the handle ``GET /query`` / ``GET /alerts`` serve through."""
        from repro.observability.registry import default_registry

        kwargs.setdefault("registry", default_registry())
        kwargs.setdefault("analytics", pool.latency)
        kwargs.setdefault("clock", pool.scheduler.clock)
        pipeline = cls(**kwargs)
        pool.telemetry = pipeline
        return pipeline

    def add_rule(self, rule: AlertRule) -> None:
        """Register one alert rule (names are unique)."""
        if not isinstance(rule, AlertRule):
            raise TelemetryError(f"not an alert rule: {type(rule).__name__}")
        if any(r.name == rule.name for r in self.alert_rules):
            raise TelemetryError(f"duplicate alert rule name {rule.name!r}")
        self.alert_rules.append(rule)
        self._alert_status[rule.name] = _AlertStatus(self.clock())

    def attach_sink(self, sink) -> None:
        """Append one JSONL telemetry record per tick to ``sink`` (a
        :class:`~repro.observability.export.JsonlSnapshotSink`, rotation
        included)."""
        self._sink = sink

    # -- sampling -------------------------------------------------------------

    def _sample_registry(self, now: float) -> int:
        samples = 0
        registry = self.registry
        if registry is None:
            return 0
        for family in registry.families():
            if family.name.startswith(("repro_telemetry_", "repro_process_")):
                # telemetry families would feed the pipeline back into
                # itself; process gauges are appended by the process
                # pass (one source per series).
                continue
            if isinstance(family, Histogram):
                for labels, child in family.samples():
                    self.store.series(
                        f"{family.name}_count", labels, kind="counter"
                    ).append(now, child.count)
                    self.store.series(
                        f"{family.name}_sum", labels, kind="counter"
                    ).append(now, child.sum)
                    samples += 2
                    cumulative = child.cumulative()
                    for bound, count in zip(family.buckets, cumulative):
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = f"{bound:g}"
                        self.store.series(
                            f"{family.name}_bucket",
                            bucket_labels,
                            kind="counter",
                        ).append(now, count)
                        samples += 1
            elif isinstance(family, (Counter, Gauge)):
                kind = "counter" if family.kind == "counter" else "gauge"
                for labels, child in family.samples():
                    self.store.series(family.name, labels, kind=kind).append(
                        now, child.value
                    )
                    samples += 1
        return samples

    def _sample_analytics(self, now: float) -> int:
        samples = 0
        analytics = self.analytics
        if analytics is None:
            return 0
        for layer in analytics.layers():
            # One snapshot per layer: one lock entry and one sort serve
            # the four quantile gauges and the count, so a concurrent
            # writer cannot pair the count with later quantiles.
            summary = analytics.sketch(layer).summary()
            if summary["count"] == 0:
                continue
            for name in TAIL_QUANTILES:
                self.store.series(
                    QUANTILE_SERIES,
                    {"layer": layer, "quantile": name},
                    kind="gauge",
                ).append(now, summary[name])
                samples += 1
            self.store.series(
                "repro_latency_events_total", {"layer": layer},
                kind="counter",
            ).append(now, summary["count"])
            samples += 1
        return samples

    def _sample_process(self, now: float) -> int:
        if not self.sample_process:
            return 0
        from repro.observability.instruments import sample_process_resources

        values = sample_process_resources()
        for name, value in values.items():
            self.store.series(name).append(now, value)
        return len(values)

    # -- the tick -------------------------------------------------------------

    def tick(self) -> dict:
        """One full pipeline pass; returns a JSON-able tick summary."""
        from repro.observability.instruments import (
            record_telemetry_tick,
            set_telemetry_alert_states,
        )

        started = time.perf_counter()
        with self._lock:
            now = self.clock()
            samples = self._sample_process(now)
            samples += self._sample_registry(now)
            samples += self._sample_analytics(now)
            for rule in self.alert_rules:
                value = derive(self.store, *parse_expr(rule.expr))
                self._alert_status[rule.name].step(rule, value, now)
            state_counts = {state: 0 for state in ALERT_STATES}
            for status in self._alert_status.values():
                state_counts[status.state] += 1
            self.ticks += 1
            self.last_tick_at = now
            summary = {
                "at": now,
                "samples": samples,
                "series": len(self.store),
                "alerts": state_counts,
                "firing": sorted(
                    rule.name
                    for rule in self.alert_rules
                    if self._alert_status[rule.name].state == "firing"
                ),
            }
            if self._sink is not None:
                self._sink.write_record(
                    {"ts": now, "telemetry": self._export_tails(summary)}
                )
        eval_s = time.perf_counter() - started
        record_telemetry_tick(samples, eval_s)
        set_telemetry_alert_states(state_counts)
        summary["eval_seconds"] = eval_s
        return summary

    def _export_tails(self, summary: dict) -> dict:
        """The per-tick JSONL record: newest sample of every series plus
        the alert roll-up — diffable line by line, bounded per line."""
        tails = {}
        for key in self.store.keys():
            latest = self.store.get(key).latest()
            if latest is not None:
                tails[key] = latest[1]
        return {
            "samples": summary["samples"],
            "alerts": summary["alerts"],
            "firing": summary["firing"],
            "tails": tails,
        }

    # -- queries --------------------------------------------------------------

    def query(
        self,
        selector: str,
        window_s: float | None = None,
        fn: str | None = None,
    ) -> dict:
        """The ``GET /query`` payload: matching series with their points
        inside ``window_s`` (all retained points when omitted), plus each
        series' derived scalar when ``fn`` (value/rate/slope) is given,
        over ``window_s`` or, when omitted, one sampling interval."""
        compute = None if fn is None else _derive_fn(fn)
        matched = self.store.select(selector)
        now = self.clock()
        out = []
        for key in sorted(matched):
            series = matched[key]
            entry: dict = {
                "key": key,
                "kind": series.kind,
                "points": [
                    [t, v, w]
                    for t, v, w in series.window(window_s, now=now)
                ],
                "decimations": series.decimations,
                "total_samples": series.total_samples,
            }
            if compute is not None:
                # This series' own points: its key is never re-parsed as
                # a selector (a label value may hold "," or "}").
                entry["derived"] = {
                    "fn": fn,
                    "value": compute(
                        series.window(), window_s or self.interval_s
                    ),
                }
            out.append(entry)
        return {
            "selector": selector,
            "window_s": window_s,
            "at": now,
            "interval_s": self.interval_s,
            "series": out,
        }

    def alerts(self) -> dict:
        """The ``GET /alerts`` payload: every rule's full state."""
        rules = [
            self._alert_status[rule.name].to_dict(rule)
            for rule in self.alert_rules
        ]
        return {
            "at": self.clock(),
            "ticks": self.ticks,
            "rules": rules,
            "firing": sorted(
                r["name"] for r in rules if r["state"] == "firing"
            ),
        }

    def status(self) -> dict:
        """The `/stats` telemetry block."""
        counts = {state: 0 for state in ALERT_STATES}
        for status in self._alert_status.values():
            counts[status.state] += 1
        return {
            "ticks": self.ticks,
            "last_tick_at": self.last_tick_at,
            "interval_s": self.interval_s,
            "series": len(self.store),
            "alert_rules": len(self.alert_rules),
            "alerts": counts,
        }

    # -- wall-clock operation --------------------------------------------------

    def start(self) -> "TelemetryPipeline":
        """Tick from a daemon thread every ``interval_s`` (wall clock).

        Only for live serving; deterministic tests call :meth:`tick`."""
        if self._thread is not None:
            raise TelemetryError("telemetry pipeline already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.tick()
                except Exception:  # noqa: BLE001 - telemetry must not kill serving
                    pass

        self._thread = threading.Thread(
            target=loop, name="repro-telemetry", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the background thread (idempotent)."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "TelemetryPipeline":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# -- the fleet's slope verdict -------------------------------------------------


class SlopeVerdictSource:
    """Escalates the SLO verdict on a sustained positive p99 slope.

    The burn-rate verdict only trips once bad requests have *already*
    spent budget; the slope of the sampled end-to-end p99 moves first.
    :meth:`verdict` returns the SLO verdict unchanged whenever it is
    already burning; on an ``ok`` verdict it checks
    ``slope(p99, window_s)`` against ``slope_threshold`` and — after
    ``sustain`` consecutive breaching evaluations (hysteresis, one
    evaluation per autoscaler step) — escalates to ``slow_burn`` so the
    autoscaler grows *before* the budget burns.  Pure function of the
    sampled series and the call sequence: replaying the same trace gives
    identical verdicts (the acceptance test pins this).
    """

    def __init__(
        self,
        pipeline: TelemetryPipeline,
        series: str = f'{QUANTILE_SERIES}{{layer="e2e",quantile="p99"}}',
        window_s: float = 60.0,
        slope_threshold: float = 0.01,
        sustain: int = 3,
    ) -> None:
        if window_s <= 0:
            raise TelemetryError(f"window must be positive: {window_s}")
        if slope_threshold <= 0:
            raise TelemetryError(
                f"slope threshold must be positive: {slope_threshold}"
            )
        if sustain < 1:
            raise TelemetryError(f"sustain must be >= 1: {sustain}")
        parse_selector(series)
        self.pipeline = pipeline
        self.series = series
        self.window_s = float(window_s)
        self.slope_threshold = float(slope_threshold)
        self.sustain = int(sustain)
        self.streak = 0
        self.escalations = 0
        self.last_slope: float | None = None

    def verdict(self, slo_evaluation: dict) -> tuple[str, str]:
        """``(verdict, signal)`` for one autoscaler step."""
        base = slo_evaluation["verdict"]
        value = derive(
            self.pipeline.store, "slope", self.series, self.window_s
        )
        self.last_slope = value
        if value is not None and value > self.slope_threshold:
            self.streak += 1
        else:
            self.streak = 0
        if base != "ok":
            return base, "slo"
        if self.streak >= self.sustain:
            self.escalations += 1
            return (
                "slow_burn",
                f"p99_slope_s_per_s={value:.6g}>"
                f"{self.slope_threshold:g}x{self.streak}",
            )
        return base, "slo"

    def status(self) -> dict:
        return {
            "series": self.series,
            "window_s": self.window_s,
            "slope_threshold": self.slope_threshold,
            "sustain": self.sustain,
            "streak": self.streak,
            "escalations": self.escalations,
            "last_slope": self.last_slope,
        }
