"""Observability overhead: instrumentation must cost <5% (not a paper artifact).

The observability subsystem exists so later performance PRs can *measure*
their wins; that only works if the measuring layer itself is close to
free.  This bench executes the same workload
:mod:`bench_simulator_performance` uses for its end-to-end throughput
number (Sobel at 4096 elements) through the fully instrumented
:class:`~repro.runtime.executor.APIMExecutor`, once with observability
enabled and once disabled, and asserts the enabled arm is within 5% of
the disabled arm.  The measured pair is emitted as
``BENCH_observability.json`` so CI archives the overhead trajectory
alongside the perf benches.

A tile execution is mostly simulator arithmetic, so that gate cannot see
what instrumentation costs a *served* request.  A report-only serving
arm times a warm inline closed loop (every call a tile-cache hit) with
observability enabled and disabled, and records the difference as
``serving_overhead_fraction``; it asserts nothing yet.
"""

from __future__ import annotations

import json
import time

import numpy as np

from repro import observability
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore, use_trace
from repro.runtime.executor import APIMExecutor
from repro.workloads import workload_by_name

WORKLOAD = "Sobel"
ELEMENTS = 1 << 12
REPEATS = 5
ARTIFACT = "BENCH_observability.json"
#: Acceptance ceiling on (enabled - disabled) / disabled.
MAX_OVERHEAD = 0.05


def _run_once(executor: APIMExecutor, workload, data) -> float:
    start = time.perf_counter()
    executor.run(workload, data=data)
    return time.perf_counter() - start


def _measure_arms() -> dict[str, float]:
    """Best-of-N wall time for each arm, rounds interleaved across arms.

    Best-of is the right statistic for an overhead bound: scheduler noise
    only ever adds time, so the minimum is the cleanest view of the code
    path's true cost.  The arms are interleaved within each round (rather
    than measured back-to-back per arm) so slow drift in machine speed —
    thermal throttling, background load — lands on all three equally
    instead of masquerading as overhead in whichever arm ran last.

    Arms: ``disabled`` (observability off), ``enabled`` (metrics +
    timed events), ``traced`` (metrics + timed events + an ambient
    per-request trace, a fresh context per run as the serving pool
    creates one).
    """
    workload = workload_by_name(WORKLOAD)
    data = workload.generate(ELEMENTS, np.random.default_rng(5))
    executor = APIMExecutor()
    store = TraceStore(id_prefix="bench")

    def run_arm(arm: str) -> float:
        if arm == "disabled":
            observability.disable()
            try:
                return _run_once(executor, workload, data)
            finally:
                observability.enable()
        previous = set_default_registry(MetricsRegistry())
        try:
            if arm == "traced":
                with use_trace(store.new_trace(workload=WORKLOAD)):
                    return _run_once(executor, workload, data)
            return _run_once(executor, workload, data)
        finally:
            set_default_registry(previous)

    observability.enable()
    arms = ("disabled", "enabled", "traced")
    for arm in arms:
        run_arm(arm)  # warm-up: caches, allocators
    best = {arm: float("inf") for arm in arms}
    for _ in range(REPEATS):
        for arm in arms:
            best[arm] = min(best[arm], run_arm(arm))
    return best


def test_instrumentation_overhead_under_five_percent(benchmark, bench_rounds):
    """The tentpole guarantee: metrics + timed events cost <5% on the
    end-to-end workload execution path."""
    arms = benchmark.pedantic(
        _measure_arms, rounds=bench_rounds, iterations=1
    )
    disabled_s = arms["disabled"]
    enabled_s = arms["enabled"]
    traced_s = arms["traced"]
    overhead = (enabled_s - disabled_s) / disabled_s
    traced_overhead = (traced_s - disabled_s) / disabled_s
    payload = {
        "workload": WORKLOAD,
        "elements": ELEMENTS,
        "repeats": REPEATS,
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "traced_s": traced_s,
        "overhead_fraction": overhead,
        "traced_overhead_fraction": traced_overhead,
        "ceiling_fraction": MAX_OVERHEAD,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print()
    print(f"observability overhead on {WORKLOAD}/{ELEMENTS}: "
          f"disabled {disabled_s * 1e3:.2f} ms, "
          f"enabled {enabled_s * 1e3:.2f} ms, "
          f"traced {traced_s * 1e3:.2f} ms, "
          f"overhead {overhead * 100:+.2f}%, "
          f"traced {traced_overhead * 100:+.2f}% "
          f"(ceiling {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"instrumentation overhead {overhead * 100:.2f}% exceeds the "
        f"{MAX_OVERHEAD * 100:.0f}% ceiling"
    )
    assert traced_overhead < MAX_OVERHEAD, (
        f"tracing-enabled overhead {traced_overhead * 100:.2f}% exceeds "
        f"the {MAX_OVERHEAD * 100:.0f}% ceiling"
    )


#: Warm keys of the serving arm's closed loop, and calls per round.
SERVING_KEYS = tuple(
    (name, relax) for name in ("Sobel", "Robert", "FFT") for relax in (0, 8, 16)
)
SERVING_CALLS = 1000


def _measure_serving() -> dict[str, float]:
    """The p10 warm call through an inline pool, per arm.

    The pool is warmed first (every key priced on both shards, so every
    timed call is a tile-cache hit), then rounds of :data:`SERVING_CALLS`
    calls alternate between the ``enabled`` arm (one private registry,
    its series created by the warm-up) and the ``disabled`` arm.  Traces
    are recorded in both: only metrics switch.  Each call is timed on its
    own and an arm reports its 10th percentile: on a host whose speed
    flips between modes the fast decile is the uncontended cost, where a
    mean would move with the share of slow phases an arm happened to hit.
    """
    from repro.serving import Client, CrossbarPool

    pool = CrossbarPool(shards=2, tile_elements=1 << 9, runtime="inline")
    client = Client(pool, tenant="bench")
    registry = MetricsRegistry()
    calls = {"disabled": [], "enabled": []}

    def loop(arm: str) -> None:
        timed = calls[arm]
        for index in range(SERVING_CALLS):
            name, relax = SERVING_KEYS[index % len(SERVING_KEYS)]
            start = time.perf_counter()
            client.call(name, relax_bits=relax)
            timed.append(time.perf_counter() - start)

    def run_arm(arm: str) -> None:
        if arm == "disabled":
            observability.disable()
            try:
                loop(arm)
            finally:
                observability.enable()
            return
        previous = set_default_registry(registry)
        try:
            loop(arm)
        finally:
            set_default_registry(previous)

    with pool:
        for arm in calls:
            run_arm(arm)  # warm-up: both shards price every key
            calls[arm].clear()
        for _ in range(REPEATS):
            for arm in calls:
                run_arm(arm)
    return {
        arm: sorted(timed)[len(timed) // 10] for arm, timed in calls.items()
    }


def test_serving_overhead_report():
    """Report what metrics cost a warm served call (no bound yet)."""
    arms = _measure_serving()
    disabled_s, enabled_s = arms["disabled"], arms["enabled"]
    overhead = (enabled_s - disabled_s) / disabled_s
    try:
        with open(ARTIFACT, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {}
    payload["serving_calls_per_arm"] = SERVING_CALLS * REPEATS
    payload["serving_disabled_call_s"] = disabled_s
    payload["serving_enabled_call_s"] = enabled_s
    payload["serving_overhead_fraction"] = overhead
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print()
    print(f"serving overhead, warm inline call p10: "
          f"disabled {disabled_s * 1e6:.1f} us, "
          f"enabled {enabled_s * 1e6:.1f} us, "
          f"overhead {overhead * 100:+.2f}% (report only)")


def _measure_telemetry_tick() -> dict[str, float]:
    """Best-of-N cost of one full telemetry tick on a populated process.

    The pipeline samples a registry shaped like a busy serving pool
    (per-tenant/status request counters, per-shard counters, latency
    histograms), three sketch layers, and evaluates a recording rule
    plus two alert rules — the same work ``repro serve --telemetry``
    does once per cadence interval.
    """
    from repro.observability.sketch import LatencyAnalytics
    from repro.observability.timeseries import (
        QUANTILE_SERIES,
        AlertRule,
        RecordingRule,
        TelemetryPipeline,
    )

    registry = MetricsRegistry()
    requests = registry.counter(
        "bench_requests_total", labelnames=("tenant", "status")
    )
    shards = registry.counter(
        "bench_shard_requests_total", labelnames=("shard",)
    )
    latency_hist = registry.histogram(
        "bench_latency_seconds", labelnames=("layer",)
    )
    analytics = LatencyAnalytics()
    rng = np.random.default_rng(7)
    for tenant in (f"tenant{i}" for i in range(8)):
        for status in ("ok", "failed"):
            requests.labels(tenant=tenant, status=status).inc(100)
    for shard in range(4):
        shards.labels(shard=str(shard)).inc(1000)
    for layer in ("queue", "execute", "e2e"):
        for value in rng.uniform(0.001, 0.5, size=500):
            latency_hist.labels(layer=layer).observe(value)
            analytics.observe(layer, float(value))

    p99 = f'{QUANTILE_SERIES}{{layer="e2e",quantile="p99"}}'
    pipeline = TelemetryPipeline(
        registry=registry, analytics=analytics, interval_s=1.0
    )
    pipeline.add_rule(RecordingRule("p99_slope_s_per_s", f"slope({p99}, 60)"))
    pipeline.add_rule(
        AlertRule("p99_high", f"value({p99})", threshold=2.0, for_s=2.0)
    )
    pipeline.add_rule(
        AlertRule(
            "p99_rising", f"slope({p99}, 60)", threshold=0.01, for_s=3.0
        )
    )
    for _ in range(10):  # warm-up: series creation, buffer fill
        pipeline.tick()
    best = float("inf")
    for _ in range(REPEATS * 4):
        start = time.perf_counter()
        summary = pipeline.tick()
        best = min(best, time.perf_counter() - start)
    return {"tick_s": best, "samples_per_tick": summary["samples"]}


def test_telemetry_tick_overhead_under_five_percent():
    """The sampler + rule engine must stay <5% of a 1 s cadence — the
    streaming-telemetry pipeline rides the same overhead budget the
    instrumentation does."""
    measured = _measure_telemetry_tick()
    tick_s = measured["tick_s"]
    overhead = tick_s / 1.0  # fraction of the default 1 s cadence
    try:
        with open(ARTIFACT, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        payload = {}
    payload["telemetry_tick_s"] = tick_s
    payload["telemetry_samples_per_tick"] = measured["samples_per_tick"]
    payload["telemetry_cadence_s"] = 1.0
    payload["telemetry_overhead_fraction"] = overhead
    payload["telemetry_ceiling_fraction"] = MAX_OVERHEAD
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print()
    print(f"telemetry tick: {tick_s * 1e3:.2f} ms for "
          f"{measured['samples_per_tick']} samples, "
          f"{overhead * 100:.2f}% of a 1 s cadence "
          f"(ceiling {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"telemetry tick {tick_s * 1e3:.2f} ms is "
        f"{overhead * 100:.2f}% of the 1 s cadence, over the "
        f"{MAX_OVERHEAD * 100:.0f}% ceiling"
    )


def test_disabled_path_records_nothing():
    """With observability off, a run must leave the registry untouched."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    observability.disable()
    try:
        workload = workload_by_name(WORKLOAD)
        data = workload.generate(256, np.random.default_rng(0))
        APIMExecutor().run(workload, data=data)
    finally:
        observability.enable()
        set_default_registry(previous)
    assert registry.families() == ()
