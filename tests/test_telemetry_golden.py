"""Golden pin of the telemetry engine's observable behaviour.

A :class:`ManualClock` drives one :class:`TelemetryPipeline` through a
scripted end-to-end p99 trace (flat, rising, above the SLO target, a
flap, recovery) and two per-tenant request counters (one restarts).
Every tick records what the serving surfaces read back:

- the ``repro serve --telemetry`` default alerts' ``(state, value,
  transitions)``, as ``GET /alerts`` reports them;
- the :class:`SlopeVerdictSource` verdict the fleet autoscaler consumes;
- the ``GET /query`` derived ``value``/``rate``/``slope`` scalars.

``tests/data/telemetry_golden.json`` holds the result; a refactor of
``observability/timeseries.py`` must leave it passing unchanged.
Regenerate it only for an intended behaviour change with
``PYTHONPATH=src python -c "import tests.test_telemetry_golden as t;
t.write_golden()"`` (review the diff).
"""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

from repro.cli import _default_telemetry_rules
from repro.observability.slo import SLOPolicy
from repro.observability.timeseries import (
    QUANTILE_SERIES,
    SlopeVerdictSource,
    TelemetryPipeline,
)
from repro.runtime.supervisor import ManualClock

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "telemetry_golden.json"
)

P99_LABELS = {"layer": "e2e", "quantile": "p99"}
P99_SELECTOR = f'{QUANTILE_SERIES}{{layer="e2e",quantile="p99"}}'
COUNTER = "requests_total"

#: The scripted p99 (seconds), one sample per tick; the SLO target is 2 s.
P99_TRACE = (
    [0.5] * 12
    + [0.5 + 0.125 * i for i in range(1, 13)]
    + [3.0] * 8
    + [0.4, 0.4, 3.0, 0.4]
    + [0.4] * 16
)

#: Ticks on which the burn-rate verdict itself is already burning.
BURNING_TICKS = frozenset(range(32, 36))


def _counter_value(tenant: str, tick: int) -> float:
    """Cumulative requests; tenant ``b`` restarts at tick 30."""
    if tenant == "a":
        return 3.0 * tick
    return 5.0 * (tick if tick < 30 else tick - 30)


def run_trace() -> list[dict]:
    """Drive the scripted trace; one JSON-able record per tick."""
    clock = ManualClock()
    pipeline = TelemetryPipeline(
        clock=clock, interval_s=1.0, capacity=32, sample_process=False
    )
    stub_pool = SimpleNamespace(slo=SimpleNamespace(policy=SLOPolicy()))
    for rule in _default_telemetry_rules(stub_pool, pipeline.interval_s):
        pipeline.add_rule(rule)
    source = SlopeVerdictSource(
        pipeline, window_s=30.0, slope_threshold=0.01, sustain=2
    )
    store = pipeline.store
    records = []
    for tick, p99 in enumerate(P99_TRACE):
        now = clock()
        store.series(QUANTILE_SERIES, P99_LABELS).append(now, p99)
        for tenant in ("a", "b"):
            store.series(
                COUNTER, {"tenant": tenant, "status": "ok"}, kind="counter"
            ).append(now, _counter_value(tenant, tick))
        pipeline.tick()
        base = "fast_burn" if tick in BURNING_TICKS else "ok"
        verdict, signal = source.verdict({"verdict": base})
        query = {}
        for selector in (P99_SELECTOR, COUNTER):
            for fn in ("value", "rate", "slope"):
                for window in (None, 10.0):
                    payload = pipeline.query(selector, window_s=window, fn=fn)
                    query[f"{fn}|{selector}|{window}"] = [
                        [entry["key"], entry["derived"]["value"]]
                        for entry in payload["series"]
                    ]
        records.append({
            "t": now,
            "alerts": [
                [rule["name"], rule["state"], rule["value"],
                 rule["transitions"]]
                for rule in pipeline.alerts()["rules"]
            ],
            "verdict": [verdict, signal, source.streak, source.last_slope],
            "query": query,
        })
        clock.advance(1.0)
    return records


def write_golden() -> None:
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(run_trace(), handle, indent=1)
        handle.write("\n")


def test_telemetry_matches_the_golden_trace():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert run_trace() == golden


def test_the_trace_exercises_every_alert_state_and_an_escalation():
    """The golden is only a pin if the trace walks the whole machine."""
    records = run_trace()
    states = {
        state for record in records for _name, state, *_ in record["alerts"]
    }
    assert states == {"inactive", "pending", "firing", "resolved"}
    verdicts = {record["verdict"][0] for record in records}
    assert {"ok", "slow_burn", "fast_burn"} <= verdicts
