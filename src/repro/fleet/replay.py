"""Open-loop replay: seeded arrival traces against a live pool.

Closed-loop load (a client waiting for each result before sending the
next) hides saturation: the generator slows down with the system.  The
fleet's acceptance harness is therefore *open-loop* — arrivals come from
a pre-generated trace at fixed offered load, indifferent to how the pool
is coping, which is exactly the regime where an autoscaler earns its
keep.

:func:`generate_trace` draws Poisson arrivals at ``rate_rps`` with
periodic burst episodes (rate multiplied during the burst window) from a
seeded generator, so a trace is reproducible from ``(seed, parameters)``
alone.  Each event carries its arrival offset, tenant, workload and
relax rung.

:func:`replay` drives a trace through a live pool while stepping an
optional autoscaler on a fixed decision cadence.  Verdicts can come from
the pool's own SLO evaluator (organic mode) or from the trace phase
(``phase_verdicts=True``: burst windows report ``slow_burn``, quiet
windows report headroom ``ok``) — the latter keeps benchmark scale
events deterministic while still exercising the full decide/act/resize
path live, under chaos, mid-traffic.  The report counts every
acknowledged id to its terminal result; ``lost`` must be zero — the
loss-free half of the live-resize contract.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import FleetError, ReproError
from repro.units import MIB

__all__ = ["ArrivalEvent", "generate_trace", "replay"]

#: Outstanding acknowledged ids above which :func:`replay` harvests the
#: oldest half.
_HARVEST_WATERMARK = 1024


@dataclass(frozen=True)
class ArrivalEvent:
    """One open-loop arrival: when, who, and what to price."""

    at_s: float
    tenant: str
    workload: str
    relax_bits: int
    dataset_bytes: int
    #: True while the trace is inside a burst episode (the phase signal
    #: ``phase_verdicts`` replays feed the autoscaler).
    burst: bool


def generate_trace(
    rate_rps: float = 200.0,
    duration_s: float = 10.0,
    seed: int = 2017,
    burst_every_s: float = 3.0,
    burst_len_s: float = 1.0,
    burst_multiplier: float = 4.0,
    tenants: dict[str, int] | None = None,
    workloads: tuple[str, ...] = ("Sobel",),
    relax_bits: tuple[int, ...] = (0,),
    dataset_bytes: float = 4 * MIB,
) -> list[ArrivalEvent]:
    """A seeded Poisson-plus-bursts arrival trace.

    ``tenants`` maps tenant name to a relative weight (uniform when
    omitted).  Arrivals are exponential inter-arrival draws at
    ``rate_rps`` (times ``burst_multiplier`` inside burst windows, which
    open every ``burst_every_s`` for ``burst_len_s``).  Deterministic in
    its arguments.
    """
    if rate_rps <= 0 or duration_s <= 0:
        raise FleetError("rate_rps and duration_s must be positive")
    if burst_multiplier < 1.0:
        raise FleetError("burst_multiplier must be >= 1")
    tenants = tenants or {"default": 1}
    names = sorted(tenants)
    weights = np.array([tenants[n] for n in names], dtype=float)
    weights /= weights.sum()
    rng = np.random.default_rng(seed)
    events: list[ArrivalEvent] = []
    now = 0.0
    while True:
        in_burst = (
            burst_every_s > 0
            and (now % burst_every_s) < burst_len_s
        )
        rate = rate_rps * (burst_multiplier if in_burst else 1.0)
        now += float(rng.exponential(1.0 / rate))
        if now >= duration_s:
            break
        events.append(
            ArrivalEvent(
                at_s=now,
                tenant=names[int(rng.choice(len(names), p=weights))],
                workload=workloads[int(rng.integers(len(workloads)))],
                relax_bits=int(
                    relax_bits[int(rng.integers(len(relax_bits)))]
                ),
                dataset_bytes=int(dataset_bytes),
                burst=bool(in_burst),
            )
        )
    return events


def replay(
    pool,
    trace: list[ArrivalEvent],
    autoscaler=None,
    decide_every: int = 50,
    phase_verdicts: bool = False,
    headroom_run_s: float = 0.0,
    on_result=None,
) -> dict:
    """Drive a trace through a live pool, resizing as it goes.

    Arrivals are submitted in trace order at full speed (offered load is
    the trace's property; the pool's clock does not gate submission).
    Every ``decide_every`` arrivals the autoscaler steps once — fed the
    trace-phase verdict when ``phase_verdicts`` is set, the pool's own
    SLO verdict otherwise.  ``headroom_run_s`` appends that many seconds
    of post-trace ``ok`` decisions so scale-downs after the storm are
    part of the exercised path.

    Acknowledged ids are harvested *streamingly* — whenever more than
    :data:`_HARVEST_WATERMARK` are outstanding, the oldest are waited to their
    terminal results and tallied (``on_result(id, result)`` sees each
    one) — so a trace far longer than the pool's result-store capacity
    replays without ever outrunning it.  The report's ``lost`` counts
    acknowledged ids that never reached a terminal result and MUST be
    zero; an id whose result was evicted *after* completing terminally
    counts under ``statuses["evicted_after_completion"]``, not lost.
    """
    outstanding: deque[str] = deque()
    statuses: dict[str, int] = {}
    acknowledged = 0
    rejected = 0
    submit_errors = 0
    lost = 0
    decisions: list[dict] = []

    def harvest(down_to: int) -> None:
        nonlocal lost
        while len(outstanding) > down_to:
            request_id = outstanding.popleft()
            try:
                result = pool.result(request_id, timeout=120.0)
            except ReproError as exc:
                if "evicted" in str(exc):
                    # Only terminal results are ever evicted: the
                    # request completed, we were just slow to read it.
                    statuses["evicted_after_completion"] = (
                        statuses.get("evicted_after_completion", 0) + 1
                    )
                else:
                    lost += 1
                continue
            statuses[result.status] = statuses.get(result.status, 0) + 1
            if on_result is not None:
                on_result(request_id, result)

    def step(verdict=None):
        if autoscaler is None:
            return
        decisions.append(autoscaler.step(verdict=verdict))

    for position, event in enumerate(trace):
        if autoscaler is not None and position % decide_every == 0:
            if phase_verdicts:
                step("slow_burn" if event.burst else "ok")
            else:
                step()
        try:
            request_id = pool.submit(
                event.workload,
                relax_bits=event.relax_bits,
                dataset_bytes=event.dataset_bytes,
                tenant=event.tenant,
                block=True,
            )
        except ReproError:
            # Backpressure / shed / draining: refused before any
            # acknowledgement, so nothing to lose.  Open-loop load does
            # not retry.
            rejected += 1
            continue
        except Exception:
            submit_errors += 1
            continue
        acknowledged += 1
        outstanding.append(request_id)
        if len(outstanding) > _HARVEST_WATERMARK:
            harvest(_HARVEST_WATERMARK // 2)
    if autoscaler is not None and headroom_run_s > 0:
        # The storm has passed: replay enough quiet verdicts for the
        # shrink path (hysteresis + cooldown both on the pool's clock).
        clock = autoscaler.clock
        deadline = clock() + headroom_run_s
        last = clock()
        while True:
            step("ok")
            pool.wait_drained(timeout=0.5)
            now = clock()
            if now >= deadline or now <= last:
                break  # done — or a manual clock nobody is advancing
            last = now
    harvest(0)
    e2e = pool.latency.sketch("e2e")
    return {
        "arrivals": len(trace),
        "acknowledged": acknowledged,
        "rejected": rejected,
        "submit_errors": submit_errors,
        "lost": lost,
        "statuses": statuses,
        "p999_s": e2e.quantile(0.999) if e2e.count else None,
        "decisions": decisions,
        "scale_ups": 0 if autoscaler is None else autoscaler.scale_ups,
        "scale_downs": 0 if autoscaler is None else autoscaler.scale_downs,
        "sheds": 0 if autoscaler is None else autoscaler.sheds,
        "final_shards": pool.shard_count,
    }
