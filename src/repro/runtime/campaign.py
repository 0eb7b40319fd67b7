"""Experiment campaigns: grids of (workload x approximation) runs.

The benches regenerate the paper's fixed artifacts; a *campaign* is the
general tool — sweep any workload set against any relax-bit ladder at any
dataset size, collect quality/cost/comparison metrics per point, and
export the grid for plotting.  Used by the CLI's ``campaign`` command and
by downstream studies that outgrow Table 1's exact shape.

Campaigns are *supervised* on request: pass a
:class:`~repro.runtime.supervisor.Supervisor` and each point runs under
retry/backoff/deadline/circuit-breaker policy, and a point that still
cannot complete is **degraded instead of lost** —

1. walk the relax-bit rungs above the requested level
   (:meth:`~repro.quality.qos.QoSPolicy.degradation_rungs`): cheaper,
   faster, lower quality → status ``degraded``;
2. failing that, price the point on the host-CPU baseline
   (:meth:`~repro.runtime.comparison.ComparisonHarness.cpu_fallback`)
   → status ``fallback``;
3. only if even that raises does the point record ``failed`` (with NaN
   metrics) — it is never silently missing from the grid.

With ``checkpoint=`` the grid journals progress through a write-ahead
JSONL log (:mod:`repro.runtime.checkpoint`); ``resume=True`` skips points
the journal proves complete, so a SIGKILL'd campaign re-executes only
unfinished work.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig
from repro.errors import CircuitOpenError, ConfigurationError, ReproError
from repro.observability.instruments import record_campaign_point
from repro.observability.tracing import current_trace, timed_event, use_trace
from repro.quality.qos import QoSPolicy
from repro.runtime.checkpoint import CheckpointJournal, load_journal
from repro.runtime.comparison import ComparisonHarness
from repro.units import GIB
from repro.workloads import workload_by_name
from repro.workloads.base import Workload

if TYPE_CHECKING:
    from repro.runtime.chaos import ChaosInjector
    from repro.runtime.supervisor import Supervisor

__all__ = [
    "CampaignPoint",
    "CampaignResult",
    "TERMINAL_STATUSES",
    "memo_hit",
    "point_key",
    "run_campaign",
    "run_point",
]

#: Every grid point ends in exactly one of these.
TERMINAL_STATUSES = ("ok", "retried", "degraded", "fallback", "failed")


def point_key(workload: str, relax_bits: int, dataset_bytes: int) -> str:
    """The stable journal/breaker identity of one grid point."""
    return f"{workload}/m{relax_bits}/{int(dataset_bytes)}B"


@dataclass(frozen=True, slots=True)
class CampaignPoint:
    """One (workload, relax-bits, dataset-size) measurement."""

    workload: str
    relax_bits: int
    dataset_bytes: int
    qol_percent: float
    qos_ok: bool
    speedup: float
    energy_improvement: float
    edp_improvement: float
    apim_time_s: float
    apim_energy_j: float
    #: Terminal supervision outcome (one of :data:`TERMINAL_STATUSES`).
    status: str = "ok"
    #: Executor/harness invocations this point consumed (retries and
    #: degradation rungs included).
    attempts: int = 1
    #: Relax bits actually executed (differs from ``relax_bits`` when the
    #: point was degraded up the ladder; NaN-like -1 when ``fallback`` /
    #: ``failed`` skipped the accelerator entirely).
    effective_relax_bits: int = -1

    def __post_init__(self) -> None:
        if self.status not in TERMINAL_STATUSES:
            raise ConfigurationError(
                f"status {self.status!r} not in {TERMINAL_STATUSES}"
            )

    @property
    def key(self) -> str:
        return point_key(self.workload, self.relax_bits, self.dataset_bytes)


@dataclass(frozen=True)
class CampaignResult:
    """A complete campaign grid."""

    points: tuple[CampaignPoint, ...]

    def status_counts(self) -> dict[str, int]:
        """How many points ended in each terminal status."""
        counts = {status: 0 for status in TERMINAL_STATUSES}
        for point in self.points:
            counts[point.status] += 1
        return counts

    @property
    def completion_yield(self) -> float:
        """Fraction of points that produced a usable measurement."""
        if not self.points:
            return 0.0
        lost = sum(1 for p in self.points if p.status == "failed")
        return 1.0 - lost / len(self.points)

    def to_rows(self) -> tuple[list[str], list[list]]:
        """Flat table for :func:`repro.analysis.export.to_csv`."""
        header = [
            "workload", "relax_bits", "dataset_bytes", "qol_percent",
            "qos_ok", "speedup", "energy_improvement", "edp_improvement",
            "apim_time_s", "apim_energy_J", "status", "attempts",
            "effective_relax_bits",
        ]
        rows = [
            [p.workload, p.relax_bits, p.dataset_bytes, p.qol_percent,
             p.qos_ok, p.speedup, p.energy_improvement, p.edp_improvement,
             p.apim_time_s, p.apim_energy_j, p.status, p.attempts,
             p.effective_relax_bits]
            for p in self.points
        ]
        return header, rows

    def to_csv(self) -> str:
        """The grid as CSV text."""
        from repro.analysis.export import to_csv  # deferred: avoids a cycle

        return to_csv(self.to_rows())


def _point_from_comparison(
    comparison,
    relax_bits: int,
    status: str,
    attempts: int,
    effective_relax_bits: int,
) -> CampaignPoint:
    return CampaignPoint(
        workload=comparison.workload,
        relax_bits=relax_bits,
        dataset_bytes=comparison.dataset_bytes,
        qol_percent=comparison.qol_percent,
        qos_ok=comparison.qos_ok,
        speedup=comparison.speedup,
        energy_improvement=comparison.energy_improvement,
        edp_improvement=comparison.edp_improvement,
        apim_time_s=comparison.apim_time,
        apim_energy_j=comparison.apim_energy,
        status=status,
        attempts=attempts,
        effective_relax_bits=effective_relax_bits,
    )


def _failed_point(
    workload: str, relax_bits: int, dataset_bytes: int, attempts: int
) -> CampaignPoint:
    nan = math.nan
    return CampaignPoint(
        workload=workload,
        relax_bits=relax_bits,
        dataset_bytes=dataset_bytes,
        qol_percent=nan,
        qos_ok=False,
        speedup=nan,
        energy_improvement=nan,
        edp_improvement=nan,
        apim_time_s=nan,
        apim_energy_j=nan,
        status="failed",
        attempts=attempts,
    )


def run_point(
    workload: Workload,
    level: int,
    dataset_bytes: float,
    harness,
    supervisor: "Supervisor | None" = None,
    chaos: "ChaosInjector | None" = None,
    key_prefix: str = "",
    trace=None,
) -> CampaignPoint:
    """One grid point, end to end: supervise, degrade, fall back.

    The campaign's unit of work, exposed so other executors — notably the
    serving layer's :class:`~repro.serving.pool.CrossbarPool` shards — run
    points under the identical terminal-status contract: every call
    returns a :class:`CampaignPoint` in one of :data:`TERMINAL_STATUSES`,
    never raises a lost point.  ``key_prefix`` namespaces the supervision
    key (retry jitter, breaker state) per caller, e.g. per shard.

    ``trace`` (any sink with ``.event(...)``: a request's
    :class:`~repro.observability.tracing.TraceContext`, a worker buffer or
    a Chrome trace writer) is installed as the thread's ambient context
    for the whole rescue ladder, so supervisor attempts, executor runs and
    controller commands land on the owning timeline; degradation rungs
    and fallback transitions are recorded explicitly.

    A point priced clean on its first supervised attempt builds no
    closure: the supervisor calls a module function with the point's
    arguments.  Only the rescue ladder builds a QoS policy, and walks its
    default degradation rungs.

    A point already in the harness's priced memo skips the ladder
    (:func:`memo_hit`): it neither counts a supervisor attempt nor
    consults the breaker.
    """
    point = memo_hit(workload, level, dataset_bytes, harness, chaos, trace)
    if point is not None:
        return point
    with use_trace(trace):
        key = key_prefix + point_key(workload.name, level, int(dataset_bytes))
        fn, args = _pricing(harness, workload, dataset_bytes, level, chaos, key)
        if supervisor is None:
            # Classic fail-fast path: no supervision requested, exceptions
            # propagate to the caller unchanged.
            return _point_from_comparison(fn(*args), level, "ok", 1, level)
        # Every attempt counts, chaos-faulted ones included; the
        # supervisor's running count covers runs that raised.
        before = supervisor.attempts
        try:
            comparison, report = supervisor.supervise(key, fn, *args)
            return _point_from_comparison(
                comparison, level, report.status, report.attempts, level
            )
        except CircuitOpenError:
            # The breaker says this (workload, config) is sick: skip the
            # ladder (more of the same engine) and go straight to fallback.
            _ladder_event(
                trace, "breaker_open", "skipping degradation ladder", key=key
            )
        except ReproError as exc:
            # Retries/deadline exhausted: degrade up the relax ladder.  Each
            # rung gets its own supervised budget under a distinct key so
            # the original point's breaker state does not doom the rescue.
            _ladder_event(
                trace, "rescue", f"{type(exc).__name__}: {exc}",
                requested_m=level,
            )
            for rung in QoSPolicy().degradation_rungs(level):
                try:
                    _ladder_event(trace, "degrade_rung", rung_m=rung)
                    fn, args = _pricing(
                        harness, workload, dataset_bytes, rung, chaos, key
                    )
                    comparison, _ = supervisor.supervise(
                        f"{key}/degrade-m{rung}", fn, *args
                    )
                    return _point_from_comparison(
                        comparison, level, "degraded",
                        supervisor.attempts - before, rung,
                    )
                except ReproError:
                    continue

        # Last resort: complete the point exactly on the host CPU baseline.
        # Chaos does not apply here — the fallback is the real host, not
        # the simulated accelerator.
        calls = supervisor.attempts - before + 1
        try:
            _ladder_event(trace, "cpu_fallback")
            comparison = harness.cpu_fallback(workload, dataset_bytes)
            return _point_from_comparison(
                comparison, level, "fallback", calls, -1
            )
        except ReproError:
            _ladder_event(
                trace, "failed", "cpu fallback raised; point recorded as failed"
            )
            return _failed_point(
                workload.name, level, int(dataset_bytes), calls
            )


def memo_hit(
    workload: Workload,
    level: int,
    dataset_bytes: float,
    harness,
    chaos=None,
    trace=None,
) -> CampaignPoint | None:
    """The priced memo's point for one grid point, or None on a miss.

    The one hit check: :func:`run_point` calls it before its ladder, and
    the serving pool's commit step calls it to answer a request at
    admission.  Without a ``chaos`` injector (chaos turns hits off: it
    faults a call before it reaches the harness), a point already in the
    harness's priced memo needs no ladder: pricing is deterministic and a
    raising tile stays raising, so a priced key is one whose first
    supervised attempt is clean.  A hit records one ``campaign`` ``hit``
    event (the warm tag) on ``trace`` and returns the entry's one shared
    ``ok`` point.  A negative level is a miss, left to the ladder, which
    raises it inside supervision like any other bad level.
    """
    if chaos is not None or level < 0:
        return None
    entry = harness.priced(workload, dataset_bytes, _relax_spec(level))
    if entry is None:
        return None
    point = entry.point
    if point is None:
        # Racing first hits build equal points; either one stays.
        point = entry.point = _point_from_comparison(
            entry.comparison, level, "ok", 1, level
        )
    if trace is not None:
        trace.event("campaign", "hit")
    return point


@lru_cache(maxsize=64)
def _relax_spec(relax: int) -> ApproxSpec:
    return ApproxSpec.last_stage(relax) if relax else EXACT


def _price_at(harness, workload, dataset_bytes, relax: int):
    """One priced attempt at ``relax`` (a bad level raises in here, inside
    supervision, like any other failed attempt)."""
    return harness.compare(workload, dataset_bytes, _relax_spec(relax))


def _pricing(harness, workload, dataset_bytes, relax, chaos, key):
    """``(fn, args)`` of one priced attempt at ``relax``: the plain call,
    or a chaos-wrapped one drawing on the point's key."""
    args = (harness, workload, dataset_bytes, relax)
    if chaos is None:
        return _price_at, args
    return chaos.wrap(key, lambda: _price_at(*args)), ()


def _ladder_event(trace, kind: str, detail: str = "", **attrs) -> None:
    """Record a rescue-ladder transition on the point's own trace."""
    if trace is not None:
        trace.event("campaign", kind, detail, **attrs)


def run_campaign(
    workloads: list[Workload | str],
    relax_levels: list[int],
    dataset_bytes: float = GIB,
    config: APIMConfig | None = None,
    tile_elements: int = 1 << 12,
    supervisor: "Supervisor | None" = None,
    checkpoint: str | None = None,
    resume: bool = False,
    chaos: "ChaosInjector | None" = None,
    seed: int = 2017,
    harness: ComparisonHarness | None = None,
) -> CampaignResult:
    """Run the full (workload x relax-bits) grid at one dataset size.

    Without ``supervisor`` this is the classic fail-fast sweep.  With one,
    every point is retried/deadlined/breakered and ends in a terminal
    status (see the module docstring) — never silently missing.

    ``checkpoint`` names a JSONL journal; ``resume=True`` loads it first
    (recovering any torn tail) and re-executes only points without a
    terminal record.  ``seed`` feeds the harness's input generation so a
    resumed or replayed campaign prices identical data.
    """
    if not workloads:
        raise ConfigurationError("campaign needs at least one workload")
    if not relax_levels:
        raise ConfigurationError("campaign needs at least one relax level")
    if any(level < 0 for level in relax_levels):
        raise ConfigurationError("relax levels must be non-negative")
    if resume and checkpoint is None:
        raise ConfigurationError("resume=True needs a checkpoint path")
    resolved = [
        workload_by_name(w) if isinstance(w, str) else w for w in workloads
    ]
    harness = harness or ComparisonHarness(
        config=config, tile_elements=tile_elements, rng_seed=seed
    )

    completed: dict[str, CampaignPoint] = {}
    journal: CheckpointJournal | None = None
    if checkpoint is not None:
        if resume:
            state = load_journal(checkpoint)
            for key, payload in state.completed.items():
                try:
                    completed[key] = CampaignPoint(**payload)
                except (TypeError, ReproError):
                    # Foreign/older payload shape: re-run the point rather
                    # than trust a record we cannot reconstruct.
                    continue
        journal = CheckpointJournal(checkpoint, resume=resume)
        journal.describe(
            {
                "workloads": [w.name for w in resolved],
                "relax_levels": list(relax_levels),
                "dataset_bytes": int(dataset_bytes),
                "seed": seed,
            }
        )

    points: list[CampaignPoint] = []
    try:
        for workload in resolved:
            for level in relax_levels:
                key = point_key(workload.name, level, int(dataset_bytes))
                if key in completed:
                    point = completed[key]
                    record_campaign_point(point.status, resumed=True)
                    points.append(point)
                    continue
                if journal is not None:
                    journal.begin(key)
                with timed_event("campaign", "point", key=key):
                    point = run_point(
                        workload, level, dataset_bytes, harness, supervisor,
                        chaos, trace=current_trace(),
                    )
                record_campaign_point(point.status)
                if journal is not None:
                    journal.complete(key, dataclasses.asdict(point))
                points.append(point)
    finally:
        if journal is not None:
            journal.close()
    return CampaignResult(points=tuple(points))
