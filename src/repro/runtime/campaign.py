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
    from repro.serving.pool import CrossbarPool

__all__ = [
    "CampaignPoint",
    "CampaignResult",
    "TERMINAL_STATUSES",
    "point_key",
    "run_campaign",
    "run_point",
]

#: Every grid point ends in exactly one of these.
TERMINAL_STATUSES = ("ok", "retried", "degraded", "fallback", "failed")


def point_key(workload: str, relax_bits: int, dataset_bytes: int) -> str:
    """The stable journal/breaker identity of one grid point."""
    return f"{workload}/m{relax_bits}/{int(dataset_bytes)}B"


@dataclass(frozen=True)
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

    def best_within_qos(self, workload: str) -> CampaignPoint:
        """The highest-EDP-improvement point of a workload that meets QoS."""
        eligible = [
            p for p in self.points if p.workload == workload and p.qos_ok
        ]
        if not eligible:
            raise ConfigurationError(
                f"no QoS-meeting campaign point for {workload!r}"
            )
        return max(eligible, key=lambda p: p.edp_improvement)

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
        """Flat table for :func:`repro.analysis.export.to_csv`/``to_json``."""
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
    qos: QoSPolicy | None = None,
    max_relax_bits: int = 32,
    degradation_step: int = 4,
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
    """
    with use_trace(trace):
        return _run_point_traced(
            workload, level, dataset_bytes, harness, supervisor, chaos,
            qos, max_relax_bits, degradation_step, key_prefix, trace,
        )


def _run_point_traced(
    workload: Workload,
    level: int,
    dataset_bytes: float,
    harness,
    supervisor: "Supervisor | None",
    chaos: "ChaosInjector | None",
    qos: QoSPolicy | None,
    max_relax_bits: int,
    degradation_step: int,
    key_prefix: str,
    trace,
) -> CampaignPoint:
    qos = qos or QoSPolicy()
    key = key_prefix + point_key(workload.name, level, int(dataset_bytes))
    calls = 0

    def tevent(kind: str, detail: str = "", **attrs) -> None:
        if trace is not None:
            trace.event("campaign", kind, detail, **attrs)

    def priced(relax: int):
        def call():
            spec = ApproxSpec.last_stage(relax) if relax else EXACT
            return harness.compare(workload, dataset_bytes, spec)

        inner = chaos.wrap(key, call) if chaos is not None else call

        def counted():  # count every attempt, chaos-faulted ones included
            nonlocal calls
            calls += 1
            return inner()

        return counted

    if supervisor is None:
        # Classic fail-fast path: no supervision requested, exceptions
        # propagate to the caller unchanged.
        comparison = priced(level)()
        return _point_from_comparison(
            comparison, level, "ok", calls, effective_relax_bits=level
        )

    try:
        comparison, report = supervisor.supervise(key, priced(level))
        return _point_from_comparison(
            comparison, level, report.status, calls,
            effective_relax_bits=level,
        )
    except CircuitOpenError:
        # The breaker says this (workload, config) is sick: skip the
        # ladder (more of the same engine) and go straight to fallback.
        tevent("breaker_open", "skipping degradation ladder", key=key)
    except ReproError as exc:
        # Retries/deadline exhausted: degrade up the relax ladder.  Each
        # rung gets its own supervised budget under a distinct key so the
        # original point's breaker state does not doom the rescue.
        tevent(
            "rescue", f"{type(exc).__name__}: {exc}", requested_m=level,
        )
        for rung in qos.degradation_rungs(level, max_relax_bits,
                                          degradation_step):
            try:
                tevent("degrade_rung", rung_m=rung)
                comparison, _ = supervisor.supervise(
                    f"{key}/degrade-m{rung}", priced(rung)
                )
                return _point_from_comparison(
                    comparison, level, "degraded", calls,
                    effective_relax_bits=rung,
                )
            except ReproError:
                continue

    # Last resort: complete the point exactly on the host CPU baseline.
    # Chaos does not apply here — the fallback is the real host, not the
    # simulated accelerator.
    try:
        calls += 1
        tevent("cpu_fallback")
        comparison = harness.cpu_fallback(workload, dataset_bytes)
        return _point_from_comparison(
            comparison, level, "fallback", calls, effective_relax_bits=-1
        )
    except ReproError:
        tevent("failed", "cpu fallback raised; point recorded as failed")
        return _failed_point(
            workload.name, level, int(dataset_bytes), calls
        )


def _run_campaign_pooled(
    pool: "CrossbarPool",
    resolved: list[Workload],
    relax_levels: list[int],
    dataset_bytes: float,
    checkpoint: str | None,
    resume: bool,
    seed: int,
) -> CampaignResult:
    """The grid through the serving pool: submit all, collect in order.

    The journal protocol matches the sequential path — ``begin`` before a
    point is dispatched, ``complete`` once its terminal record exists — so
    a killed pooled campaign resumes exactly like a sequential one.
    """
    completed: dict[str, CampaignPoint] = {}
    journal: CheckpointJournal | None = None
    if checkpoint is not None:
        if resume:
            state = load_journal(checkpoint)
            for key, payload in state.completed.items():
                try:
                    completed[key] = CampaignPoint(**payload)
                except (TypeError, ReproError):
                    continue
        journal = CheckpointJournal(checkpoint, resume=resume)
        journal.describe(
            {
                "workloads": [w.name for w in resolved],
                "relax_levels": list(relax_levels),
                "dataset_bytes": int(dataset_bytes),
                "seed": seed,
                "pool_shards": pool.shard_count,
            }
        )

    pool.ensure_started()
    grid: list[tuple[str, str | None]] = []  # (point key, request id | None)
    points: list[CampaignPoint] = []
    try:
        for workload in resolved:
            for level in relax_levels:
                key = point_key(workload.name, level, int(dataset_bytes))
                if key in completed:
                    grid.append((key, None))
                    continue
                if journal is not None:
                    journal.begin(key)
                request_id = pool.submit(
                    workload=workload.name,
                    relax_bits=level,
                    dataset_bytes=int(dataset_bytes),
                    tenant="campaign",
                    priority=0,
                    block=True,
                )
                grid.append((key, request_id))
        for key, request_id in grid:
            if request_id is None:
                point = completed[key]
                record_campaign_point(point.status, resumed=True)
                points.append(point)
                continue
            result = pool.result(request_id)
            point = result.point
            if point is None:  # expired/error: keep the grid complete
                name, rest = key.split("/m", 1)
                level, size = rest.split("/", 1)
                point = _failed_point(
                    name, int(level), int(size[:-1]), result.attempts
                )
            record_campaign_point(point.status)
            if journal is not None:
                journal.complete(key, dataclasses.asdict(point))
            points.append(point)
    finally:
        if journal is not None:
            journal.close()
    return CampaignResult(points=tuple(points))


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
    qos: QoSPolicy | None = None,
    max_relax_bits: int = 32,
    degradation_step: int = 4,
    harness: ComparisonHarness | None = None,
    pool: "CrossbarPool | None" = None,
) -> CampaignResult:
    """Run the full (workload x relax-bits) grid at one dataset size.

    Without ``supervisor`` this is the classic fail-fast sweep.  With one,
    every point is retried/deadlined/breakered and ends in a terminal
    status (see the module docstring) — never silently missing.

    ``checkpoint`` names a JSONL journal; ``resume=True`` loads it first
    (recovering any torn tail) and re-executes only points without a
    terminal record.  ``seed`` feeds the harness's input generation so a
    resumed or replayed campaign prices identical data.

    With ``pool`` (a started-or-startable
    :class:`~repro.serving.pool.CrossbarPool`) the grid executes through
    the serving layer's sharded workers instead of this thread: points are
    submitted as internal blocking requests (backpressure, never
    admission-rejected) and collected in grid order, so campaigns gain
    multi-shard parallelism with identical semantics.  Supervision, chaos
    and QoS degradation then belong to the pool's shards — passing
    ``supervisor``/``chaos``/``harness`` alongside ``pool`` is a
    configuration error.
    """
    if not workloads:
        raise ConfigurationError("campaign needs at least one workload")
    if not relax_levels:
        raise ConfigurationError("campaign needs at least one relax level")
    if any(level < 0 for level in relax_levels):
        raise ConfigurationError("relax levels must be non-negative")
    if resume and checkpoint is None:
        raise ConfigurationError("resume=True needs a checkpoint path")
    if pool is not None and (
        supervisor is not None or chaos is not None or harness is not None
    ):
        raise ConfigurationError(
            "pool mode owns supervision/chaos/pricing per shard; do not "
            "also pass supervisor=, chaos= or harness="
        )
    resolved = [
        workload_by_name(w) if isinstance(w, str) else w for w in workloads
    ]
    if pool is not None:
        return _run_campaign_pooled(
            pool, resolved, relax_levels, dataset_bytes,
            checkpoint=checkpoint, resume=resume, seed=seed,
        )
    harness = harness or ComparisonHarness(
        config=config, tile_elements=tile_elements, rng_seed=seed
    )
    qos = qos or QoSPolicy()

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
                        chaos, qos, max_relax_bits, degradation_step,
                        trace=current_trace(),
                    )
                record_campaign_point(point.status)
                if journal is not None:
                    journal.complete(key, dataclasses.asdict(point))
                points.append(point)
    finally:
        if journal is not None:
            journal.close()
    return CampaignResult(points=tuple(points))
