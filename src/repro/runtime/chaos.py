"""Deterministic runtime fault injection for the supervised campaign.

The resilience subsystem (PR 1) hardened the *array*; this module attacks
the layer above it so the supervisor/checkpoint/degradation machinery can
be exercised end to end.  A :class:`ChaosInjector` wraps each grid
point's pricing callable and, per call, injects one of

- a **transient engine fault** — :class:`~repro.errors.TransientError`,
  the retry-with-backoff path;
- a **latency spike** — the shared :class:`ManualClock` jumps forward
  before the call runs, the deadline path;
- **unmaskable output corruption** — :class:`~repro.errors.FaultError`,
  exactly the type the PR-1 residue checker escalates when corruption
  survives its bounded repair loop, so supervision treats simulated
  fabric corruption and injected corruption identically.

Every decision is a pure function of ``(seed, point key, call index)``
via :func:`~repro.workloads.datagen.seeded_stream`: rerunning a chaos
campaign with the same seed injects the identical fault sequence, so
recovery behaviour is reproducible bit for bit.

:func:`run_chaos_campaign` assembles the whole rig — injector, manual
clock, supervisor, breaker, optional checkpoint and Chrome trace — and
reports completion yield, retry counts and the degradation mix.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.errors import ConfigurationError, FaultError, TransientError
from repro.observability.tracing import use_trace
from repro.runtime.campaign import CampaignResult, run_campaign
from repro.runtime.supervisor import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    Supervisor,
)
from repro.units import MIB
from repro.workloads.datagen import seeded_stream

__all__ = [
    "ChaosInjector",
    "ChaosOutcome",
    "ChaosPolicy",
    "chaos_table",
    "run_chaos_campaign",
]

T = TypeVar("T")


@dataclass(frozen=True)
class ChaosPolicy:
    """Per-call injection probabilities and the seed deriving them."""

    transient_rate: float = 0.0
    latency_rate: float = 0.0
    latency_spike_s: float = 30.0
    corrupt_rate: float = 0.0
    #: Probability that a subprocess shard worker is SIGKILL'd mid-request.
    #: Drawn from its own stream ("worker-kill") with its own call counter,
    #: so enabling it never perturbs the transient/latency/corrupt sequence
    #: of an existing seed — and it is excluded from the one-fault-per-call
    #: sum constraint for the same reason (it is a process-level fault, not
    #: a call-level one).
    worker_kill_rate: float = 0.0
    seed: int = 2017

    def __post_init__(self) -> None:
        rates = (self.transient_rate, self.latency_rate, self.corrupt_rate)
        if any(not 0.0 <= rate <= 1.0 for rate in rates):
            raise ConfigurationError("chaos rates must be in [0, 1]")
        if sum(rates) > 1.0:
            raise ConfigurationError(
                "chaos rates must sum to at most 1 (one fault per call)"
            )
        if not 0.0 <= self.worker_kill_rate <= 1.0:
            raise ConfigurationError("worker_kill_rate must be in [0, 1]")
        if self.latency_spike_s < 0:
            raise ConfigurationError("latency_spike_s must be non-negative")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")


class ChaosInjector:
    """Wraps callables with deterministic fault injection.

    ``clock`` (a :class:`ManualClock`) absorbs latency spikes as
    simulated time; without one the spike degenerates to a no-op rather
    than a real stall — chaos runs must stay fast.
    """

    def __init__(
        self, policy: ChaosPolicy, clock: ManualClock | None = None
    ) -> None:
        self.policy = policy
        self.clock = clock
        self._calls: dict[str, int] = {}
        self._kill_calls: dict[str, int] = {}
        self.injected = {
            "transient": 0, "latency": 0, "corrupt": 0, "worker_kill": 0,
        }
        # The serving pool gives every shard a private injector, but the
        # call/injection counters are still lock-guarded so a single
        # injector shared across threads keeps exact counts and each
        # (key, call-index) pair is claimed by exactly one caller.
        self._lock = threading.Lock()

    def _decide(self, key: str, call: int) -> str:
        """The fault kind for one (key, call): pure in (seed, key, call)."""
        draw = float(seeded_stream(self.policy.seed, "chaos", key, call).random())
        p = self.policy
        if draw < p.transient_rate:
            return "transient"
        if draw < p.transient_rate + p.latency_rate:
            return "latency"
        if draw < p.transient_rate + p.latency_rate + p.corrupt_rate:
            return "corrupt"
        return "clean"

    def wrap(self, key: str, fn: Callable[[], T]) -> Callable[[], T]:
        """A chaotic version of ``fn``, keyed for deterministic draws."""

        def chaotic() -> T:
            with self._lock:
                index = self._calls.get(key, 0)
                self._calls[key] = index + 1
            kind = self._decide(key, index)
            if kind == "transient":
                with self._lock:
                    self.injected["transient"] += 1
                raise TransientError(
                    f"chaos: transient engine fault ({key}, call {index})"
                )
            if kind == "corrupt":
                with self._lock:
                    self.injected["corrupt"] += 1
                raise FaultError(
                    f"chaos: unmaskable output corruption "
                    f"({key}, call {index})"
                )
            if kind == "latency":
                with self._lock:
                    self.injected["latency"] += 1
                if self.clock is not None:
                    self.clock.advance(self.policy.latency_spike_s)
            return fn()

        return chaotic

    def should_kill_worker(self, key: str) -> bool:
        """Deterministic draw for the ``worker_kill`` fault: should the
        subprocess worker executing this dispatch be SIGKILL'd mid-request?

        Uses its own stream namespace (``worker-kill``) and per-key call
        counter, fully decoupled from :meth:`wrap`'s draws, so turning the
        rate on (or off) never changes which transient/latency/corrupt
        faults an existing seed injects.
        """
        if self.policy.worker_kill_rate <= 0.0:
            return False
        with self._lock:
            index = self._kill_calls.get(key, 0)
            self._kill_calls[key] = index + 1
        draw = float(
            seeded_stream(self.policy.seed, "worker-kill", key, index).random()
        )
        if draw < self.policy.worker_kill_rate:
            with self._lock:
                self.injected["worker_kill"] += 1
            return True
        return False

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())


@dataclass(frozen=True)
class ChaosOutcome:
    """One chaos campaign: the policy it ran under and what survived."""

    policy: ChaosPolicy
    result: CampaignResult
    injected: dict[str, int] = field(default_factory=dict)

    @property
    def status_counts(self) -> dict[str, int]:
        return self.result.status_counts()

    @property
    def completion_yield(self) -> float:
        return self.result.completion_yield

    @property
    def total_retries(self) -> int:
        """Extra pricing calls beyond the first, summed over the grid."""
        return sum(max(0, p.attempts - 1) for p in self.result.points)

    @property
    def total_injected(self) -> int:
        """Faults the injector actually fired, over all kinds."""
        return sum(self.injected.values())


def run_chaos_campaign(
    workloads: list | None = None,
    relax_levels: list[int] | None = None,
    policy: ChaosPolicy | None = None,
    dataset_bytes: float = 64 * MIB,
    tile_elements: int = 1 << 10,
    max_attempts: int = 4,
    deadline_s: float | None = 120.0,
    checkpoint: str | None = None,
    resume: bool = False,
    trace_path: str | None = None,
) -> ChaosOutcome:
    """A supervised campaign under deterministic injected chaos.

    Wires the manual clock through the supervisor, breaker and injector
    so latency spikes, backoff sleeps and breaker cooldowns all tick the
    same simulated time.  With ``trace_path`` the campaign's event stream
    (supervision, executor and campaign events) is written to a
    crash-safe Chrome trace (:class:`~repro.runtime.trace.ChromeTraceWriter`)
    stamped on the same manual clock.
    """
    from repro.runtime.trace import ChromeTraceWriter

    workloads = workloads or ["Sobel", "Robert"]
    relax_levels = relax_levels if relax_levels is not None else [0, 16, 32]
    policy = policy or ChaosPolicy(transient_rate=0.1)
    clock = ManualClock()
    chaos = ChaosInjector(policy, clock=clock)
    writer = (
        ChromeTraceWriter(trace_path, clock=clock)
        if trace_path is not None else None
    )
    supervisor = Supervisor(
        retry=RetryPolicy(
            max_attempts=max_attempts,
            base_delay=0.01,
            jitter_seed=policy.seed,
        ),
        deadline_s=deadline_s,
        breaker=CircuitBreaker(clock=clock),
        clock=clock,
    )
    try:
        with use_trace(writer):
            result = run_campaign(
                workloads,
                relax_levels,
                dataset_bytes=dataset_bytes,
                tile_elements=tile_elements,
                supervisor=supervisor,
                chaos=chaos,
                seed=policy.seed,
                checkpoint=checkpoint,
                resume=resume,
            )
    finally:
        if writer is not None:
            writer.close()
    return ChaosOutcome(
        policy=policy, result=result, injected=dict(chaos.injected)
    )


def chaos_table(outcomes: list[ChaosOutcome]) -> str:
    """Yield/retry/degradation mix per chaos rate, paper-table style."""
    header = (
        f"{'transient':>9} {'points':>6} {'ok':>4} {'retried':>7} "
        f"{'degraded':>8} {'fallback':>8} {'failed':>6} {'retries':>7} "
        f"{'injected':>8} {'yield':>7}"
    )
    lines = [header, "-" * len(header)]
    for outcome in outcomes:
        counts = outcome.status_counts
        lines.append(
            f"{outcome.policy.transient_rate:>9.2f} "
            f"{len(outcome.result.points):>6} "
            f"{counts['ok']:>4} {counts['retried']:>7} "
            f"{counts['degraded']:>8} {counts['fallback']:>8} "
            f"{counts['failed']:>6} {outcome.total_retries:>7} "
            f"{sum(outcome.injected.values()):>8} "
            f"{100 * outcome.completion_yield:>6.1f}%"
        )
    return "\n".join(lines)
