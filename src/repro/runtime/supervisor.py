"""Supervised execution: retries, backoff, deadlines and circuit breakers.

`run_campaign` and the executor were written fail-fast: one transient
fault, latency spike or bad grid point killed an entire sweep.  This
module is the layer that makes long campaigns survivable:

- :class:`RetryPolicy` — bounded retries with exponential backoff and
  *deterministic* jitter (a pure function of seed, key and attempt, so a
  rerun reproduces the exact same delays);
- :class:`CircuitBreaker` — a per-key consecutive-failure counter that
  trips into :class:`~repro.errors.CircuitOpenError` instead of hammering
  a (workload, config) combination that keeps dying, with a cooldown
  half-open probe;
- :class:`Supervisor` — wraps one callable with all of the above plus a
  per-run wall-clock deadline.  In-process kernels cannot be preempted,
  so deadline overruns are detected between attempts and after
  completion, and surfaced as :class:`~repro.errors.DeadlineExceededError`.

Clocks and sleeps are injectable (:class:`ManualClock`) so tests and the
chaos harness run simulated time: a "latency spike" is a clock advance,
not a real stall.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    FaultError,
    TransientError,
)
from repro.observability.instruments import (
    BREAKER_TRANSITIONS,
    SUPERVISOR_BACKOFF,
    record_supervision_event,
)
from repro.observability.tracing import trace_event
from repro.workloads.datagen import seeded_stream

__all__ = [
    "CircuitBreaker",
    "ManualClock",
    "RetryPolicy",
    "RunReport",
    "Supervisor",
]

T = TypeVar("T")


class ManualClock:
    """A deterministic clock that advances only when told.

    Drop-in for ``time.monotonic`` wherever the supervisor or breaker
    takes a ``clock``; chaos latency spikes and backoff sleeps advance it
    explicitly, so supervised runs are instant and reproducible.
    """

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        """Move time forward (never backward)."""
        if seconds < 0:
            raise ConfigurationError(f"cannot advance by {seconds}s")
        self.now += seconds


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    The delay before retry ``n`` (1-based) is jittered uniformly within
    ``[base_delay, base_delay * multiplier**n]`` (capped at ``max_delay``),
    the classic exponential-backoff envelope.  The jitter fraction is
    drawn from :func:`~repro.workloads.datagen.seeded_stream` keyed by
    ``(jitter_seed, key, n)``: deterministic per run *and* decorrelated
    across keys, so a retry storm fans out instead of thundering in step.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 5.0
    jitter_seed: int = 2017
    retryable: tuple[type[BaseException], ...] = (TransientError, FaultError)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < self.base_delay:
            raise ConfigurationError(
                "need 0 <= base_delay <= max_delay for a backoff envelope"
            )
        if self.multiplier < 1.0:
            raise ConfigurationError("multiplier must be >= 1")
        if self.jitter_seed < 0:
            raise ConfigurationError("jitter_seed must be non-negative")

    def delay(self, attempt: int, key: str = "") -> float:
        """The backoff before retry ``attempt`` (1-based) of ``key``."""
        if attempt < 1:
            raise ConfigurationError(f"attempt must be >= 1: {attempt}")
        ceiling = min(
            self.base_delay * self.multiplier**attempt, self.max_delay
        )
        rng = seeded_stream(self.jitter_seed, "backoff", key, attempt)
        return self.base_delay + float(rng.random()) * (
            ceiling - self.base_delay
        )


class CircuitBreaker:
    """Trips a key after too many consecutive failures.

    While open, :meth:`check` raises :class:`CircuitOpenError` without
    running anything.  After ``cooldown_s`` of simulated/real time the
    breaker goes half-open: one probe attempt is admitted, and its outcome
    immediately re-trips or closes the circuit.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be at least 1")
        if cooldown_s < 0:
            raise ConfigurationError("cooldown_s must be non-negative")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.clock = clock
        self._failures: dict[str, int] = {}
        self._opened_at: dict[str, float] = {}

    def failures(self, key: str) -> int:
        """Consecutive failures recorded against a key."""
        return self._failures.get(key, 0)

    def is_open(self, key: str) -> bool:
        """True when the key is tripped and still cooling down."""
        opened = self._opened_at.get(key)
        return opened is not None and self.clock() - opened < self.cooldown_s

    def check(self, key: str) -> None:
        """Admit or reject an attempt on ``key``."""
        opened = self._opened_at.get(key)
        if opened is None:
            return
        if self.clock() - opened < self.cooldown_s:
            raise CircuitOpenError(
                f"{key}: circuit open after "
                f"{self._failures.get(key, 0)} consecutive failures"
            )
        # Half-open: admit one probe; leave the count one below threshold
        # so a failing probe re-trips instantly.
        del self._opened_at[key]
        self._failures[key] = self.failure_threshold - 1
        BREAKER_TRANSITIONS.inc(state="half_open")

    def record_success(self, key: str) -> bool:
        """Reset ``key``; True when it had failures or was open (a
        ``closed`` transition), False when it was already clean."""
        if key not in self._failures and key not in self._opened_at:
            return False
        BREAKER_TRANSITIONS.inc(state="closed")
        self._failures.pop(key, None)
        self._opened_at.pop(key, None)
        return True

    def record_failure(self, key: str) -> bool:
        """Count one failure; True when ``key`` is open after it."""
        count = self._failures.get(key, 0) + 1
        self._failures[key] = count
        if count < self.failure_threshold:
            return False
        if key not in self._opened_at:
            BREAKER_TRANSITIONS.inc(state="open")
        self._opened_at[key] = self.clock()
        return True


@dataclass(slots=True)
class RunReport:
    """What supervision did to get one result out."""

    key: str
    attempts: int
    status: str  # "ok" (first try) or "retried"
    elapsed_s: float
    delays: tuple[float, ...] = ()
    errors: tuple[str, ...] = ()


class Supervisor:
    """Runs callables under retry, deadline and circuit-breaker policy.

    Every supervision event (``attempt``/``retry``/``success``/``failure``)
    is a ``trace_event("supervisor", kind, detail, key=key)`` on the
    thread's ambient trace, so installing a sink with
    :func:`~repro.observability.tracing.use_trace` streams the timeline.

    :attr:`attempts` counts every call of a supervised ``fn`` over the
    supervisor's life; a caller that must count the attempts of a run
    that raised (the campaign's rescue ladder) reads it before and after.
    Like its breaker, a supervisor is driven by one thread at a time.
    """

    def __init__(
        self,
        retry: RetryPolicy | None = None,
        deadline_s: float | None = None,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigurationError("deadline_s must be positive")
        self.retry = retry or RetryPolicy()
        self.deadline_s = deadline_s
        self.breaker = breaker
        self.clock = clock
        if sleep is None:
            sleep = clock.advance if isinstance(clock, ManualClock) else time.sleep
        self.sleep = sleep
        self.attempts = 0

    def _emit(self, kind: str, key: str, detail: str) -> None:
        record_supervision_event(kind)
        trace_event("supervisor", kind, detail, key=key)

    def _fail(self, key: str, detail: str) -> None:
        if self.breaker is not None:
            self.breaker.record_failure(key)
        self._emit("failure", key, detail)

    def supervise(
        self, key: str, fn: Callable[..., T], *args
    ) -> tuple[T, RunReport]:
        """Run ``fn(*args)`` under policy; return its result and a report.

        Raises the last retryable error once attempts are exhausted,
        :class:`DeadlineExceededError` on wall-clock overrun, and
        :class:`CircuitOpenError` without calling ``fn`` when the key's
        breaker is open.  Non-retryable exceptions propagate unchanged
        (after feeding the breaker).
        """
        breaker = self.breaker
        if breaker is not None:
            breaker.check(key)
        deadline_s = self.deadline_s
        start = self.clock()
        delays: list[float] = []
        errors: list[str] = []
        attempt = 0
        while True:
            attempt += 1
            self.attempts += 1
            self._emit("attempt", key, f"attempt {attempt}")
            try:
                result = fn(*args)
            except self.retry.retryable as exc:
                errors.append(f"{type(exc).__name__}: {exc}")
                if attempt >= self.retry.max_attempts:
                    self._fail(key, f"retries exhausted: {errors[-1]}")
                    raise
                delay = self.retry.delay(attempt, key)
                if (
                    deadline_s is not None
                    and self.clock() - start + delay >= deadline_s
                ):
                    self._fail(key, "deadline blown during backoff")
                    raise DeadlineExceededError(
                        f"{key}: {self.clock() - start:.3f}s elapsed + "
                        f"{delay:.3f}s backoff exceeds deadline "
                        f"{self.deadline_s}s"
                    ) from exc
                delays.append(delay)
                self._emit("retry", key, errors[-1])
                SUPERVISOR_BACKOFF.observe(delay)
                self.sleep(delay)
                continue
            except CircuitOpenError:
                raise
            except Exception as exc:
                self._fail(key, f"{type(exc).__name__}: {exc}")
                raise
            elapsed = self.clock() - start
            if deadline_s is not None and elapsed >= deadline_s:
                self._fail(key, f"deadline exceeded after {elapsed:.3f}s")
                raise DeadlineExceededError(
                    f"{key}: completed after {elapsed:.3f}s, over the "
                    f"{deadline_s}s deadline"
                )
            if breaker is not None:
                breaker.record_success(key)
            if attempt == 1:
                self._emit("success", key, "ok after 1 attempt(s)")
                return result, RunReport(key, 1, "ok", elapsed)
            self._emit("success", key, f"retried after {attempt} attempt(s)")
            return result, RunReport(
                key, attempt, "retried", elapsed, tuple(delays), tuple(errors)
            )
