"""Service-level objectives and multi-window burn-rate evaluation.

An :class:`SLOPolicy` states the objective — "requests complete OK within
``latency_target_s``, with at most ``error_budget`` of them allowed to
miss" — and :class:`BurnRateEvaluator` measures how fast the serving
stack is spending that budget.  The burn rate over a window is::

    burn = (bad fraction in window) / error_budget

so burn 1.0 exhausts the budget exactly at the SLO period's end, and
burn 14.4 (the classic fast-burn threshold) exhausts a 30-day budget in
about two days.  Verdicts use the standard two-window rule: an alert
fires only when *both* the short and the long window exceed a threshold
— the long window proves the problem is real, the short window proves it
is still happening — which keeps a recovered incident from paging for an
hour after it ended.

The evaluator runs on an injectable clock, so tests drive it with
:class:`~repro.runtime.supervisor.ManualClock` and assert the exact tick
where ``healthz`` flips to 503.  :func:`evaluate_points` applies the same
policy offline to a campaign grid, making ``repro slo`` useful against a
checkpoint file as well as a live pool.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import SLOError

__all__ = [
    "BurnRateEvaluator",
    "SLOPolicy",
    "evaluate_points",
]

#: Statuses that count as meeting the objective (degraded service is
#: still service; the latency gate is applied separately).
GOOD_STATUSES = frozenset({"ok", "retried", "degraded"})

#: Width of one burn-rate bucket, in seconds.
BUCKET_S = 1.0


@dataclass(frozen=True)
class SLOPolicy:
    """The objective: a latency target and an error budget.

    ``fast_burn`` / ``slow_burn`` are the burn-rate thresholds for the
    two alerting severities (defaults follow SRE-workbook convention:
    14.4x spends a 30-day budget in ~2 days, 3x in ~10 days).
    ``min_events`` is the traffic floor below which no verdict fires:
    with a handful of requests in the window, one unlucky outcome is a
    100% bad fraction, and an alert on that is noise, not signal.
    """

    latency_target_s: float = 2.0
    error_budget: float = 0.01
    fast_burn: float = 14.4
    slow_burn: float = 3.0
    short_window_s: float = 300.0   # 5 m
    long_window_s: float = 3600.0   # 1 h
    min_events: int = 10

    def __post_init__(self) -> None:
        if self.min_events < 1:
            raise SLOError(
                f"min_events must be at least 1: {self.min_events}"
            )
        if self.latency_target_s <= 0:
            raise SLOError(
                f"latency target must be positive: {self.latency_target_s}"
            )
        if not 0 < self.error_budget < 1:
            raise SLOError(
                f"error budget must be in (0, 1): {self.error_budget}"
            )
        if self.fast_burn <= self.slow_burn:
            raise SLOError(
                "fast-burn threshold must exceed slow-burn: "
                f"{self.fast_burn} <= {self.slow_burn}"
            )
        if self.slow_burn <= 0:
            raise SLOError(f"slow-burn must be positive: {self.slow_burn}")
        if self.short_window_s <= 0 or self.long_window_s <= 0:
            raise SLOError("windows must be positive")
        if self.short_window_s >= self.long_window_s:
            raise SLOError(
                "short window must be shorter than long window: "
                f"{self.short_window_s} >= {self.long_window_s}"
            )

    def is_good(self, latency_s: float, ok: bool) -> bool:
        """Whether one request met the objective."""
        return ok and latency_s <= self.latency_target_s

    def to_dict(self) -> dict:
        return {
            "latency_target_s": self.latency_target_s,
            "error_budget": self.error_budget,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "short_window_s": self.short_window_s,
            "long_window_s": self.long_window_s,
            "min_events": self.min_events,
        }


class BurnRateEvaluator:
    """Sliding-window burn-rate tracker on an injectable clock.

    Outcomes are counted in :data:`BUCKET_S`-wide buckets, a deque of
    ``[second, count, bad]`` lists (``second`` is ``floor(t /
    BUCKET_S)``); buckets older than the long window are pruned when a
    record opens a new bucket and on every read (:meth:`burn_rate`,
    :meth:`evaluate`).  A record that lands in the newest bucket adds no
    bucket, so it has nothing to prune.  Memory is therefore at most
    ``ceil(long_window_s / BUCKET_S) + 1`` buckets (one per second of
    the long window, plus one) whatever the traffic, and
    :meth:`evaluate` is linear in buckets, not requests.  Window edges
    round down to whole buckets: a window of ``w`` seconds at time ``t``
    counts every bucket from the one holding ``t - w``, so it may reach
    up to one bucket further back than ``w`` (exactly ``w`` on a
    whole-second clock).
    """

    def __init__(
        self,
        policy: SLOPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy or SLOPolicy()
        self.clock = clock
        self._events: "deque[list[int]]" = deque()
        self._lock = threading.Lock()
        self.total = 0
        self.total_bad = 0

    def record(self, latency_s: float, ok: bool = True) -> bool:
        """Record one request; returns whether it met the objective."""
        good = self.policy.is_good(latency_s, ok)
        self.record_outcome(good)
        return good

    def record_outcome(self, good: bool) -> None:
        """Record a pre-judged outcome (tests, offline replay): one locked
        step, taken with acquire/release as a metric child takes its
        lock.  Only a record that opens a new bucket prunes."""
        now = self.clock()
        second = math.floor(now / BUCKET_S)
        lock = self._lock
        lock.acquire()
        try:
            events = self._events
            if events and events[-1][0] >= second:
                bucket = events[-1]
            else:
                bucket = [second, 0, 0]
                events.append(bucket)
                self._prune(now)
            bucket[1] += 1
            self.total += 1
            if not good:
                bucket[2] += 1
                self.total_bad += 1
        finally:
            lock.release()

    def _prune(self, now: float) -> None:
        horizon = math.floor((now - self.policy.long_window_s) / BUCKET_S)
        events = self._events
        while events and events[0][0] < horizon:
            events.popleft()

    def _window_stats(self, now: float, window_s: float) -> tuple[int, int]:
        start = math.floor((now - window_s) / BUCKET_S)
        count = bad = 0
        for second, bucket_count, bucket_bad in reversed(self._events):
            if second < start:
                break
            count += bucket_count
            bad += bucket_bad
        return count, bad

    def burn_rate(self, window_s: float) -> float:
        """Bad-fraction over the window divided by the error budget.

        Zero when the window holds no events (no traffic is not an
        outage — the absence of data should not page anyone).
        """
        now = self.clock()
        with self._lock:
            self._prune(now)
            count, bad = self._window_stats(now, window_s)
        if count == 0:
            return 0.0
        return (bad / count) / self.policy.error_budget

    def evaluate(self) -> dict:
        """Burn rates over both windows plus the two-window verdict.

        ``verdict`` is ``"fast_burn"`` when both windows exceed the
        fast threshold, ``"slow_burn"`` when both exceed the slow one,
        else ``"ok"``.
        """
        now = self.clock()
        with self._lock:
            self._prune(now)
            short_n, short_bad = self._window_stats(
                now, self.policy.short_window_s
            )
            long_n, long_bad = self._window_stats(
                now, self.policy.long_window_s
            )
        budget = self.policy.error_budget
        short_burn = (short_bad / short_n) / budget if short_n else 0.0
        long_burn = (long_bad / long_n) / budget if long_n else 0.0
        if short_n < self.policy.min_events:
            verdict = "ok"  # below the traffic floor: no verdict fires
        elif (
            short_burn >= self.policy.fast_burn
            and long_burn >= self.policy.fast_burn
        ):
            verdict = "fast_burn"
        elif (
            short_burn >= self.policy.slow_burn
            and long_burn >= self.policy.slow_burn
        ):
            verdict = "slow_burn"
        else:
            verdict = "ok"
        return {
            "verdict": verdict,
            "short_window_s": self.policy.short_window_s,
            "long_window_s": self.policy.long_window_s,
            "short_burn": short_burn,
            "long_burn": long_burn,
            "short_events": short_n,
            "short_bad": short_bad,
            "long_events": long_n,
            "long_bad": long_bad,
            "total": self.total,
            "total_bad": self.total_bad,
            "policy": self.policy.to_dict(),
        }

    def healthy(self) -> bool:
        """False exactly when the verdict is fast-burn — the signal
        ``healthz`` turns into a 503."""
        return self.evaluate()["verdict"] != "fast_burn"


def evaluate_points(
    points: Iterable[dict], policy: SLOPolicy | None = None
) -> dict:
    """Apply an SLO to a campaign grid offline.

    Each point is judged good when its status is one of
    :data:`GOOD_STATUSES` *and* its simulated APIM latency
    (``apim_time_s``) meets the policy's latency target.  Returns the
    aggregate bad-fraction, the overall burn rate and a breakdown by
    failure reason — the ``repro slo`` view over a checkpoint or
    campaign output.
    """
    policy = policy or SLOPolicy()
    total = bad = 0
    by_reason: dict[str, int] = {}
    for point in points:
        total += 1
        status = str(point.get("status", "ok"))
        latency = float(point.get("apim_time_s", 0.0))
        if status not in GOOD_STATUSES:
            bad += 1
            by_reason[f"status:{status}"] = (
                by_reason.get(f"status:{status}", 0) + 1
            )
        elif latency > policy.latency_target_s:
            bad += 1
            by_reason["latency"] = by_reason.get("latency", 0) + 1
    if total == 0:
        raise SLOError("cannot evaluate an empty point set")
    bad_fraction = bad / total
    burn = bad_fraction / policy.error_budget
    if burn >= policy.fast_burn:
        verdict = "fast_burn"
    elif burn >= policy.slow_burn:
        verdict = "slow_burn"
    else:
        verdict = "ok"
    return {
        "verdict": verdict,
        "total": total,
        "bad": bad,
        "bad_fraction": bad_fraction,
        "burn_rate": burn,
        "by_reason": dict(sorted(by_reason.items())),
        "policy": policy.to_dict(),
    }
