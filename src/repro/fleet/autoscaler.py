"""SLO-driven shard autoscaling: the fleet's control loop.

The :class:`Autoscaler` periodically reads the pool's
:class:`~repro.observability.slo.BurnRateEvaluator` verdict (and tail
sketches) and emits one bounded decision per step:

- ``grow`` — after ``grow_after`` consecutive burning verdicts
  (``slow_burn`` or ``fast_burn``), add a shard, up to ``max_shards``;
- ``shrink`` — after ``shrink_after`` consecutive healthy verdicts with
  tail headroom, remove the highest-index *idle* shard (a shard with
  in-flight work is never selected), down to ``min_shards``;
- ``shed`` — on ``fast_burn``, immediately stop admitting the
  lowest-priority tenant (admission-level shedding: nothing acknowledged
  is ever dropped), and restore shed tenants once the burn clears;
- ``hold`` — otherwise.

Hysteresis comes from the consecutive-verdict streaks, and a scale (grow
or shrink) starts a ``cooldown_s`` window during which further scaling is
refused — both measured on the *injected clock*, so a test driving a
:class:`~repro.runtime.supervisor.ManualClock` sees a fully deterministic
decision sequence: identical verdict streams produce identical decisions
(the property the hypothesis suite pins).

An optional ``verdict_source`` (canonically the telemetry pipeline's
:class:`~repro.observability.timeseries.SlopeVerdictSource`) is consulted
with each step's SLO evaluation and may *escalate* an ``ok`` verdict to
``slow_burn`` on a sustained positive p99 slope — leading capacity, not
lagging the error budget.  Each decision records which ``signal``
produced its verdict (``slo``, ``forced``, or the source's tag).

Decisions execute through the pool's live-resize primitives and are
recorded three ways: the in-memory ``decisions`` log (the `/fleet`
endpoint's tail), the fleet metric families, and — when a trace store is
attached — a ``fleet`` trace per decision, so a request rerouted off a
draining shard can be correlated with the resize that moved it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import FleetError, ScaleRejectedError
from repro.observability.instruments import (
    FLEET_DECISION_SECONDS,
    FLEET_SHED_TENANTS,
)

__all__ = ["Autoscaler", "FleetPolicy"]

#: Verdicts that count toward the grow streak.
_BURNING = ("slow_burn", "fast_burn")


@dataclass(frozen=True)
class FleetPolicy:
    """Bounds and hysteresis of the autoscaler's decision rule."""

    #: The shard-count envelope decisions never leave.
    min_shards: int = 1
    max_shards: int = 8
    #: Consecutive burning verdicts before a grow (hysteresis).
    grow_after: int = 2
    #: Consecutive healthy-with-headroom verdicts before a shrink.
    shrink_after: int = 4
    #: Long-window burn rate below which a healthy verdict counts as
    #: headroom (capacity is provably idle, not merely not-burning).
    headroom_burn: float = 0.5
    #: Seconds (on the injected clock) after a scale during which
    #: further grow/shrink decisions are refused.
    cooldown_s: float = 5.0
    #: How long a removed shard gets to drain before the resize errors.
    drain_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        if self.min_shards < 1:
            raise FleetError(f"min_shards must be >= 1: {self.min_shards}")
        if self.max_shards < self.min_shards:
            raise FleetError(
                f"max_shards {self.max_shards} < min_shards {self.min_shards}"
            )
        if self.grow_after < 1 or self.shrink_after < 1:
            raise FleetError("grow_after and shrink_after must be >= 1")
        if self.headroom_burn < 0:
            raise FleetError("headroom_burn must be non-negative")
        if self.cooldown_s < 0 or self.drain_timeout_s <= 0:
            raise FleetError("cooldown_s/drain_timeout_s must be positive")


class Autoscaler:
    """One pool's control loop; see the module docstring.

    ``tenant_priorities`` maps tenant name to scheduler priority class
    (0 most urgent) and ranks shed victims; tenants the map does not
    name are assumed to run at the pool's default priority.  Decisions
    read the pool scheduler's clock, so a
    :class:`~repro.runtime.supervisor.ManualClock` injected there drives
    admission, SLO windows and scaling decisions coherently.
    """

    def __init__(
        self,
        pool,
        policy: FleetPolicy | None = None,
        tenant_priorities: dict[str, int] | None = None,
        verdict_source=None,
    ) -> None:
        self.pool = pool
        self.policy = policy or FleetPolicy()
        self.tenant_priorities = dict(tenant_priorities or {})
        self.clock = pool.scheduler.clock
        # An optional early-warning escalator (canonically the telemetry
        # pipeline's SlopeVerdictSource): consulted with the live SLO
        # evaluation each step, it may escalate an ``ok`` verdict — grow
        # on a rising p99 *before* the error budget burns.
        self.verdict_source = verdict_source
        self.decisions: list[dict] = []
        self.scale_ups = 0
        self.scale_downs = 0
        self.sheds = 0
        self._burn_streak = 0
        self._headroom_streak = 0
        self._last_scale_at: float | None = None
        pool.autoscaler = self

    # -- the decision rule -----------------------------------------------------

    def _cooldown_remaining(self, now: float) -> float:
        if self._last_scale_at is None:
            return 0.0
        return max(
            0.0, self.policy.cooldown_s - (now - self._last_scale_at)
        )

    def _shed_victim(self) -> str | None:
        """The lowest-priority tenant not already shed (None when all
        known tenants are shed — nothing left to protect the SLO with)."""
        default = self.pool.scheduler.config.default_priority
        candidates = set(self.tenant_priorities)
        candidates.update(self.pool.scheduler.stats()["tenants"])
        candidates -= self.pool.shed_tenants
        if not candidates:
            return None
        # Highest priority number = least urgent class sheds first; ties
        # break lexicographically so the choice is deterministic.
        return max(
            sorted(candidates),
            key=lambda t: self.tenant_priorities.get(t, default),
        )

    def step(self, verdict: str | None = None) -> dict:
        """Evaluate once and act; returns the decision record.

        ``verdict`` overrides the pool's live SLO verdict — the hook the
        replay harness and the tests use to force a specific sequence
        while still exercising the full decide/act path.
        """
        started = time.monotonic()
        now = self.clock()
        slo = self.pool.slo.evaluate()
        signal = "forced"
        if verdict is None:
            if self.verdict_source is not None:
                verdict, signal = self.verdict_source.verdict(slo)
            else:
                verdict, signal = slo["verdict"], "slo"
        decision = self._decide(verdict, float(slo["long_burn"]), now)
        decision["signal"] = signal
        self._act(decision)
        self.decisions.append(decision)
        FLEET_DECISION_SECONDS.observe(time.monotonic() - started)
        self._trace(decision)
        return decision

    def _decide(self, verdict: str, long_burn: float, now: float) -> dict:
        shards = self.pool.shard_count
        decision = {
            "at": now,
            "verdict": verdict,
            "action": "hold",
            "reason": "steady",
            "shards_before": shards,
            "shards_after": shards,
        }
        if verdict in _BURNING:
            self._burn_streak += 1
            self._headroom_streak = 0
        elif long_burn <= self.policy.headroom_burn:
            self._headroom_streak += 1
            self._burn_streak = 0
        else:
            self._burn_streak = 0
            self._headroom_streak = 0
        if verdict == "fast_burn":
            victim = self._shed_victim()
            if victim is not None:
                decision["action"] = "shed"
                decision["reason"] = "fast_burn"
                decision["tenant"] = victim
                return decision
            decision["reason"] = "fast_burn_all_shed"
        if verdict == "ok" and self.pool.shed_tenants:
            # The burn cleared: restore every shed tenant before any
            # capacity decision — serving again beats saving shards.
            decision["action"] = "restore"
            decision["reason"] = "burn_cleared"
            decision["tenants"] = sorted(self.pool.shed_tenants)
            return decision
        cooldown = self._cooldown_remaining(now)
        if self._burn_streak >= self.policy.grow_after:
            if shards >= self.policy.max_shards:
                decision["reason"] = "at_max_shards"
            elif cooldown > 0:
                decision["reason"] = "cooldown"
                decision["cooldown_remaining_s"] = round(cooldown, 6)
            else:
                decision["action"] = "grow"
                decision["reason"] = f"burn_streak={self._burn_streak}"
                decision["shards_after"] = shards + 1
            return decision
        if self._headroom_streak >= self.policy.shrink_after:
            if shards <= self.policy.min_shards:
                decision["reason"] = "at_min_shards"
            elif cooldown > 0:
                decision["reason"] = "cooldown"
                decision["cooldown_remaining_s"] = round(cooldown, 6)
            else:
                idle = [s for s in self.pool.shards if s.in_flight == 0]
                if not idle:
                    decision["reason"] = "no_idle_shard"
                else:
                    victim = max(idle, key=lambda s: s.index)
                    decision["action"] = "shrink"
                    decision["reason"] = (
                        f"headroom_streak={self._headroom_streak}"
                    )
                    decision["shards_after"] = shards - 1
                    decision["victim"] = victim.index
        return decision

    # -- acting on a decision --------------------------------------------------

    def _act(self, decision: dict) -> None:
        action = decision["action"]
        try:
            if action == "grow":
                shard = self.pool.add_shard()
                decision["shard"] = shard.index
                self.scale_ups += 1
                self._last_scale_at = decision["at"]
                self._burn_streak = 0
            elif action == "shrink":
                self.pool.remove_shard(
                    decision["victim"],
                    timeout=self.policy.drain_timeout_s,
                )
                self.scale_downs += 1
                self._last_scale_at = decision["at"]
                self._headroom_streak = 0
            elif action == "shed":
                self.pool.shed_tenants.add(decision["tenant"])
                self.sheds += 1
                FLEET_SHED_TENANTS.inc()
            elif action == "restore":
                self.pool.shed_tenants.clear()
        except ScaleRejectedError as exc:
            # A bounded refusal (raced with a manual resize, or the idle
            # victim picked up work): downgrade to a hold, keep looping.
            decision["action"] = "hold"
            decision["reason"] = f"rejected:{exc.reason}"
            decision["shards_after"] = decision["shards_before"]
        except FleetError as exc:
            decision["action"] = "hold"
            decision["reason"] = f"failed:{exc}"
            decision["shards_after"] = self.pool.shard_count
            self._last_scale_at = decision["at"]

    def _trace(self, decision: dict) -> None:
        if decision["action"] == "hold":
            return
        trace = self.pool.traces.new_trace(
            workload="fleet", tenant=decision.get("tenant", "-"),
            relax_bits=0,
        )
        trace.event(
            "fleet", decision["action"], decision["reason"],
            verdict=decision["verdict"],
            shards_before=decision["shards_before"],
            shards_after=decision["shards_after"],
            shard=decision.get("shard", decision.get("victim")),
        )

    # -- introspection ---------------------------------------------------------

    def status(self) -> dict:
        """The `/fleet` endpoint's autoscaler block."""
        return {
            "policy": {
                "min_shards": self.policy.min_shards,
                "max_shards": self.policy.max_shards,
                "grow_after": self.policy.grow_after,
                "shrink_after": self.policy.shrink_after,
                "cooldown_s": self.policy.cooldown_s,
                "headroom_burn": self.policy.headroom_burn,
            },
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "sheds": self.sheds,
            "burn_streak": self._burn_streak,
            "headroom_streak": self._headroom_streak,
            "decisions": len(self.decisions),
            "recent_decisions": self.decisions[-10:],
            "tenant_priorities": dict(self.tenant_priorities),
            "verdict_source": (
                None
                if self.verdict_source is None
                else self.verdict_source.status()
            ),
        }
