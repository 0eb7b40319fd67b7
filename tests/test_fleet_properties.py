"""Property tests for the autoscaler's decision rule.

The control loop runs against a stub pool (the decision rule needs only
the pool's *surface*: shard list, resize primitives, SLO verdict, clock),
so hypothesis can drive thousands of verdict/clock/load sequences per
second.  Four invariants, for ANY sequence:

- the shard count never leaves ``[min_shards, max_shards]``;
- two scale actions are never closer than ``cooldown_s`` on the clock;
- a shrink victim never has in-flight work at decision time;
- the decision sequence is a pure function of the (verdict, advance,
  load) stream — replaying it is decision-identical.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScaleRejectedError
from repro.fleet import Autoscaler, FleetPolicy
from repro.runtime.supervisor import ManualClock


class _StubShard:
    def __init__(self, index: int) -> None:
        self.index = index
        self.in_flight = 0

    @property
    def key(self) -> str:
        return f"shard{self.index}"


class _StubTrace:
    def event(self, *args, **kwargs):
        pass


class _StubTraces:
    def new_trace(self, **baggage):
        return _StubTrace()


class _StubConfig:
    default_priority = 1


class _StubScheduler:
    def __init__(self, clock) -> None:
        self.clock = clock
        self.config = _StubConfig()

    def stats(self):
        return {"tenants": {"interactive": 0, "bulk": 0}}


class _StubSLO:
    def __init__(self) -> None:
        self.long_burn = 0.0

    def evaluate(self):
        return {
            "verdict": "ok",
            "short_burn": self.long_burn,
            "long_burn": self.long_burn,
        }


class _StubPool:
    """The exact surface Autoscaler touches, nothing else."""

    def __init__(self, shards: int, clock) -> None:
        self.shards = [_StubShard(i) for i in range(shards)]
        self._next_index = shards
        self.shed_tenants: set[str] = set()
        self.autoscaler = None
        self.scheduler = _StubScheduler(clock)
        self.slo = _StubSLO()
        self.traces = _StubTraces()

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def add_shard(self):
        shard = _StubShard(self._next_index)
        self._next_index += 1
        self.shards.append(shard)
        return shard

    def remove_shard(self, index=None, timeout=30.0):
        if len(self.shards) <= 1:
            raise ScaleRejectedError(
                "last shard", direction="shrink", reason="min_shards"
            )
        victim = next(s for s in self.shards if s.index == index)
        self.shards.remove(victim)
        return victim


STEPS = st.lists(
    st.tuples(
        st.sampled_from(["ok", "slow_burn", "fast_burn"]),
        st.floats(min_value=0.0, max_value=4.0),  # clock advance
        st.integers(min_value=0, max_value=3),  # busy shards this step
    ),
    min_size=1,
    max_size=60,
)

POLICIES = st.builds(
    FleetPolicy,
    min_shards=st.integers(min_value=1, max_value=2),
    max_shards=st.integers(min_value=2, max_value=6),
    grow_after=st.integers(min_value=1, max_value=3),
    shrink_after=st.integers(min_value=1, max_value=3),
    cooldown_s=st.floats(min_value=0.0, max_value=6.0),
    headroom_burn=st.just(1e9),
)


def _run(policy: FleetPolicy, steps, start_shards: int):
    """Drive one stub fleet through the step stream; returns the
    history of (decision-tuple, shards-after, busy-set-at-decision)."""
    clock = ManualClock()
    pool = _StubPool(start_shards, clock)
    autoscaler = Autoscaler(pool, policy=policy)
    history = []
    for verdict, advance, busy_count in steps:
        for position, shard in enumerate(pool.shards):
            shard.in_flight = 1 if position < busy_count else 0
        busy = {s.index for s in pool.shards if s.in_flight}
        decision = autoscaler.step(verdict=verdict)
        history.append(
            (
                (
                    decision["action"],
                    decision["reason"],
                    decision["shards_after"],
                    decision.get("victim"),
                    decision.get("tenant"),
                ),
                pool.shard_count,
                busy,
            )
        )
        clock.advance(advance)
    return history


@settings(max_examples=200, deadline=None)
@given(policy=POLICIES, steps=STEPS)
def test_shard_count_never_leaves_the_envelope(policy, steps):
    start = policy.min_shards
    for _, shards_after, _ in _run(policy, steps, start):
        assert policy.min_shards <= shards_after <= policy.max_shards


@settings(max_examples=200, deadline=None)
@given(policy=POLICIES, steps=STEPS)
def test_cooldown_separates_every_pair_of_scales(policy, steps):
    clockwise = 0.0
    last_scale_at = None
    history = _run(policy, steps, policy.min_shards)
    for (decision, _, _), (_, advance, _) in zip(history, steps):
        action = decision[0]
        if action in ("grow", "shrink"):
            if last_scale_at is not None:
                assert clockwise - last_scale_at >= policy.cooldown_s
            last_scale_at = clockwise
        clockwise += advance


@settings(max_examples=200, deadline=None)
@given(policy=POLICIES, steps=STEPS)
def test_shrink_never_selects_a_busy_shard(policy, steps):
    for (decision, _, busy) in _run(policy, steps, policy.max_shards):
        action, _, _, victim, _ = decision
        if action == "shrink":
            assert victim is not None
            assert victim not in busy


@settings(max_examples=100, deadline=None)
@given(policy=POLICIES, steps=STEPS, start=st.integers(1, 4))
def test_replaying_the_stream_is_decision_identical(policy, steps, start):
    shards = min(max(start, policy.min_shards), policy.max_shards)
    first = _run(policy, steps, shards)
    second = _run(policy, steps, shards)
    assert [h[0] for h in first] == [h[0] for h in second]


@settings(max_examples=100, deadline=None)
@given(policy=POLICIES, steps=STEPS)
def test_decisions_stay_in_the_closed_vocabulary(policy, steps):
    allowed = {"hold", "grow", "shrink", "shed", "restore"}
    for (decision, _, _) in _run(policy, steps, policy.min_shards):
        assert decision[0] in allowed
