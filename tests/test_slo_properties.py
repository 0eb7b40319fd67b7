"""Property test for the burn-rate evaluator's bucket pruning.

:class:`~repro.observability.slo.BurnRateEvaluator` prunes its bucket
deque only when a record opens a new bucket (and on every read), so a
record that lands in the newest bucket is one locked step.  Under any
monotone :class:`ManualClock` walk and any outcomes, its verdicts must
equal those of a reference that prunes on every record, and its deque
must stay within one bucket per second of the long window plus two.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.slo import BUCKET_S, BurnRateEvaluator, SLOPolicy
from repro.runtime.supervisor import ManualClock


class PrunedOnEveryRecord(BurnRateEvaluator):
    """The reference: every record prunes the window."""

    def record_outcome(self, good: bool) -> None:
        super().record_outcome(good)
        with self._lock:
            self._prune(self.clock())


#: ``(clock step in seconds, outcome good, read the verdict after)``.
steps = st.lists(
    st.tuples(
        st.one_of(
            st.just(0.0),
            st.floats(0.0, 2.5, allow_nan=False),
            st.sampled_from([0.5, 1.0, 7.0, 30.0]),
        ),
        st.booleans(),
        st.booleans(),
    ),
    max_size=300,
)


@given(
    steps=steps,
    long_window_s=st.sampled_from([4.0, 7.5, 10.0]),
)
@settings(max_examples=120, deadline=None)
def test_pruning_on_a_new_bucket_matches_pruning_on_every_record(
    steps, long_window_s
):
    policy = SLOPolicy(
        short_window_s=long_window_s / 2, long_window_s=long_window_s,
        min_events=1,
    )
    clock = ManualClock()
    evaluator = BurnRateEvaluator(policy, clock=clock)
    reference = PrunedOnEveryRecord(policy, clock=clock)
    bound = long_window_s / BUCKET_S + 2
    for step, good, read in steps:
        clock.advance(step)
        evaluator.record_outcome(good)
        reference.record_outcome(good)
        assert len(evaluator._events) <= bound
        if read:
            assert evaluator.evaluate() == reference.evaluate()
    assert evaluator.evaluate() == reference.evaluate()
    for window_s in (policy.short_window_s, long_window_s):
        assert evaluator.burn_rate(window_s) == reference.burn_rate(window_s)
