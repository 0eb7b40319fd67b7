"""Tests for the supervised execution runtime (repro.runtime.supervisor)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    FaultError,
    TransientError,
    WorkloadError,
)
from repro.observability.tracing import BufferedTraceContext, use_trace
from repro.runtime.supervisor import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    Supervisor,
)


class TestManualClock:
    def test_advances(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance(2.5)
        assert clock() == 2.5

    def test_never_backward(self):
        with pytest.raises(ConfigurationError):
            ManualClock().advance(-1.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-0.1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=1.0, max_delay=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_seed=-1)

    def test_delay_deterministic(self):
        policy = RetryPolicy(jitter_seed=7)
        assert policy.delay(2, "k") == policy.delay(2, "k")
        # Different keys/attempts decorrelate.
        assert policy.delay(2, "k") != policy.delay(2, "other")

    @settings(max_examples=200, deadline=None)
    @given(
        attempt=st.integers(min_value=1, max_value=20),
        key=st.text(max_size=30),
    )
    def test_jitter_within_exponential_envelope(self, attempt, key):
        """The satellite property: base <= delay(n) <= 2^n * base."""
        base = 0.05
        policy = RetryPolicy(
            base_delay=base, multiplier=2.0, max_delay=float("inf"),
            jitter_seed=2017,
        )
        delay = policy.delay(attempt, key)
        assert base <= delay <= base * 2.0**attempt

    def test_max_delay_caps_the_envelope(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=3.0)
        for attempt in range(1, 12):
            assert policy.delay(attempt, "k") <= 3.0


class TestCircuitBreaker:
    def test_trips_after_threshold(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=10,
                                 clock=clock)
        for _ in range(3):
            breaker.check("k")
            breaker.record_failure("k")
        assert breaker.is_open("k")
        with pytest.raises(CircuitOpenError):
            breaker.check("k")

    def test_success_resets_count(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure("k")
        breaker.record_success("k")
        breaker.record_failure("k")
        assert not breaker.is_open("k")

    def test_half_open_probe_after_cooldown(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=5,
                                 clock=clock)
        breaker.record_failure("k")
        breaker.record_failure("k")
        with pytest.raises(CircuitOpenError):
            breaker.check("k")
        clock.advance(5.0)
        breaker.check("k")  # the probe is admitted
        breaker.record_failure("k")  # ... and re-trips instantly
        with pytest.raises(CircuitOpenError):
            breaker.check("k")

    def test_keys_are_independent(self):
        breaker = CircuitBreaker(failure_threshold=1)
        breaker.record_failure("sick")
        assert breaker.is_open("sick")
        breaker.check("healthy")


class TestSupervisor:
    def _supervisor(self, **kwargs):
        clock = kwargs.pop("clock", ManualClock())
        kwargs.setdefault(
            "retry", RetryPolicy(max_attempts=3, base_delay=0.01)
        )
        return Supervisor(clock=clock, **kwargs), clock

    def test_first_try_success(self):
        sup, _ = self._supervisor()
        result, report = sup.supervise("k", lambda: 41 + 1)
        assert result == 42
        assert report.status == "ok" and report.attempts == 1

    def test_retries_transients_then_succeeds(self):
        sup, _ = self._supervisor()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("glitch")
            return "done"

        result, report = sup.supervise("k", flaky)
        assert result == "done"
        assert report.status == "retried" and report.attempts == 3
        assert len(report.delays) == 2 and len(report.errors) == 2

    def test_exhausted_retries_reraise_last_error(self):
        sup, _ = self._supervisor()

        def always():
            raise TransientError("never heals")

        with pytest.raises(TransientError):
            sup.supervise("k", always)

    def test_fault_errors_are_retryable_by_default(self):
        sup, _ = self._supervisor()
        calls = {"n": 0}

        def corrupted_once():
            calls["n"] += 1
            if calls["n"] == 1:
                raise FaultError("residue escalation")
            return "healed"

        result, report = sup.supervise("k", corrupted_once)
        assert result == "healed" and report.attempts == 2

    def test_non_retryable_errors_propagate_unchanged(self):
        sup, _ = self._supervisor()
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise WorkloadError("bad shape")

        with pytest.raises(WorkloadError):
            sup.supervise("k", broken)
        assert calls["n"] == 1  # no retries burned on a permanent error

    def test_backoff_advances_the_clock(self):
        sup, clock = self._supervisor()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise TransientError("glitch")
            return True

        _, report = sup.supervise("k", flaky)
        assert clock() == pytest.approx(sum(report.delays))

    def test_deadline_exceeded_after_completion(self):
        sup, clock = self._supervisor(deadline_s=10.0)

        def slow():
            clock.advance(11.0)
            return "late"

        with pytest.raises(DeadlineExceededError):
            sup.supervise("k", slow)

    def test_deadline_stops_retry_loop(self):
        sup, clock = self._supervisor(
            deadline_s=5.0,
            retry=RetryPolicy(max_attempts=10, base_delay=0.01),
        )

        def slow_and_flaky():
            clock.advance(3.0)
            raise TransientError("glitch")

        with pytest.raises(DeadlineExceededError):
            sup.supervise("k", slow_and_flaky)

    def test_within_deadline_succeeds(self):
        sup, clock = self._supervisor(deadline_s=10.0)

        def quick():
            clock.advance(1.0)
            return "fine"

        result, report = sup.supervise("k", quick)
        assert result == "fine" and report.elapsed_s == pytest.approx(1.0)

    def test_breaker_opens_and_blocks_without_calling(self):
        clock = ManualClock()
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=100,
                                 clock=clock)
        sup, _ = self._supervisor(
            clock=clock, breaker=breaker,
            retry=RetryPolicy(max_attempts=1),
        )
        calls = {"n": 0}

        def dying():
            calls["n"] += 1
            raise TransientError("dead config")

        for _ in range(2):
            with pytest.raises(TransientError):
                sup.supervise("k", dying)
        with pytest.raises(CircuitOpenError):
            sup.supervise("k", dying)
        assert calls["n"] == 2  # the open breaker never invoked fn

    def test_ambient_trace_sees_the_timeline(self):
        sink = BufferedTraceContext()
        sup, _ = self._supervisor()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 2:
                raise TransientError("glitch")
            return True

        with use_trace(sink):
            sup.supervise("k", flaky)
        events = [e["kind"] for e in sink.drain() if e["layer"] == "supervisor"]
        assert events == ["attempt", "retry", "attempt", "success"]

    def test_bad_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            Supervisor(deadline_s=0.0)
