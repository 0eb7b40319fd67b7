"""Property tests for the streaming quantile sketch.

The sketch's headline claim is *self-certification*: every quantile it
reports is within :meth:`~repro.observability.sketch.QuantileSketch.rank_error`
ranks of the truth, and merging sums the certificates.  These tests
assert against the sketch's own certificate — not a folklore constant —
under arbitrary observation streams, plus the structural invariants the
serving layer relies on (monotone quantiles, exact extremes, exactness
before the first compaction).
"""

from __future__ import annotations

import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ObservabilityError
from repro.observability.sketch import (
    TAIL_QUANTILES,
    LatencyAnalytics,
    QuantileSketch,
)

latencies = st.lists(
    st.floats(
        min_value=0.0, max_value=1e6,
        allow_nan=False, allow_infinity=False,
    ),
    min_size=1, max_size=600,
)

QUANTILE_GRID = (0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)


def _rank_bounds(sorted_values: list[float], value: float) -> tuple[int, int]:
    """The true rank range of ``value``: [#(< value), #(<= value)]."""
    import bisect

    return (
        bisect.bisect_left(sorted_values, value),
        bisect.bisect_right(sorted_values, value),
    )


def _max_weight(sketch: QuantileSketch) -> int:
    return max(
        (1 << level for level, buf in enumerate(sketch._levels) if buf),
        default=1,
    )


def _assert_within_certificate(
    sketch: QuantileSketch, values: list[float]
) -> None:
    ordered = sorted(values)
    n = len(ordered)
    # The certificate bounds the rank displacement from compactions; one
    # item's weight covers the discretisation of landing inside a
    # weight-2^l block when cumulative weight first crosses the target.
    slack = sketch.rank_error() + _max_weight(sketch)
    for q in QUANTILE_GRID:
        estimate = sketch.quantile(q)
        low, high = _rank_bounds(ordered, estimate)
        target = q * n
        assert low - slack <= target <= high + slack, (
            q, estimate, low, high, target, slack,
        )


class TestRankErrorCertificate:
    @given(values=latencies)
    @settings(max_examples=80, deadline=None)
    def test_quantiles_within_the_certificate(self, values):
        sketch = QuantileSketch(capacity=32)
        for value in values:
            sketch.observe(value)
        _assert_within_certificate(sketch, values)

    @given(values=latencies)
    @settings(max_examples=80, deadline=None)
    def test_quantiles_are_monotone_in_q(self, values):
        sketch = QuantileSketch(capacity=32)
        for value in values:
            sketch.observe(value)
        estimates = [sketch.quantile(q) for q in QUANTILE_GRID]
        assert all(
            later >= earlier
            for earlier, later in zip(estimates, estimates[1:])
        )

    @given(values=latencies)
    @settings(max_examples=80, deadline=None)
    def test_extremes_and_moments_are_exact(self, values):
        sketch = QuantileSketch(capacity=32)
        for value in values:
            sketch.observe(value)
        assert sketch.quantile(0.0) == min(values)
        assert sketch.quantile(1.0) == max(values)
        assert sketch.count == len(values)
        assert sketch.sum == pytest.approx(math.fsum(values))

    @given(
        values=st.lists(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=32,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_exact_until_first_compaction(self, values):
        """With n <= capacity no compaction runs: certificate zero and
        every quantile is a true order statistic."""
        sketch = QuantileSketch(capacity=32)
        for value in values:
            sketch.observe(value)
        assert sketch.rank_error() == 0
        ordered = sorted(values)
        for q in QUANTILE_GRID[1:-1]:
            rank = max(0, math.ceil(q * len(ordered)) - 1)
            assert sketch.quantile(q) == ordered[rank]


class TestEdges:
    def test_empty_sketch_answers_nan(self):
        sketch = QuantileSketch()
        assert math.isnan(sketch.quantile(0.5))
        assert math.isnan(sketch.mean)
        assert sketch.count == 0

    def test_nan_observation_rejected(self):
        with pytest.raises(ObservabilityError):
            QuantileSketch().observe(float("nan"))

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ObservabilityError):
            QuantileSketch(capacity=4)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ObservabilityError):
            QuantileSketch().quantile(1.5)

    def test_summary_carries_tail_quantiles_and_certificate(self):
        sketch = QuantileSketch()
        for index in range(100):
            sketch.observe(index / 100.0)
        summary = sketch.summary()
        assert set(TAIL_QUANTILES) <= set(summary)
        assert summary["count"] == 100
        assert summary["rank_error"] == 0


def _walk(sketch: QuantileSketch, q: float) -> float:
    """The reference quantile: walk the sorted weighted samples until the
    cumulative weight reaches ``q * count``."""
    if q == 0.0:
        return sketch.min
    if q == 1.0:
        return sketch.max
    items = sketch._weighted()
    cumulative = 0
    for value, weight in items:
        cumulative += weight
        if cumulative >= q * sketch.count:
            return value
    return items[-1][0]


class CountingLock:
    """A lock that counts how often it is entered and runs
    ``after_release``, if set, each time it is left."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entered = 0
        self.after_release = None

    def __enter__(self):
        self.entered += 1
        return self.lock.__enter__()

    def __exit__(self, *exc):
        self.lock.__exit__(*exc)
        if self.after_release is not None:
            self.after_release()


class TestSummary:
    @given(values=latencies)
    @settings(max_examples=80, deadline=None)
    def test_summary_equals_the_quantiles(self, values):
        """Every tail quantile of ``summary()`` is ``quantile(q)``, and
        both are the reference walk over the weighted samples."""
        sketch = QuantileSketch(capacity=8)
        for value in values:
            sketch.observe(value)
        summary = sketch.summary()
        for name, q in TAIL_QUANTILES.items():
            assert summary[name] == sketch.quantile(q) == _walk(sketch, q)
        assert (summary["count"], summary["min"], summary["max"]) == (
            sketch.count, sketch.min, sketch.max,
        )
        assert summary["mean"] == sketch.mean
        assert summary["rank_error"] == sketch.rank_error()

    def test_summary_takes_one_lock_and_one_sort(self):
        sketch = QuantileSketch(capacity=8)
        for index in range(100):
            sketch.observe(float(index))
        lock = sketch._lock = CountingLock()
        sorts = []
        weighted = sketch._weighted

        def counted():
            sorts.append(1)
            return weighted()

        sketch._weighted = counted
        sketch.summary()
        assert (lock.entered, len(sorts)) == (1, 1)

    def test_a_writer_between_lock_sections_cannot_tear_a_summary(self):
        """A writer lands after every release of the sketch's lock: each
        summary field must still come from one snapshot, so no tail
        quantile exceeds the max and the mean matches the count."""
        sketch = QuantileSketch(capacity=64)
        for index in range(100):
            sketch.observe(float(index))
        lock = sketch._lock = CountingLock()

        def write() -> None:  # the next value, as a writer would add it
            with lock.lock:
                sketch._ingest(float(sketch._count))

        lock.after_release = write
        summary = sketch.summary()
        count = summary["count"]
        assert summary["max"] == count - 1
        assert summary["mean"] == (count - 1) / 2
        assert max(summary[name] for name in TAIL_QUANTILES) <= summary["max"]


class TestLatencyAnalytics:
    def test_layers_are_independent_and_summarised(self):
        analytics = LatencyAnalytics()
        analytics.observe("queue_wait", 0.001)
        analytics.observe("service", 0.2)
        analytics.observe("e2e", 0.201)
        assert analytics.layers() == ("e2e", "queue_wait", "service")
        summary = analytics.summary()
        assert summary["service"]["count"] == 1
        assert summary["queue_wait"]["max"] == 0.001

    def test_sketch_identity_is_stable_per_layer(self):
        analytics = LatencyAnalytics()
        assert analytics.sketch("e2e") is analytics.sketch("e2e")

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.tuples(
            st.floats(0.0, 1.0, allow_nan=False),
            st.floats(0.0, 1.0, allow_nan=False),
        ),
        max_size=1500,
    ))
    def test_observe_request_matches_three_observes(self, requests):
        """One locked ingest of a request's three layers leaves every
        sketch exactly as three separate observes do."""
        together, apart = LatencyAnalytics(capacity=16), LatencyAnalytics(
            capacity=16
        )
        for wait, service in requests:
            together.observe_request(wait, service, wait + service)
            apart.observe("queue_wait", wait)
            apart.observe("service", service)
            apart.observe("e2e", wait + service)
        assert together.layers() == apart.layers()
        for layer in apart.layers():
            mine, theirs = together.sketch(layer), apart.sketch(layer)
            assert mine._levels == theirs._levels
            assert mine.summary() == theirs.summary()

    def test_observe_request_rejects_nan_before_ingesting(self):
        analytics = LatencyAnalytics()
        with pytest.raises(ObservabilityError):
            analytics.observe_request(0.0, math.nan, 0.0)
        assert analytics.layers() == ()
