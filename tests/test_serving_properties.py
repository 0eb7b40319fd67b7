"""Property tests of the scheduler invariants (hypothesis-driven).

The invariants the serving layer's correctness rests on, pinned over
randomised submission traces rather than hand-picked examples:

- conservation: every admitted request is dispatched exactly once —
  none lost, none duplicated;
- FIFO within a priority class *per tenant and batch key* (coalescing
  may overtake other keys, never an earlier same-key request);
- no dispatched batch exceeds ``max_batch_size`` and every batch shares
  one batch key;
- admission never over-admits: a class's queued depth never exceeds
  ``queue_capacity``.

``max_wait_s=0`` keeps dispatch synchronous — the properties are about
ordering and conservation, not timing.
"""

from __future__ import annotations

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AdmissionRejectedError
from repro.serving.scheduler import (
    BatchingScheduler,
    ServeRequest,
    ServingConfig,
)

# One submission: (workload index, relax bits, tenant index, priority).
submissions = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.sampled_from([0, 8, 16]),
        st.integers(0, 2),
        st.integers(0, 1),
    ),
    min_size=1,
    max_size=60,
)

configs = st.builds(
    ServingConfig,
    max_batch_size=st.integers(1, 8),
    max_wait_s=st.just(0.0),
    queue_capacity=st.integers(1, 16),
    priorities=st.just(2),
    default_priority=st.just(0),
)

WORKLOADS = ["Sobel", "Robert", "FFT"]


def submit_all(scheduler, trace):
    """Submit a trace; returns (admitted ids in order, rejected count)."""
    admitted, rejected = [], 0
    for workload, relax, tenant, priority in trace:
        request = ServeRequest(
            id=scheduler.next_id(f"t{tenant}"),
            workload=WORKLOADS[workload],
            relax_bits=relax,
            tenant=f"t{tenant}",
            priority=priority,
        )
        try:
            scheduler.submit(request, False, lambda _: None)
            admitted.append(request.id)
        except AdmissionRejectedError:
            rejected += 1
    return admitted, rejected


def drain(scheduler):
    """Pull batches until empty; returns the list of batches."""
    batches = []
    while True:
        batch = scheduler.next_batch(timeout=0.0)
        if not batch:
            return batches
        batches.append(batch)


class TestSchedulerProperties:
    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_conservation_no_lost_no_duplicated(self, trace, config):
        scheduler = BatchingScheduler(config)
        admitted, rejected = submit_all(scheduler, trace)
        dispatched = [r.id for batch in drain(scheduler) for r in batch]
        assert sorted(dispatched) == sorted(admitted)
        assert len(admitted) + rejected == len(trace)

    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_fifo_within_priority_tenant_and_key(self, trace, config):
        scheduler = BatchingScheduler(config)
        submit_all(scheduler, trace)
        seen = defaultdict(list)
        for batch in drain(scheduler):
            for request in batch:
                seen[
                    (request.priority, request.tenant, request.batch_key)
                ].append(request.id)
        for ids in seen.values():
            # ids encode the admission sequence number, so FIFO within a
            # (priority, tenant, key) stream means sorted dispatch order.
            assert ids == sorted(ids)

    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_batches_bounded_and_key_pure(self, trace, config):
        scheduler = BatchingScheduler(config)
        submit_all(scheduler, trace)
        for batch in drain(scheduler):
            assert 1 <= len(batch) <= config.max_batch_size
            assert len({request.batch_key for request in batch}) == 1

    @given(trace=submissions, config=configs)
    @settings(max_examples=60, deadline=None)
    def test_admission_never_exceeds_capacity(self, trace, config):
        scheduler = BatchingScheduler(config)
        for workload, relax, tenant, priority in trace:
            request = ServeRequest(
                id=scheduler.next_id(f"t{tenant}"),
                workload=WORKLOADS[workload],
                relax_bits=relax,
                tenant=f"t{tenant}",
                priority=priority,
            )
            try:
                scheduler.submit(request, False, lambda _: None)
            except AdmissionRejectedError:
                # Rejection must mean that class genuinely is full.
                assert scheduler.depth(priority) == config.queue_capacity
            assert scheduler.depth(priority) <= config.queue_capacity

    @given(trace=submissions)
    @settings(max_examples=30, deadline=None)
    def test_priority_classes_drain_in_order(self, trace):
        """With both classes populated, no class-1 request is dispatched
        while class 0 still holds one (single consumer, no new arrivals)."""
        scheduler = BatchingScheduler(
            ServingConfig(
                max_wait_s=0.0, priorities=2, default_priority=0,
                queue_capacity=128,
            )
        )
        submit_all(scheduler, trace)
        for batch in drain(scheduler):
            batch_class = batch[0].priority
            if batch_class > 0:
                assert scheduler.depth(0) == 0
