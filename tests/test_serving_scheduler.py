"""BatchingScheduler / ResultStore unit contract.

Deterministic, no threads except where concurrency is the thing under
test: admission control (queue-full and deadline rejections), priority
ordering, tenant fair share, same-key batch coalescing, and the
ResultStore's exactly-once completion tripwire.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import AdmissionRejectedError, ConfigurationError, ServingError
from repro.serving.scheduler import (
    BatchingScheduler,
    ResultStore,
    ServeRequest,
    ServeResult,
    ServingConfig,
)


def make_request(
    scheduler,
    workload="Sobel",
    relax_bits=0,
    tenant="t",
    priority=1,
    deadline_at=None,
):
    return ServeRequest(
        id=scheduler.next_id(tenant),
        workload=workload,
        relax_bits=relax_bits,
        tenant=tenant,
        priority=priority,
        deadline_at=deadline_at,
    )


def no_commit(request):
    """The commit step these tests pass: ``make_request`` minted the id
    already, and no trace or result store is in play."""


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestConfigValidation:
    def test_defaults_valid(self):
        ServingConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait_s": -0.1},
            {"queue_capacity": 0},
            {"priorities": 0},
            {"default_priority": 5},
            {"retry_after_s": -1.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServingConfig(**kwargs)


class TestAdmission:
    def test_queue_full_rejects_with_retry_after(self):
        config = ServingConfig(queue_capacity=2, retry_after_s=0.123)
        scheduler = BatchingScheduler(config)
        scheduler.submit(make_request(scheduler), False, no_commit)
        scheduler.submit(make_request(scheduler), False, no_commit)
        with pytest.raises(AdmissionRejectedError) as info:
            scheduler.submit(make_request(scheduler), False, no_commit)
        assert info.value.retry_after_s == 0.123
        assert scheduler.rejected["queue_full"] == 1
        assert scheduler.admitted == 2

    def test_capacity_is_per_priority_class(self):
        config = ServingConfig(queue_capacity=1, priorities=2,
                               default_priority=0)
        scheduler = BatchingScheduler(config)
        scheduler.submit(make_request(scheduler, priority=0), False, no_commit)
        scheduler.submit(make_request(scheduler, priority=1), False, no_commit)
        with pytest.raises(AdmissionRejectedError):
            scheduler.submit(make_request(scheduler, priority=1), False, no_commit)

    def test_deadline_with_no_history_admits(self):
        """Until a service time exists the delay estimate is zero, so any
        positive slack admits."""
        clock = FakeClock()
        scheduler = BatchingScheduler(clock=clock)
        scheduler.submit(make_request(scheduler, deadline_at=0.5), False, no_commit)
        assert scheduler.admitted == 1

    def test_deadline_slack_below_estimated_delay_rejects(self):
        clock = FakeClock()
        scheduler = BatchingScheduler(clock=clock)
        scheduler.register_worker()
        scheduler.note_service_time(1.0)  # EMA = 1s per request
        # A backlog of 1 => ~1s delay.
        scheduler.submit(make_request(scheduler), False, no_commit)
        with pytest.raises(AdmissionRejectedError):
            scheduler.submit(make_request(scheduler, deadline_at=0.5), False, no_commit)
        assert scheduler.rejected["deadline"] == 1
        # generous slack still admits past the same backlog
        scheduler.submit(make_request(scheduler, deadline_at=10.0), False, no_commit)

    def test_expired_deadline_rejected_at_the_door(self):
        clock = FakeClock()
        clock.now = 5.0
        scheduler = BatchingScheduler(clock=clock)
        with pytest.raises(AdmissionRejectedError):
            scheduler.submit(make_request(scheduler, deadline_at=4.0), False, no_commit)

    def test_closed_scheduler_refuses(self):
        scheduler = BatchingScheduler()
        scheduler.close()
        with pytest.raises(ServingError):
            scheduler.submit(make_request(scheduler), False, no_commit)
        assert scheduler.rejected["closed"] == 1

    def test_block_waits_for_space(self):
        config = ServingConfig(queue_capacity=1)
        scheduler = BatchingScheduler(config)
        scheduler.submit(make_request(scheduler), False, no_commit)
        admitted = threading.Event()

        def blocked_submit():
            scheduler.submit(
                make_request(scheduler, tenant="u"), True, no_commit
            )
            admitted.set()

        thread = threading.Thread(target=blocked_submit, daemon=True)
        thread.start()
        assert not admitted.wait(0.05)  # parked, not rejected
        assert scheduler.next_batch(timeout=0.0)  # frees a slot
        assert admitted.wait(2.0)
        thread.join(timeout=2.0)
        assert scheduler.admitted == 2

    def test_slow_commits_never_over_admit(self):
        """Submitters race through a slow commit step run outside the
        lock: the slots they hold count against capacity, so the class
        queues exactly ``queue_capacity`` and refuses the rest."""
        scheduler = BatchingScheduler(ServingConfig(queue_capacity=3))
        committed, outcomes = [], []

        def commit(request):
            time.sleep(0.001)
            committed.append(request.id)

        def submit():
            try:
                scheduler.submit(make_request(scheduler), False, commit)
                outcomes.append("queued")
            except AdmissionRejectedError:
                outcomes.append("refused")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit) for _ in range(16)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert outcomes.count("queued") == 3 == len(committed)
        assert scheduler.depth() == 3 == scheduler.admitted
        assert outcomes.count("refused") == 13
        assert scheduler.rejected["queue_full"] == 13

    def test_failed_commit_gives_its_slot_back(self):
        scheduler = BatchingScheduler(ServingConfig(queue_capacity=1))

        def broken(_request):
            raise RuntimeError("commit failed")

        with pytest.raises(RuntimeError):
            scheduler.submit(make_request(scheduler), False, broken)
        assert scheduler.depth() == 0 and scheduler.admitted == 0
        scheduler.submit(make_request(scheduler), False, no_commit)  # the slot is free
        assert scheduler.depth() == 1

    @staticmethod
    def _park_a_commit(scheduler, request):
        """Start a submit whose commit step blocks until the returned
        event is set; returns (release event, submitter thread)."""
        entered, release = threading.Event(), threading.Event()

        def commit(_request):
            entered.set()
            release.wait(5.0)

        submitter = threading.Thread(
            target=scheduler.submit, args=(request, False, commit),
        )
        submitter.start()
        assert entered.wait(2.0)
        return release, submitter

    def test_close_waits_for_a_commit_in_flight(self):
        """A submit that passed its checks before close() is queued by
        the time close() returns, so the drain after it sees the request
        instead of stranding it in a closed queue."""
        scheduler = BatchingScheduler()
        request = make_request(scheduler)
        release, submitter = self._park_a_commit(scheduler, request)
        depth_at_close = []
        closer = threading.Thread(
            target=lambda: (
                scheduler.close(), depth_at_close.append(scheduler.depth())
            ),
        )
        closer.start()
        closer.join(timeout=0.05)
        assert closer.is_alive()  # parked behind the commit
        release.set()
        closer.join(timeout=2.0)
        submitter.join(timeout=2.0)
        assert not closer.is_alive() and not submitter.is_alive()
        assert depth_at_close == [1] and scheduler.admitted == 1
        assert scheduler.next_batch(timeout=0.0) == [request]
        with pytest.raises(ServingError):
            scheduler.submit(make_request(scheduler), False, no_commit)

    def test_deadline_estimate_counts_commits_in_flight(self):
        """A slot held by a running commit is backlog the next request
        will queue behind, so deadline admission counts it."""
        clock = FakeClock()
        scheduler = BatchingScheduler(clock=clock)
        scheduler.register_worker()
        scheduler.note_service_time(1.0)  # EMA = 1s per request
        release, submitter = self._park_a_commit(
            scheduler, make_request(scheduler)
        )
        try:
            assert scheduler.estimated_delay_s() == pytest.approx(1.0)
            with pytest.raises(AdmissionRejectedError):
                scheduler.submit(
                    make_request(scheduler, deadline_at=0.5), False, no_commit
                )
        finally:
            release.set()
            submitter.join(timeout=2.0)
        assert scheduler.rejected["deadline"] == 1
        assert scheduler.depth() == 1 == scheduler.admitted


class TestDispatchOrder:
    def test_priority_zero_first(self):
        scheduler = BatchingScheduler(ServingConfig(max_wait_s=0.0))
        low = make_request(scheduler, workload="Sobel", priority=2)
        high = make_request(scheduler, workload="FFT", priority=0)
        scheduler.submit(low, False, no_commit)
        scheduler.submit(high, False, no_commit)
        batch = scheduler.next_batch(timeout=0.0)
        assert batch[0].id == high.id

    def test_fifo_within_tenant_and_key(self):
        scheduler = BatchingScheduler(ServingConfig(max_wait_s=0.0))
        first = make_request(scheduler)
        second = make_request(scheduler)
        scheduler.submit(first, False, no_commit)
        scheduler.submit(second, False, no_commit)
        batch = scheduler.next_batch(timeout=0.0)
        assert [r.id for r in batch] == [first.id, second.id]

    def test_round_robin_across_tenants(self):
        """Distinct-key requests from two tenants alternate: no tenant's
        backlog starves the other."""
        scheduler = BatchingScheduler(ServingConfig(max_wait_s=0.0))
        for index in range(3):
            scheduler.submit(
                make_request(scheduler, workload="Sobel",
                             relax_bits=index, tenant="a"),
                False, no_commit,
            )
        scheduler.submit(
            make_request(scheduler, workload="FFT", tenant="b"),
            False, no_commit,
        )
        heads = [scheduler.next_batch(timeout=0.0)[0].tenant
                 for _ in range(4)]
        assert heads[:2] in (["a", "b"], ["b", "a"])
        assert set(heads) == {"a", "b"}

    def test_same_key_coalesces_across_tenants(self):
        scheduler = BatchingScheduler(ServingConfig(max_wait_s=0.0))
        for tenant in ("a", "b", "a", "b"):
            scheduler.submit(make_request(scheduler, tenant=tenant), False, no_commit)
        batch = scheduler.next_batch(timeout=0.0)
        assert len(batch) == 4
        assert len({r.batch_key for r in batch}) == 1

    def test_batch_respects_max_batch_size(self):
        scheduler = BatchingScheduler(
            ServingConfig(max_batch_size=3, max_wait_s=0.0)
        )
        for _ in range(5):
            scheduler.submit(make_request(scheduler), False, no_commit)
        assert len(scheduler.next_batch(timeout=0.0)) == 3
        assert len(scheduler.next_batch(timeout=0.0)) == 2

    def test_coalescing_never_overtakes_same_key(self):
        """A later same-key request cannot jump an earlier one, even when
        a different key sits between them."""
        scheduler = BatchingScheduler(
            ServingConfig(max_batch_size=2, max_wait_s=0.0)
        )
        first = make_request(scheduler, workload="Sobel")
        other = make_request(scheduler, workload="FFT")
        third = make_request(scheduler, workload="Sobel")
        for request in (first, other, third):
            scheduler.submit(request, False, no_commit)
        batch = scheduler.next_batch(timeout=0.0)
        assert [r.id for r in batch] == [first.id, third.id]
        assert scheduler.next_batch(timeout=0.0)[0].id == other.id

    def test_empty_queue_times_out_empty(self):
        scheduler = BatchingScheduler()
        assert scheduler.next_batch(timeout=0.0) == []

    def test_requeue_goes_to_the_front(self):
        scheduler = BatchingScheduler(ServingConfig(max_wait_s=0.0))
        first = make_request(scheduler, workload="Sobel")
        second = make_request(scheduler, workload="FFT")
        scheduler.submit(first, False, no_commit)
        scheduler.submit(second, False, no_commit)
        batch = scheduler.next_batch(timeout=0.0)
        scheduler.requeue(batch)
        assert batch[0].reroutes == 1
        again = scheduler.next_batch(timeout=0.0)
        assert [r.id for r in again] == [r.id for r in batch]
        assert scheduler.next_batch(timeout=0.0)[0].id == second.id

    def test_depth_and_stats_track_queues(self):
        scheduler = BatchingScheduler(ServingConfig(max_wait_s=0.0))
        scheduler.submit(make_request(scheduler, priority=0), False, no_commit)
        scheduler.submit(make_request(scheduler, priority=2), False, no_commit)
        assert scheduler.depth() == 2
        assert scheduler.depth(0) == 1
        stats = scheduler.stats()
        assert stats["depths"][0] == 1 and stats["depths"][2] == 1
        assert stats["admitted"] == 2


class TestResultStore:
    def make_result(self, request_id, status="ok"):
        return ServeResult(
            id=request_id, tenant="t", workload="Sobel",
            relax_bits=0, dataset_bytes=1, status=status,
        )

    def test_register_complete_roundtrip(self):
        store = ResultStore()
        store.register("r-1")
        assert store.status("r-1") == "pending"
        store.complete(self.make_result("r-1"))
        assert store.status("r-1") == "done"
        assert store.wait("r-1", timeout=0.0).status == "ok"

    def test_double_register_raises(self):
        store = ResultStore()
        store.register("r-1")
        with pytest.raises(ServingError):
            store.register("r-1")

    def test_double_complete_raises(self):
        """The double-execution tripwire."""
        store = ResultStore()
        store.register("r-1")
        store.complete(self.make_result("r-1"))
        with pytest.raises(ServingError):
            store.complete(self.make_result("r-1"))

    def test_wait_on_unknown_id_raises(self):
        store = ResultStore()
        with pytest.raises(ServingError):
            store.wait("nope", timeout=0.0)

    def test_wait_timeout_returns_none(self):
        store = ResultStore()
        store.register("r-1")
        assert store.wait("r-1", timeout=0.0) is None

    def test_eviction_is_oldest_first_and_counted(self):
        store = ResultStore(capacity=2)
        for index in range(3):
            store.register(f"r-{index}")
            store.complete(self.make_result(f"r-{index}"))
        assert store.evicted == 1
        assert store.get("r-0") is None
        assert store.get("r-2") is not None

    def test_invalid_status_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_result("r-1", status="vanished")

    def test_result_stays_frozen(self):
        import dataclasses

        result = self.make_result("r-1")
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.status = "failed"
        assert dataclasses.replace(result, status="failed").status == "failed"

    def test_restore_publishes_an_unregistered_id(self):
        """The one publish step of a hit answered at admission and of a
        journal restore: register and complete together."""
        store = ResultStore()
        store.restore(self.make_result("r-1"))
        assert store.status("r-1") == "done"
        assert store.pending == 0
        assert store.wait("r-1", timeout=0.0).status == "ok"

    @staticmethod
    def _journaled(result):
        from repro.serving.journal import serve_result_from_dict

        return serve_result_from_dict(result.to_dict())

    @pytest.mark.parametrize("state", ["pending", "done", "tombstoned"])
    @pytest.mark.parametrize("kind", ["hit", "journal"])
    def test_restore_tripwire_fires_on_a_known_id(self, state, kind):
        """A hit or a journal restore of an id the store already knows
        (pending, done or tombstoned) raises and changes nothing."""
        store = ResultStore(capacity=1)
        store.register("r-1")
        if state != "pending":
            store.complete(self.make_result("r-1", "failed"))
        if state == "tombstoned":
            store.restore(self.make_result("r-2"))
        assert store.status("r-1") == {
            "pending": "pending", "done": "done", "tombstoned": "evicted",
        }[state]
        result = self.make_result("r-1")
        if kind == "journal":
            result = self._journaled(result)
        with pytest.raises(ServingError):
            store.restore(result)
        after = store.lookup("r-1")
        if state == "done":
            assert after[1].status == "failed"
        else:
            assert after[0] == ("pending" if state == "pending" else "evicted")

    def test_completed_property_matches_campaign_semantics(self):
        for status in ("ok", "retried", "degraded", "fallback"):
            assert self.make_result("a", status).completed
        for status in ("failed", "expired", "error"):
            assert not self.make_result("a", status).completed


class TestWakeups:
    """Notifies are skipped when nobody waits, so a waiter must still be
    woken at once: the timeouts here are long enough that a lost wakeup
    fails the test instead of merely slowing it."""

    def test_submit_wakes_an_idle_consumer(self):
        scheduler = BatchingScheduler()
        got = []
        consumer = threading.Thread(
            target=lambda: got.append(scheduler.next_batch(timeout=30.0))
        )
        consumer.start()
        while scheduler._idle == 0:  # parked in next_batch
            threading.Event().wait(0.001)
        scheduler.submit(make_request(scheduler), False, no_commit)
        consumer.join(timeout=5.0)
        assert not consumer.is_alive()
        assert len(got[0]) == 1

    def test_complete_wakes_a_waiter(self):
        store = ResultStore()
        store.register("r-1")
        got = []
        waiter = threading.Thread(
            target=lambda: got.append(store.wait("r-1", timeout=30.0))
        )
        waiter.start()
        while store._waiters == 0:  # parked in wait
            threading.Event().wait(0.001)
        store.complete(TestResultStore().make_result("r-1"))
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert got[0].status == "ok"

    def test_producers_and_consumers_under_contention(self):
        """More threads than cores on a two-slot queue, switching often:
        every request is dispatched exactly once and nobody is stranded."""
        import sys

        scheduler = BatchingScheduler(ServingConfig(queue_capacity=2))
        per_producer, producers, consumers = 100, 4, 4
        total = per_producer * producers
        taken: list[str] = []
        lock = threading.Lock()

        def produce(tenant: str) -> None:
            for _ in range(per_producer):
                scheduler.submit(make_request(scheduler, tenant=tenant),
                                 True, no_commit)

        def consume() -> None:
            while True:
                with lock:
                    if len(taken) >= total:
                        return
                batch = scheduler.next_batch(timeout=0.5)
                with lock:
                    taken.extend(request.id for request in batch)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=produce, args=(f"p{i}",))
                for i in range(producers)
            ] + [threading.Thread(target=consume) for _ in range(consumers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert len(taken) == len(set(taken)) == total
        assert scheduler.queued == 0 and scheduler.depth() == 0
