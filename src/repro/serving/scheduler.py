"""Request queueing: bounded priority queues, batching, admission control.

The serving layer's brain.  A :class:`BatchingScheduler` owns one bounded
queue per priority class (0 is most urgent); within a class, requests are
kept per tenant and dispatched round-robin across tenants (fair share) and
FIFO within a tenant.  Shard workers pull :meth:`next_batch`, which
coalesces queued requests that share a *batch key* — identical
``(workload, relax_bits, dataset_bytes)`` — up to ``max_batch_size``,
optionally waiting up to ``max_wait_s`` for stragglers (default 0: no
wait).  Coalescing used to buy tile-cache locality; now that every shard
reads one process-wide priced-point and tile memo, a batch mostly saves
per-batch dispatch work, so only requests already queued are joined.

Admission control runs at :meth:`submit` time and never over-admits:

- a full priority class rejects with
  :class:`~repro.errors.AdmissionRejectedError` carrying ``retry_after_s``
  (backpressure: clients resubmit later instead of queueing unboundedly);
- a request whose relative deadline is already shorter than the estimated
  queue delay (backlog x a service-time EMA over active shards) is
  rejected immediately — better a fast "no" than a guaranteed-late "yes";
- internal submitters (journal replay, closed-loop clients) pass
  ``block=True`` to wait for capacity instead of being rejected.

Each refusal is decided before the submitter's commit step runs, so a
refused request leaves nothing behind.  Every admitted request is
registered in a :class:`ResultStore` before it becomes visible to
workers (a hit answered in the commit step is never visible: it is
registered and completed in one step), and every terminal path writes
exactly one result — the no-lost/no-duplicated invariant the property
tests pin.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

from repro.errors import AdmissionRejectedError, ConfigurationError, ServingError
from repro.observability.instruments import (
    RESULT_EVICTIONS,
    SERVING_ADMISSION,
    SERVING_BATCH_SIZE,
    SERVING_QUEUE_DEPTH,
)
from repro.units import MIB

#: Fixed-label series of the warm path's scheduler writes.
_ADMITTED = SERVING_ADMISSION.series(outcome="admitted")
_BATCH_SIZE = SERVING_BATCH_SIZE.series()
_EVICTIONS = {
    reason: RESULT_EVICTIONS.series(reason=reason)
    for reason in ("capacity", "ttl")
}

if TYPE_CHECKING:
    from repro.observability.tracing import TraceContext
    from repro.runtime.campaign import CampaignPoint

__all__ = [
    "BatchingScheduler",
    "ResultStore",
    "ServeRequest",
    "ServeResult",
    "ServingConfig",
]

#: Statuses a served request can end in.  The first five mirror the
#: campaign's terminal statuses (the point completed, possibly rescued);
#: ``expired`` means the deadline passed while queued, ``error`` means the
#: shard hit an unexpected exception — terminal either way, never lost.
RESULT_STATUSES = (
    "ok", "retried", "degraded", "fallback", "failed", "expired", "error",
)

#: EMA smoothing of the per-request service-time estimate that feeds
#: deadline admission (higher tracks faster).
_SERVICE_EMA_ALPHA = 0.2
#: Evicted result ids a :class:`ResultStore` remembers as tombstones.
_TOMBSTONES = 8192


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the batching scheduler and admission controller."""

    #: Coalescing ceiling: a dispatched batch never exceeds this.
    max_batch_size: int = 8
    #: How long a partially filled batch waits for same-key stragglers.
    #: 0 joins only requests already queued: the process-wide tile memo
    #: makes every key warm on every shard, so a wait buys no locality.
    max_wait_s: float = 0.0
    #: Bounded capacity of each priority class (across its tenants).
    queue_capacity: int = 64
    #: Number of priority classes; 0 is served first.
    priorities: int = 3
    #: Class assigned when a request does not name one.
    default_priority: int = 1
    #: Suggested client backoff in a queue-full rejection.
    retry_after_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be at least 1")
        if self.max_wait_s < 0:
            raise ConfigurationError("max_wait_s must be non-negative")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be at least 1")
        if self.priorities < 1:
            raise ConfigurationError("need at least one priority class")
        if not 0 <= self.default_priority < self.priorities:
            raise ConfigurationError(
                f"default_priority {self.default_priority} outside "
                f"[0, {self.priorities})"
            )
        if self.retry_after_s < 0:
            raise ConfigurationError("retry_after_s must be non-negative")


@dataclass(slots=True)
class ServeRequest:
    """One unit of client work: price a workload point on the pool."""

    id: str
    workload: str
    relax_bits: int = 0
    dataset_bytes: int = int(64 * MIB)
    tenant: str = "default"
    priority: int = 1
    #: Absolute (scheduler-clock) expiry, or None for no deadline.
    deadline_at: float | None = None
    submitted_at: float = 0.0
    #: Times the request was pushed back after landing on a sick shard.
    reroutes: int = 0
    #: The request's trace context (set at pool admission), or None.
    trace: "TraceContext | None" = None
    #: Similarity-search payload (``{"query": [...], "k": int}``) for
    #: `/search` requests, or None for campaign pricing requests.
    search: dict | None = None

    @property
    def batch_key(self) -> tuple[str, int, int]:
        """Requests sharing this key coalesce into one batch."""
        return (self.workload, self.relax_bits, self.dataset_bytes)

    def trace_event(self, layer: str, kind: str, detail: str = "", **attrs):
        """Append to this request's trace, if it carries one."""
        if self.trace is not None:
            self.trace.event(layer, kind, detail, **attrs)


@dataclass(frozen=True, slots=True, init=False)
class ServeResult:
    """Terminal outcome of one request (exactly one per admitted id).

    Frozen: assignment raises ``FrozenInstanceError``.  ``__init__`` is
    written out so it stores each field through its slot descriptor, one
    C call a field, where the generated one pays ``object.__setattr__``.
    """

    id: str
    tenant: str
    workload: str
    relax_bits: int
    dataset_bytes: int
    status: str
    shard: int = -1
    attempts: int = 0
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    batch_size: int = 0
    point: "CampaignPoint | None" = None
    error: str | None = None
    #: Top-k retrieval (``{"ids": [...], "distances": [...], ...}``) for
    #: `/search` requests, or None for campaign pricing requests.
    search: dict | None = None

    def __init__(
        self,
        id: str,
        tenant: str,
        workload: str,
        relax_bits: int,
        dataset_bytes: int,
        status: str,
        shard: int = -1,
        attempts: int = 0,
        queue_wait_s: float = 0.0,
        service_s: float = 0.0,
        batch_size: int = 0,
        point: "CampaignPoint | None" = None,
        error: str | None = None,
        search: dict | None = None,
    ) -> None:
        if status not in RESULT_STATUSES:
            raise ConfigurationError(
                f"status {status!r} not in {RESULT_STATUSES}"
            )
        (
            set_id, set_tenant, set_workload, set_relax_bits,
            set_dataset_bytes, set_status, set_shard, set_attempts,
            set_queue_wait_s, set_service_s, set_batch_size, set_point,
            set_error, set_search,
        ) = _RESULT_SLOTS
        set_id(self, id)
        set_tenant(self, tenant)
        set_workload(self, workload)
        set_relax_bits(self, relax_bits)
        set_dataset_bytes(self, dataset_bytes)
        set_status(self, status)
        set_shard(self, shard)
        set_attempts(self, attempts)
        set_queue_wait_s(self, queue_wait_s)
        set_service_s(self, service_s)
        set_batch_size(self, batch_size)
        set_point(self, point)
        set_error(self, error)
        set_search(self, search)

    @property
    def completed(self) -> bool:
        """True when the request produced a usable measurement."""
        return self.status in ("ok", "retried", "degraded", "fallback")

    def to_dict(self) -> dict:
        """A JSON-able rendering: the ``GET /result`` body and the
        journal's ``completed`` payload.

        Equal to ``dataclasses.asdict(self)``, built field by field: the
        scalar fields are immutable, so only ``search`` needs its deep
        copy.
        """
        out = {name: getattr(self, name) for name in _field_names(ServeResult)}
        point = self.point
        if point is not None:
            out["point"] = {
                name: getattr(point, name) for name in _field_names(type(point))
            }
        if self.search is not None:
            out["search"] = copy.deepcopy(self.search)
        return out


@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


#: Each ServeResult field's slot setter, in field order.
_RESULT_SLOTS = tuple(
    getattr(ServeResult, name).__set__ for name in _field_names(ServeResult)
)


class _TenantRing:
    """Per-tenant FIFO deques in round-robin dispatch order.

    ``queues`` holds only tenants with queued requests, in the order they
    are next served: a tenant joins at the back, moves to the back after
    each dispatch and leaves when its deque empties, so an idle tenant
    costs nothing.
    """

    def __init__(self, priority: int) -> None:
        #: This priority class's ``repro_serving_queue_depth`` series.
        self.depth = SERVING_QUEUE_DEPTH.series(priority=priority)
        self.queues: "OrderedDict[str, deque[ServeRequest]]" = OrderedDict()
        self.size = 0
        #: Slots held by admitted requests whose commit step is running.
        self.reserved = 0

    def push(self, request: ServeRequest) -> None:
        queue = self.queues.get(request.tenant)
        if queue is None:
            queue = self.queues[request.tenant] = deque()
        queue.append(request)
        self.size += 1

    def push_front(self, request: ServeRequest) -> None:
        queue = self.queues.get(request.tenant)
        if queue is None:
            queue = self.queues[request.tenant] = deque()
            self.queues.move_to_end(request.tenant, last=False)
        queue.appendleft(request)
        self.size += 1

    def pop_next(self) -> ServeRequest | None:
        """The next request under round-robin tenant fairness."""
        if self.size == 0:
            return None
        tenant, queue = next(iter(self.queues.items()))
        request = queue.popleft()
        if queue:
            self.queues.move_to_end(tenant)
        else:
            del self.queues[tenant]
        self.size -= 1
        return request

    def pop_matching(self, key: tuple, limit: int) -> list[ServeRequest]:
        """Up to ``limit`` queued requests with ``batch_key == key``, in
        per-tenant FIFO order (coalescing may overtake *other* keys, never
        an earlier request of the same key)."""
        taken: list[ServeRequest] = []
        if limit <= 0 or self.size == 0:
            return taken
        for tenant, queue in list(self.queues.items()):
            kept: deque[ServeRequest] = deque()
            while queue:
                request = queue.popleft()
                if len(taken) < limit and request.batch_key == key:
                    taken.append(request)
                else:
                    kept.append(request)
            if kept:
                self.queues[tenant] = kept
            else:
                del self.queues[tenant]
            if len(taken) >= limit:
                break
        self.size -= len(taken)
        return taken


class BatchingScheduler:
    """Bounded, fair, batch-coalescing request queues (thread-safe)."""

    def __init__(
        self,
        config: ServingConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or ServingConfig()
        self.clock = clock
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        self._space = threading.Condition(self._lock)
        self._classes = [
            _TenantRing(priority) for priority in range(self.config.priorities)
        ]
        self._seq = itertools.count()
        self._closed = False
        self._workers = 0
        #: Requests queued across every class.  Written under the lock;
        #: a bare read is a hint (the inline pump stops on zero).
        self.queued = 0
        #: Slots reserved across every class by submits whose commit
        #: step is running; :meth:`close` waits for them to settle.
        self._reserved = 0
        # Consumers blocked in next_batch / producers blocked on a full
        # class: a notify with nobody waiting is skipped.
        self._idle = 0
        self._blocked = 0
        self._ema_service_s: float | None = None
        self.admitted = 0
        self.rejected = {"queue_full": 0, "deadline": 0, "closed": 0}

    # -- bookkeeping used by the pool ----------------------------------------

    def register_worker(self) -> None:
        with self._lock:
            self._workers += 1

    def unregister_worker(self) -> None:
        with self._lock:
            self._workers = max(0, self._workers - 1)

    def note_service_time(self, seconds: float) -> None:
        """Feed one per-request service time into the admission EMA."""
        with self._lock:
            if self._ema_service_s is None:
                self._ema_service_s = seconds
            else:
                self._ema_service_s += _SERVICE_EMA_ALPHA * (
                    seconds - self._ema_service_s
                )

    # -- introspection --------------------------------------------------------

    def depth(self, priority: int | None = None) -> int:
        """Queued requests in one class (or in total)."""
        with self._lock:
            if priority is None:
                return self.queued
            return self._classes[priority].size

    def estimated_delay_s(self) -> float:
        """Backlog x EMA service time over active workers — the admission
        controller's queue-delay estimate (0 until a service time exists)."""
        with self._lock:
            return self._estimated_delay_locked()

    def _estimated_delay_locked(self) -> float:
        if self._ema_service_s is None:
            return 0.0
        backlog = self.queued + self._reserved
        return backlog * self._ema_service_s / max(1, self._workers)

    def stats(self) -> dict:
        with self._lock:
            return {
                "depths": [ring.size for ring in self._classes],
                "tenants": sorted(
                    {
                        tenant
                        for ring in self._classes
                        for tenant in ring.queues
                    }
                ),
                "workers": self._workers,
                "admitted": self.admitted,
                "rejected": dict(self.rejected),
                "ema_service_s": self._ema_service_s,
                "estimated_delay_s": self._estimated_delay_locked(),
            }

    # -- the producer side ----------------------------------------------------

    def submit(
        self,
        request: ServeRequest,
        block: bool,
        commit: Callable[[ServeRequest], "ServeResult | None"],
    ) -> "ServeResult | None":
        """Admit ``request`` or raise :class:`AdmissionRejectedError`.

        Every refusal (closed, queue full, unmeetable deadline) is decided
        before anything else happens.  ``block=True`` (internal/batch
        submitters) waits for queue space instead of rejecting; deadline
        admission still applies.  An admitted request then holds a
        reserved slot in its class while ``commit(request)`` runs outside
        the lock (the pool's step that mints the id and opens the trace,
        so its spill I/O never stalls a worker), and is pushed after it:
        the class never over-admits.  A ``commit`` that returns a
        :class:`ServeResult` has already finished the request (a
        priced-memo hit answered at admission): its slot is given back,
        nothing is pushed, and the result is returned (None otherwise).  A
        ``commit`` that raises gives the slot back and queues nothing.
        :meth:`close` waits for every reserved slot, so a commit in flight
        lands before it returns.
        """
        priority = request.priority
        with self._lock:
            if self._closed:
                self.rejected["closed"] += 1
                SERVING_ADMISSION.inc(outcome="rejected_closed")
                raise ServingError("scheduler is closed to new requests")
            ring = self._classes[priority]
            while ring.size + ring.reserved >= self.config.queue_capacity:
                if not block:
                    self.rejected["queue_full"] += 1
                    SERVING_ADMISSION.inc(outcome="rejected_queue_full")
                    raise AdmissionRejectedError(
                        f"priority-{priority} queue at capacity "
                        f"{self.config.queue_capacity}; retry in "
                        f"{self.config.retry_after_s}s",
                        retry_after_s=self.config.retry_after_s,
                    )
                self._blocked += 1
                try:
                    self._space.wait(timeout=0.1)
                finally:
                    self._blocked -= 1
                if self._closed:
                    self.rejected["closed"] += 1
                    SERVING_ADMISSION.inc(outcome="rejected_closed")
                    raise ServingError("scheduler closed while waiting")
            if request.deadline_at is not None:
                slack = request.deadline_at - self.clock()
                delay = self._estimated_delay_locked()
                if slack <= delay:
                    self.rejected["deadline"] += 1
                    SERVING_ADMISSION.inc(outcome="rejected_deadline")
                    raise AdmissionRejectedError(
                        f"{slack:.3f}s of deadline slack < estimated queue "
                        f"delay {delay:.3f}s",
                        retry_after_s=self.config.retry_after_s,
                    )
            ring.reserved += 1
            self._reserved += 1
        try:
            result = commit(request)
        except BaseException:
            with self._lock:
                self._release_locked(ring)
            raise
        with self._lock:
            self._release_locked(ring)
            self.admitted += 1
            _ADMITTED.inc()
            if result is not None:
                return result
            request.submitted_at = self.clock()
            ring.push(request)
            self.queued += 1
            ring.depth.set(ring.size)
            if request.trace is not None:
                request.trace.event(
                    "scheduler", "queue_enter",
                    priority=priority, depth=ring.size,
                )
            if self._idle:
                self._nonempty.notify_all()

    def _release_locked(self, ring: _TenantRing) -> None:
        ring.reserved -= 1
        self._reserved -= 1
        if self._blocked or self._closed:
            # Wakes blocked producers and a close() awaiting commits.
            self._space.notify_all()

    def requeue(self, requests: list[ServeRequest]) -> None:
        """Push rerouted requests back at the *front* of their queues
        (they already waited once; capacity bounds do not re-apply)."""
        if not requests:
            return
        with self._lock:
            for request in reversed(requests):
                request.reroutes += 1
                ring = self._classes[request.priority]
                ring.push_front(request)
                self.queued += 1
                ring.depth.set(ring.size)
                request.trace_event(
                    "scheduler", "reroute_requeue",
                    reroutes=request.reroutes,
                )
            self._nonempty.notify_all()

    # -- the consumer side ----------------------------------------------------

    def _pop_head_locked(self) -> ServeRequest | None:
        for ring in self._classes:
            request = ring.pop_next()
            if request is not None:
                return request
        return None

    def _gather_locked(self, key: tuple, limit: int) -> list[ServeRequest]:
        taken: list[ServeRequest] = []
        for ring in self._classes:
            taken.extend(ring.pop_matching(key, limit - len(taken)))
            if len(taken) >= limit:
                break
        return taken

    def next_batch(self, timeout: float = 0.05) -> list[ServeRequest]:
        """The next coalesced batch, or ``[]`` after ``timeout`` idle.

        Waits up to ``timeout`` for any request, then up to
        ``config.max_wait_s`` more for same-key stragglers while the batch
        is short of ``max_batch_size``.
        """
        with self._lock:
            head = self._pop_head_locked() if self.queued else None
            if head is None:
                if timeout <= 0:
                    return []
                deadline = self.clock() + timeout
                while head is None:
                    remaining = deadline - self.clock()
                    if remaining <= 0 or self._closed:
                        return []
                    self._idle += 1
                    try:
                        self._nonempty.wait(remaining)
                    finally:
                        self._idle -= 1
                    head = self._pop_head_locked()
            batch = [head]
            key = head.batch_key
            limit = self.config.max_batch_size
            if self.queued > 1:  # anything besides the head to join
                batch.extend(self._gather_locked(key, limit - 1))
            if self.config.max_wait_s > 0 and len(batch) < limit:
                wait_until = self.clock() + self.config.max_wait_s
                while len(batch) < limit and not self._closed:
                    remaining = wait_until - self.clock()
                    if remaining <= 0:
                        break
                    self._idle += 1
                    try:
                        self._nonempty.wait(remaining)
                    finally:
                        self._idle -= 1
                    batch.extend(
                        self._gather_locked(key, limit - len(batch))
                    )
            self.queued -= len(batch)
            size = len(batch)
            if size > 1:
                # Followers link the head's trace; every request's own
                # pool dispatch event carries its queue wait and batch size.
                head_trace = head.trace.trace_id if head.trace else ""
                for position, request in enumerate(batch[1:], start=1):
                    request.trace_event(
                        "scheduler", "batch_join",
                        head_trace=head_trace, position=position, size=size,
                    )
            _BATCH_SIZE.observe(size)
            for priority in {request.priority for request in batch}:
                ring = self._classes[priority]
                ring.depth.set(ring.size)
            if self._blocked:
                self._space.notify_all()
            return batch

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Refuse new submissions; queued requests stay drainable.

        Returns once no commit step is in flight: a submit that passed
        its checks before the close is queued by then, so a drain that
        follows sees it.
        """
        with self._lock:
            self._closed = True
            self._nonempty.notify_all()
            self._space.notify_all()
            while self._reserved:
                self._space.wait()

    @property
    def closed(self) -> bool:
        return self._closed

    def next_id(self, tenant: str) -> str:
        """A unique request id (monotonic per scheduler)."""
        return f"{tenant}-{next(self._seq):08d}"

    def advance_seq(self, floor: int) -> None:
        """Ensure future ids are minted at or above ``floor``.

        Journal recovery calls this with one past the highest journaled
        sequence number, so a restarted scheduler never re-mints an id
        that already exists on disk (which would falsely trip the
        result store's double-completion tripwire)."""
        with self._lock:
            self._seq = itertools.count(max(next(self._seq), int(floor)))


class ResultStore:
    """Terminal results by request id, with completion waiting.

    Every queued request is :meth:`register`-ed before workers can see
    it and :meth:`complete`-d exactly once; a result no worker ever sees
    (a hit answered at admission, a journaled result after a restart) is
    published by :meth:`restore` alone.  Duplicate completions raise
    (the double-execution tripwire).  Memory is bounded two ways:
    finished results are kept up to ``capacity`` then evicted
    oldest-first, and — when ``ttl_s`` is set — results older than the
    TTL are pruned on every store interaction.  Evicted ids leave a
    bounded *tombstone* (id -> eviction reason) behind, so clients asking
    about an evicted result get a definitive "gone" (HTTP 410) instead of
    an ambiguous "unknown", and the tripwire still fires if an evicted id
    is completed again.
    """

    def __init__(
        self,
        capacity: int = 8192,
        ttl_s: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be at least 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ConfigurationError("ttl_s must be positive (or None)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self.clock = clock
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._results: "OrderedDict[str, ServeResult]" = OrderedDict()
        #: Completion times, kept only while a TTL needs them.
        self._completed_at: dict[str, float] = {}
        self._tombstones: "OrderedDict[str, str]" = OrderedDict()
        self._pending: set[str] = set()
        self._waiters = 0  # threads blocked in wait(): notify only them
        self.evicted = 0
        self.evicted_by_reason = {"capacity": 0, "ttl": 0}

    def _evict_locked(self, request_id: str, reason: str) -> None:
        """Tombstone an id already removed from ``_results``."""
        self._completed_at.pop(request_id, None)
        self._tombstones[request_id] = reason
        if len(self._tombstones) > _TOMBSTONES:
            self._tombstones.popitem(last=False)
        self.evicted += 1
        self.evicted_by_reason[reason] += 1
        _EVICTIONS[reason].inc()

    def _prune_locked(self) -> None:
        if self.ttl_s is None:
            return
        now = self.clock()
        while self._results:
            oldest_id = next(iter(self._results))
            born = self._completed_at.get(oldest_id, now)
            if now - born < self.ttl_s:
                break
            del self._results[oldest_id]
            self._evict_locked(oldest_id, "ttl")

    def _store_locked(self, result: ServeResult) -> None:
        results = self._results
        results[result.id] = result
        while len(results) > self.capacity:
            self._evict_locked(results.popitem(last=False)[0], "capacity")
        if self.ttl_s is not None:
            self._completed_at[result.id] = self.clock()
            self._prune_locked()
        if self._waiters:
            self._done.notify_all()

    def register(self, request_id: str) -> None:
        with self._lock:
            if request_id in self._pending or request_id in self._results:
                raise ServingError(f"request id {request_id!r} already known")
            self._pending.add(request_id)

    def complete(self, result: ServeResult) -> None:
        with self._lock:
            if result.id in self._results or result.id in self._tombstones:
                raise ServingError(
                    f"request {result.id!r} completed twice — scheduler "
                    "invariant broken"
                )
            self._pending.discard(result.id)
            self._store_locked(result)

    def restore(self, result: ServeResult) -> None:
        """Publish the result of an id never registered: register and
        complete it in one locked step.

        The one publish step of a hit answered at admission and of a
        journaled terminal result re-published after a restart.  The
        tripwire still holds: an id the store knows (pending, done or
        tombstoned) raises :class:`~repro.errors.ServingError`."""
        with self._lock:
            if (
                result.id in self._results
                or result.id in self._pending
                or result.id in self._tombstones
            ):
                raise ServingError(
                    f"request id {result.id!r} already known — cannot restore"
                )
            self._store_locked(result)

    def lookup(self, request_id: str) -> tuple[str, "ServeResult | str | None"]:
        """Status and payload under one lock: ``("done", result)``,
        ``("evicted", reason)``, ``("pending", None)`` or
        ``("unknown", None)``.  A prune or eviction cannot land between
        the two, as it can between :meth:`status` and :meth:`get`."""
        with self._lock:
            self._prune_locked()
            result = self._results.get(request_id)
            if result is not None:
                return "done", result
            if request_id in self._pending:
                return "pending", None
            reason = self._tombstones.get(request_id)
            if reason is not None:
                return "evicted", reason
            return "unknown", None

    def status(self, request_id: str) -> str:
        """``pending`` / ``done`` / ``evicted`` / ``unknown``."""
        return self.lookup(request_id)[0]

    def get(self, request_id: str) -> ServeResult | None:
        with self._lock:
            self._prune_locked()
            return self._results.get(request_id)

    def wait(
        self, request_id: str, timeout: float | None = None
    ) -> ServeResult | None:
        """Block until the id completes (or ``timeout``); None on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while request_id not in self._results:
                if request_id in self._tombstones:
                    raise ServingError(
                        f"result for {request_id!r} was evicted "
                        f"({self._tombstones[request_id]})"
                    )
                if request_id not in self._pending:
                    raise ServingError(f"unknown request id {request_id!r}")
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._waiters += 1
                try:
                    self._done.wait(remaining)
                finally:
                    self._waiters -= 1
            return self._results[request_id]

    @property
    def pending(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def completed(self) -> int:
        with self._lock:
            return len(self._results)
