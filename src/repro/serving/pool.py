"""The sharded crossbar pool: N independent executors serving one queue.

Each shard owns a private :class:`~repro.runtime.comparison.ComparisonHarness`
(its own :class:`~repro.runtime.executor.APIMExecutor` and GPU baseline,
over the process-wide pricing memos every shard shares) wrapped in a
:class:`~repro.runtime.supervisor.Supervisor`.  Worker threads pull
coalesced batches from the :class:`~repro.serving.scheduler.BatchingScheduler`
and run each request through
:func:`~repro.runtime.campaign.run_point`, inheriting the campaign
runtime's whole rescue ladder: retry with jittered backoff, degrade up the
relax rungs, fall back to the CPU baseline — every admitted request ends
in exactly one terminal :class:`~repro.serving.scheduler.ServeResult`.
A request whose point is already priced never reaches a shard: without a
chaos policy, admission answers it from the priced memo
(:meth:`CrossbarPool._answer_hit`).

Shard health is a per-shard :class:`CircuitBreaker`: requests that end
``failed``/``error`` count as consecutive failures, and a tripped shard
stops pulling work — the pull model reroutes traffic to healthy shards
with no routing table.  Requests already held by a sick shard are pushed
back to the *front* of the queue (bounded by ``max_reroutes``, after
which the request executes anyway and lets the rescue ladder finish it).
Mid-cooldown the breaker half-opens and the shard probes its way back.

*How* shards execute is pluggable since PR 6: the pool owns serving
policy (admission, batching, rescue ladder, results, health) and
delegates execution mechanics to a
:class:`~repro.serving.runtime.ShardRuntime` — ``runtime="thread"``
(daemon thread per shard, the classic behaviour), ``"inline"``
(synchronous, on the submitting thread) or ``"subprocess"`` (process per
shard: GIL escape, crash containment, worker supervision with respawn
and exactly-once re-drive).  See :mod:`repro.serving.runtime`.

Construction is cheap; workers start on :meth:`start` (or lazily on the
first :meth:`submit`).  The pool is also the in-process service facade:
``submit``/``result``/``stats``/``healthz`` are exactly what the HTTP
frontend exposes, and :class:`Client` wraps them for tests and load
generators.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import APIMConfig
from repro.errors import (
    AdmissionRejectedError,
    DuplicateRequestError,
    FleetError,
    JournalError,
    ScaleRejectedError,
    SearchError,
    ServingError,
    ShardUnavailableError,
    WorkloadError,
)
from repro.observability.instruments import (
    FLEET_SCALE_EVENTS,
    FLEET_SHARDS,
    SEARCH_CODEBOOK_ENTRIES,
    SEARCH_RECALL,
    SEARCH_REQUESTS,
    SEARCH_TOPK,
    SERVING_ADMISSION,
    SERVING_IDEMPOTENCY,
    SERVING_QUEUE_WAIT,
    SERVING_REQUESTS,
    SERVING_REROUTES,
    SERVING_SHARD_BUSY,
    SERVING_SHARD_HEALTHY,
    SERVING_SHARD_REQUESTS,
    Series,
    record_journal_recovery,
    record_request_duration,
)
from repro.observability.sketch import LatencyAnalytics
from repro.observability.slo import BurnRateEvaluator, SLOPolicy
from repro.observability.tracing import TraceStore, use_trace
from repro.runtime.campaign import CampaignPoint, memo_hit, run_point
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.supervisor import CircuitBreaker, RetryPolicy, Supervisor
from repro.serving.journal import (
    RequestJournal,
    payload_fingerprint,
    serve_result_from_dict,
)
from repro.search import SearchIndex, default_search_index, recall_at_k
from repro.serving.runtime import ShardRuntime, resolve_runtime
from repro.serving.scheduler import (
    BatchingScheduler,
    ResultStore,
    ServeRequest,
    ServeResult,
    ServingConfig,
)
from repro.units import MIB
from repro.workloads import workload_by_name
from repro.workloads.registry import workload_class

if TYPE_CHECKING:
    from repro.runtime.chaos import ChaosInjector, ChaosPolicy

__all__ = [
    "Client", "CrossbarPool", "PoolShard", "SEARCH_WORKLOAD", "build_shard",
]

#: The workload name `/search` requests are accounted under — the
#: Similarity workload is the campaign-grid face of the same retrieval
#: kernel, so QoS policy, tracing and per-workload metrics line up.
SEARCH_WORKLOAD = "Similarity"

_QUEUE_WAIT = SERVING_QUEUE_WAIT.series()


@dataclass
class PoolShard:
    """One shard: a private harness, supervisor and health breaker."""

    index: int
    harness: ComparisonHarness
    supervisor: Supervisor
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    chaos: ChaosInjector | None = None
    served: int = 0
    failures: int = 0
    busy_s: float = 0.0
    #: Requests this shard currently holds (dispatched batch members not
    #: yet terminal).  Only the shard's own driver mutates it; the fleet
    #: autoscaler reads it so shrink never selects a working shard.
    in_flight: int = 0
    _workloads: dict = field(default_factory=dict)
    #: The breaker and supervision-key namespace, ``shard<index>``.
    key: str = field(init=False, repr=False)
    #: This shard's busy-seconds series, and its requests series by status.
    _busy: Series = field(init=False, repr=False)
    _requests: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.key = f"shard{self.index}"
        self._busy = SERVING_SHARD_BUSY.series(shard=self.index)
        self._requests = {}

    def count_request(self, status: str, service_s: float) -> None:
        """Count one finished request and its service time on this
        shard's metric series."""
        series = self._requests.get(status)
        if series is None:
            series = self._requests.setdefault(
                status,
                SERVING_SHARD_REQUESTS.series(shard=self.index, status=status),
            )
        series.inc()
        self._busy.inc(service_s)

    @property
    def healthy(self) -> bool:
        return not self.breaker.is_open(self.key)

    def workload(self, name: str):
        instance = self._workloads.get(name)
        if instance is None:
            instance = self._workloads[name] = workload_by_name(name)
        return instance

    def price(
        self, workload: str, relax_bits: int, dataset_bytes: float, trace
    ) -> CampaignPoint:
        """One request through the rescue ladder on this shard's stack,
        under :func:`~repro.runtime.campaign.run_point`'s own QoS and
        degradation defaults — the one call every runtime prices with."""
        return run_point(
            self.workload(workload),
            relax_bits,
            float(dataset_bytes),
            self.harness,
            supervisor=self.supervisor,
            chaos=self.chaos,
            key_prefix=f"{self.key}/",
            trace=trace,
        )


def build_shard(
    index: int,
    seed: int,
    tile_elements: int,
    apim_config: APIMConfig | None = None,
    chaos: ChaosPolicy | None = None,
) -> PoolShard:
    """The one shard recipe: a seeded harness, a supervisor whose retry
    jitter is keyed by ``seed + index``, and a chaos injector on stream
    ``chaos.seed + index``.

    The pool builds every shard with it (at boot and on live growth, so a
    resized pool prices like a fixed one) and a subprocess worker rebuilds
    its shard with it from the init frame, so all three runtimes draw the
    same retry and fault streams and price bit-identically.
    """
    injector = None
    if chaos is not None:
        from repro.runtime.chaos import ChaosInjector

        injector = ChaosInjector(replace(chaos, seed=chaos.seed + index))
    return PoolShard(
        index=index,
        harness=ComparisonHarness(
            config=apim_config, tile_elements=tile_elements, rng_seed=seed
        ),
        supervisor=Supervisor(
            retry=RetryPolicy(
                max_attempts=3,
                base_delay=0.002,
                max_delay=0.05,
                jitter_seed=seed + index,
            )
        ),
        chaos=injector,
    )


class CrossbarPool:
    """Shards + workers + queue + results: the in-process serving core."""

    def __init__(
        self,
        shards: int = 2,
        serving_config: ServingConfig | None = None,
        apim_config: APIMConfig | None = None,
        tile_elements: int = 1 << 10,
        seed: int = 2017,
        chaos_policy: ChaosPolicy | None = None,
        shard_failure_threshold: int = 3,
        shard_cooldown_s: float = 0.25,
        clock: Callable[[], float] = time.monotonic,
        trace_store: TraceStore | None = None,
        slo_policy: SLOPolicy | None = None,
        runtime: "str | ShardRuntime" = "thread",
        journal: "RequestJournal | str | None" = None,
        result_capacity: int = 8192,
        result_ttl_s: float | None = None,
    ) -> None:
        if shards < 1:
            raise ServingError("pool needs at least one shard")
        # ``clock`` drives admission, queue wait, deadlines, result expiry
        # and the SLO windows, so a ManualClock-driven test controls them all.
        self.scheduler = BatchingScheduler(serving_config, clock=clock)
        self.results = ResultStore(
            capacity=result_capacity, ttl_s=result_ttl_s, clock=clock
        )
        # Explicit None test: an empty TraceStore is falsy (len 0), and
        # ``or`` would silently discard a caller-provided store.
        self.traces = trace_store if trace_store is not None else TraceStore()
        self.latency = LatencyAnalytics()
        self.slo = BurnRateEvaluator(slo_policy or SLOPolicy(), clock=clock)
        self.max_reroutes = max(1, shards - 1)
        # The shard recipe's inputs, kept verbatim: live growth builds
        # from them, and the subprocess runtime ships them to workers.
        self.apim_config = apim_config
        self.tile_elements = tile_elements
        self.seed = seed
        self.chaos_policy = chaos_policy
        self._shard_failure_threshold = shard_failure_threshold
        self._shard_cooldown_s = shard_cooldown_s
        self.shards: list[PoolShard] = [
            self._build_shard(index) for index in range(shards)
        ]
        self._next_shard_index = shards
        self.runtime = resolve_runtime(runtime).bind(self)
        self._lifecycle = threading.Lock()
        self._resize_lock = threading.Lock()
        self._started = False
        self._draining = False
        # The fleet control plane (attached by repro.fleet.Autoscaler):
        # /fleet reads decisions through this handle, and admission sheds
        # any tenant the autoscaler placed in the shed set.
        self.autoscaler = None
        self.shed_tenants: set[str] = set()
        # The streaming telemetry pipeline (attached by
        # TelemetryPipeline.for_pool): /query and /alerts serve through
        # this handle, and /stats annotates tenants with sampled rates.
        self.telemetry = None
        # Durability: the write-ahead request journal (a path opens one;
        # the pool owns its lifecycle either way) and the idempotency-key
        # index it rebuilds after a crash.
        if isinstance(journal, str):
            journal = RequestJournal(journal)
        self.journal = journal
        self._journal_failures = 0
        self._idem_lock = threading.Lock()
        self._idempotency: dict[str, tuple[str, str]] = {}
        self.recovery = {
            "restored": 0,
            "replayed": 0,
            "truncated": 0,
            "duplicate_completions": 0,
            "dropped": 0,
        }
        self._recovered = False
        if self.journal is not None:
            self._idempotency.update(self.journal.recovered.idempotency)
        # `/search` serves against one read-only index, built lazily on
        # first use (seeded by the pool's seed, so every restart — and
        # any client that knows the seed — reconstructs it exactly).
        self._search_index: SearchIndex | None = None
        self._search_lock = threading.Lock()

    def _build_shard(self, index: int) -> PoolShard:
        """Shard ``index`` from :func:`build_shard`, plus this pool's
        health breaker (used at boot and by :meth:`add_shard`)."""
        shard = build_shard(
            index,
            self.seed,
            self.tile_elements,
            self.apim_config,
            self.chaos_policy,
        )
        shard.breaker = CircuitBreaker(
            failure_threshold=self._shard_failure_threshold,
            cooldown_s=self._shard_cooldown_s,
        )
        return shard

    # -- lifecycle ------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # -- fleet live resize -----------------------------------------------------

    def add_shard(self) -> PoolShard:
        """Grow the pool by one shard, live.

        The newcomer is built from the same construction inputs as the
        boot-time shards (fresh index — indices are never reused, so
        metrics and traces stay unambiguous), appended to ``shards`` and
        handed to the runtime to drive.  Safe before :meth:`start` too:
        ``start`` spawns drivers for whatever ``shards`` holds.  Raw
        escapes are normalised to :class:`~repro.errors.FleetError`.
        """
        with self._resize_lock:
            if self._draining:
                raise ScaleRejectedError(
                    "pool is draining for shutdown",
                    direction="grow",
                    reason="draining",
                )
            shard = self._build_shard(self._next_shard_index)
            self._next_shard_index += 1
            self.shards.append(shard)
            SERVING_SHARD_HEALTHY.set(1, shard=shard.index)
            if self._started:
                try:
                    self.runtime.shard_added(shard)
                except Exception as exc:
                    self.shards.remove(shard)
                    self._next_shard_index -= 1
                    if isinstance(exc, FleetError):
                        raise
                    raise FleetError(
                        f"runtime failed to drive new {shard.key}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            FLEET_SCALE_EVENTS.inc(direction="grow")
            FLEET_SHARDS.set(len(self.shards))
            return shard

    def remove_shard(
        self, index: int | None = None, timeout: float = 30.0
    ) -> PoolShard:
        """Shrink the pool by one shard, live and loss-free.

        The victim (by ``index``, or the highest-index idle shard when
        unspecified) leaves ``shards`` first — no new batch routes to it
        — then the runtime drains it: its driver finishes the batch in
        hand, so every request the shard held reaches a terminal result
        before this returns.  Rejections (last shard, unknown index, no
        idle victim) raise :class:`~repro.errors.ScaleRejectedError`
        before anything is touched; raw escapes from the drain itself are
        normalised to :class:`~repro.errors.FleetError`.
        """
        with self._resize_lock:
            if len(self.shards) <= 1:
                raise ScaleRejectedError(
                    "cannot remove the last shard",
                    direction="shrink",
                    reason="min_shards",
                )
            if index is None:
                idle = [s for s in self.shards if s.in_flight == 0]
                if not idle:
                    raise ScaleRejectedError(
                        "every shard has in-flight work",
                        direction="shrink",
                        reason="no_idle_shard",
                    )
                victim = max(idle, key=lambda s: s.index)
            else:
                victim = next(
                    (s for s in self.shards if s.index == index), None
                )
                if victim is None:
                    raise ScaleRejectedError(
                        f"no shard with index {index}",
                        direction="shrink",
                        reason="unknown_shard",
                    )
            self.shards.remove(victim)
            if self._started:
                try:
                    self.runtime.shard_removed(victim, timeout=timeout)
                except Exception as exc:
                    if isinstance(exc, FleetError):
                        raise
                    raise FleetError(
                        f"runtime failed to drain {victim.key}: "
                        f"{type(exc).__name__}: {exc}"
                    ) from exc
            SERVING_SHARD_HEALTHY.set(0, shard=victim.index)
            FLEET_SCALE_EVENTS.inc(direction="shrink")
            FLEET_SHARDS.set(len(self.shards))
            return victim

    def fleet_status(self) -> dict:
        """The `/fleet` payload: live shard set plus autoscaler state."""
        status = {
            "shards": len(self.shards),
            "shard_indices": [shard.index for shard in self.shards],
            "in_flight": {
                shard.key: shard.in_flight for shard in self.shards
            },
            "shed_tenants": sorted(self.shed_tenants),
            "autoscaler": None,
        }
        if self.autoscaler is not None:
            status["autoscaler"] = self.autoscaler.status()
        return status

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> "CrossbarPool":
        """Start the shard runtime (idempotent-safe via
        :meth:`ensure_started`; calling ``start`` twice is an error).

        The lifecycle is one-way: :meth:`stop` closed the scheduler and
        the journal for good, so starting a stopped pool raises.
        """
        with self._lifecycle:
            if self._started:
                raise ServingError("pool already started")
            if self.scheduler.closed:
                raise ServingError("pool was stopped; build a new one")
            boot = self.journal is not None and not self._recovered
            if boot:
                # Before anything starts: a journal that cannot take this
                # durable record fails the boot, not a later admission.
                self.journal.describe({
                    "shards": len(self.shards),
                    "runtime": self.runtime.name,
                    "tile_elements": self.tile_elements,
                    "seed": self.seed,
                })
            for shard in self.shards:
                SERVING_SHARD_HEALTHY.set(1, shard=shard.index)
            FLEET_SHARDS.set(len(self.shards))
            self.runtime.start()
            self._started = True
            if boot:
                self._recover_from_journal()
        return self

    def ensure_started(self) -> "CrossbarPool":
        with self._lifecycle:
            started = self._started
        if not started:
            self.start()
        return self

    def _recover_from_journal(self) -> None:
        """Crash-safe startup: restore journaled terminal results and
        re-admit every acknowledged-but-incomplete request.

        Runs under the lifecycle lock from :meth:`start`.  A replay takes
        the admission ladder minus the pool's refusals (it was already
        acknowledged in a prior life): the field checks, then a blocking
        scheduler submit through the same commit step as a new admission,
        under its journaled id.  It drops its deadline — wall-clock
        deadlines are meaningless across a restart — and a journaled
        search replays the identical retrieval (the index is seeded).
        Replayed requests run the normal rescue ladder; exactly-once is
        enforced by the result store's double-completion tripwire plus
        the journal's first-terminal-record-wins fold.
        """
        state = self.journal.recovered
        self.recovery["truncated"] = state.truncated
        self.recovery["duplicate_completions"] = state.duplicate_completions
        restored = replayed = dropped = 0
        for request_id, record in state.completed.items():
            try:
                result = serve_result_from_dict(record.get("result", {}))
                self.results.restore(result)
            except (JournalError, ServingError):
                # Unreadable payload (foreign version) or an id the store
                # already knows: count it, never resurrect garbage.
                dropped += 1
                continue
            restored += 1
        if state.max_seq >= 0:
            # Never re-mint a journaled id: a collision would falsely
            # trip the double-completion tripwire.
            self.scheduler.advance_seq(state.max_seq + 1)
        for request_id in state.replayable:
            entry = state.entries[request_id]
            try:
                request = self._build_request(
                    entry.workload, entry.relax_bits, entry.dataset_bytes,
                    entry.tenant, entry.priority, search=entry.search,
                    request_id=request_id,
                )
                self._enqueue(
                    request, True,
                    ("journal", "replayed", "re-admitted after crash recovery",
                     {"prior_dispatches": entry.dispatches}),
                )
            except ServingError:
                dropped += 1
                continue
            self.runtime.after_submit()  # inline runtimes pump here
            replayed += 1
        self.recovery["restored"] = restored
        self.recovery["replayed"] = replayed
        self.recovery["dropped"] = dropped
        self._recovered = True
        record_journal_recovery(
            restored=restored,
            replayed=replayed,
            truncated=state.truncated,
            duplicates=state.duplicate_completions,
        )

    # -- durability helpers ---------------------------------------------------

    def _journal_dispatched(self, request: ServeRequest, shard: int) -> None:
        try:
            self.journal.dispatched(request.id, shard)
        except JournalError:
            # A worker thread must not die on a full disk: the request
            # still executes, the gap is counted and visible in /stats.
            self._journal_failures += 1

    def _complete(self, result: ServeResult, registered: bool) -> None:
        """The single terminal path: journal first, then publish.  A
        ``registered`` id completes; a hit answered at admission was never
        registered and is published in one register-and-complete step."""
        if self.journal is not None:
            try:
                self.journal.completed(result)
            except JournalError:
                self._journal_failures += 1
        if registered:
            self.results.complete(result)
        else:
            self.results.restore(result)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        """Shut the pool down.

        ``drain=True`` (default) closes admission and waits for queued
        requests to finish — nothing accepted is ever dropped.  With
        ``drain=False`` workers stop after their current batch and
        still-queued requests complete with status ``error``.
        """
        with self._lifecycle:
            if not self._started:
                return
            self._draining = True
            self.scheduler.close()
            if drain:
                self.wait_drained(timeout)
            self.runtime.stop(drain=drain, timeout=timeout)
            self._started = False
            if not drain:
                while True:
                    batch = self.scheduler.next_batch(timeout=0.0)
                    if not batch:
                        break
                    now = self.scheduler.clock()
                    for request in batch:
                        self._finish(
                            request, max(0.0, now - request.submitted_at),
                            "error", error="pool stopped",
                        )
            if self.journal is not None:
                self.journal.close()

    def begin_drain(self) -> None:
        """Stop admission without stopping execution: ``submit`` starts
        refusing with a retryable 503 while queued and in-flight requests
        run to completion.  The graceful-shutdown entry point — signal
        handlers call this first, then :meth:`stop` once drained."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def wait_drained(self, timeout: float = 30.0) -> bool:
        """Block until nothing is queued or in flight (True on success)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.scheduler.depth() == 0 and self.results.pending == 0:
                return True
            self.runtime.after_submit()  # inline runtimes self-drain
            time.sleep(0.01)
        return self.scheduler.depth() == 0 and self.results.pending == 0

    def __enter__(self) -> "CrossbarPool":
        return self.ensure_started()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the service facade ---------------------------------------------------

    def submit(
        self,
        workload: str,
        relax_bits: int = 0,
        dataset_bytes: float = 64 * MIB,
        tenant: str = "default",
        priority: int | None = None,
        deadline_s: float | None = None,
        block: bool = False,
        idempotency_key: str | None = None,
    ) -> str:
        """Admit one request; returns its id (or raises
        :class:`~repro.errors.AdmissionRejectedError` /
        :class:`~repro.errors.ServingError`)."""
        request_id, _, _ = self.admit(
            workload,
            relax_bits=relax_bits,
            dataset_bytes=dataset_bytes,
            tenant=tenant,
            priority=priority,
            deadline_s=deadline_s,
            block=block,
            idempotency_key=idempotency_key,
        )
        return request_id

    def admit(
        self,
        workload: str,
        relax_bits: int = 0,
        dataset_bytes: float = 64 * MIB,
        tenant: str = "default",
        priority: int | None = None,
        deadline_s: float | None = None,
        block: bool = False,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool, ServeResult | None]:
        """Admit one request; returns ``(request_id, duplicate, result)``.

        ``result`` is the terminal :class:`ServeResult` of a request that
        finished inside its admission (a priced-memo hit,
        :meth:`_answer_hit`), handed back once the acknowledgement's
        group commit covers its ``completed`` record; it is None for a
        queued request and for a duplicate.  Either way the id answers
        :meth:`result` and ``GET /result/<id>``.

        With an ``idempotency_key``, resubmitting the identical payload
        returns the original id with ``duplicate=True`` (the safe-retry
        path: no new work is queued), while a *different* payload under
        the same key raises
        :class:`~repro.errors.DuplicateRequestError` (HTTP 409).
        """
        try:
            workload_class(workload)  # reject unknown names at the door
        except WorkloadError as exc:
            # The registry's message enumerates every registered name;
            # forward it so the frontend's 400 is self-correcting.
            raise ServingError(str(exc)) from exc
        return self._admit(
            workload, relax_bits, dataset_bytes, tenant, priority,
            deadline_s, block, idempotency_key,
        )

    # -- similarity search ----------------------------------------------------

    def search_index(self) -> SearchIndex:
        """The pool's serving index, built lazily on first use.

        Deterministic in ``self.seed`` (see
        :func:`~repro.search.index.default_search_index`).
        """
        with self._search_lock:
            if self._search_index is None:
                self._search_index = default_search_index(seed=self.seed)
            SEARCH_CODEBOOK_ENTRIES.set(self._search_index.entries)
            return self._search_index

    def admit_search(
        self,
        query,
        k: int = 10,
        relax_bits: int = 0,
        tenant: str = "default",
        priority: int | None = None,
        deadline_s: float | None = None,
        block: bool = False,
        idempotency_key: str | None = None,
    ) -> tuple[str, bool, ServeResult | None]:
        """Admit one `/search` retrieval; returns ``(request_id, duplicate,
        result)`` as :meth:`admit` does (a search is never finished inside
        its admission, so ``result`` is None).

        ``query`` is a dim-length 0/1 bit-vector.  Validation happens at
        the door (a bad query or ``k`` raises
        :class:`~repro.errors.SearchError` — the frontend's 400) and the
        accepted request rides the exact same lifecycle as ``admit``:
        write-ahead journal, idempotency index, tracing, batching, one
        terminal :class:`~repro.serving.scheduler.ServeResult` whose
        ``search`` field carries the top-k.
        """
        index = self.search_index()
        query_bits = np.asarray(query)
        index.codebook.pack_query(query_bits)  # validates shape/values
        k = index.validate_k(k)
        # The journaled payload: enough to replay the identical retrieval
        # after a crash (the index itself is reconstructed from the seed).
        search = {
            "query": [int(b) for b in query_bits.ravel()],
            "k": k,
        }
        query_digest = hashlib.sha256(
            np.ascontiguousarray(query_bits.astype(np.uint8)).tobytes()
        ).hexdigest()[:16]
        dataset_bytes = index.entries * index.codebook.words_per_code * 8
        return self._admit(
            SEARCH_WORKLOAD, relax_bits, dataset_bytes, tenant, priority,
            deadline_s, block, idempotency_key,
            search=search, extra={"k": k, "query": query_digest},
        )

    def _admit(
        self,
        workload: str,
        relax_bits: int,
        dataset_bytes: float,
        tenant: str,
        priority: int | None,
        deadline_s: float | None,
        block: bool,
        idempotency_key: str | None,
        search: dict | None = None,
        extra: dict | None = None,
    ) -> tuple[str, bool, ServeResult | None]:
        """The admission both request kinds share, from the field checks
        to the acknowledged id; a keyed request reserves its
        idempotency key around it.  ``extra`` folds kind-specific content
        into the key's payload fingerprint."""
        request = self._build_request(
            workload, relax_bits, dataset_bytes, tenant, priority,
            deadline_s, search,
        )
        if idempotency_key is None:
            result = self._admit_new(request, block, deadline_s)
            return self._acknowledge(request.id, False, result)
        idempotency_key = str(idempotency_key)
        if not idempotency_key or len(idempotency_key) > 256:
            raise ServingError(
                "idempotency_key must be a non-empty string of at most "
                "256 characters"
            )
        fingerprint = payload_fingerprint(
            workload, request.relax_bits, request.dataset_bytes, tenant,
            request.priority, extra=extra,
        )
        # The key->id reservation is held across admission so two racing
        # submits of the same key cannot both queue work.  Admission
        # itself is fast (block=False on the HTTP path, and the journal
        # write has no barrier), and nothing in _admit_new takes this lock.
        with self._idem_lock:
            known = self._idempotency.get(idempotency_key)
            if known is not None:
                known_id, known_fp = known
                if known_fp != fingerprint:
                    SERVING_IDEMPOTENCY.inc(outcome="conflict")
                    raise DuplicateRequestError(
                        f"idempotency key {idempotency_key!r} was already "
                        f"used by request {known_id!r} with a different "
                        "payload",
                        idempotency_key=idempotency_key,
                        request_id=known_id,
                    )
                SERVING_IDEMPOTENCY.inc(outcome="hit")
                request_id, duplicate, result = known_id, True, None
            else:
                result = self._admit_new(
                    request, block, deadline_s, idempotency_key, fingerprint,
                )
                request_id, duplicate = request.id, False
                self._idempotency[idempotency_key] = (
                    request_id, fingerprint,
                )
        return self._acknowledge(request_id, duplicate, result)

    def _build_request(
        self,
        workload: str,
        relax_bits: int,
        dataset_bytes: float,
        tenant: str,
        priority: int | None,
        deadline_s: float | None = None,
        search: dict | None = None,
        request_id: str = "",
    ) -> ServeRequest:
        """The ladder's first rung: check every field and build the
        request, touching nothing.  A new request's id stays empty until
        the commit step mints it, and its deadline starts counting once
        the pool's refusals pass (:meth:`_admit_new`)."""
        numbers = {"relax_bits": relax_bits, "dataset_bytes": dataset_bytes,
                   "priority": priority, "deadline_s": deadline_s}
        for name, value in numbers.items():
            # NaN passes every check below and int(inf) overflows;
            # math.isfinite itself overflows on an int beyond float range.
            if value is not None and (value != value or abs(value) == math.inf):
                raise ServingError(f"{name} must be finite: {value}")
        if relax_bits < 0:
            raise ServingError(f"relax_bits must be non-negative: {relax_bits}")
        if dataset_bytes <= 0:
            raise ServingError(f"dataset_bytes must be positive: {dataset_bytes}")
        if deadline_s is not None and deadline_s <= 0:
            raise ServingError(f"deadline_s must be positive: {deadline_s}")
        config = self.scheduler.config
        priority = (
            config.default_priority if priority is None else int(priority)
        )
        if not 0 <= priority < config.priorities:
            raise ServingError(
                f"priority {priority} outside [0, {config.priorities})"
            )
        return ServeRequest(
            id=request_id,
            workload=workload,
            relax_bits=int(relax_bits),
            dataset_bytes=int(dataset_bytes),
            tenant=tenant,
            priority=priority,
            search=search,
        )

    def _acknowledge(
        self, request_id: str, duplicate: bool, result: ServeResult | None
    ) -> tuple[str, bool, ServeResult | None]:
        """Make the id's ``admitted`` record durable, then hand it out,
        with the ``result`` of a request finished inside its admission.

        One group commit outside ``_idem_lock``: concurrent submitters
        share fsyncs, and a duplicate hit waits for the original's record
        too (it may still be in flight on another thread).  The same
        barrier covers a hit's ``completed`` record, so its result never
        leaves before it is durable.  A JournalError here is the client's
        500 — the id was never promised.
        """
        if self.journal is not None:
            self.journal.sync()
        return request_id, duplicate, result

    def _admit_new(
        self,
        request: ServeRequest,
        block: bool,
        deadline_s: float | None,
        idempotency_key: str | None = None,
        fingerprint: str | None = None,
    ) -> ServeResult | None:
        """Queue one field-checked request under a freshly minted
        ``request.id``; returns its terminal result when the commit step
        finished it (a priced-memo hit), else None.

        The pool's refusals come next on the ladder and are counted in
        ``repro_serving_admission_total``; then the scheduler's refusals
        and the commit step (:meth:`_enqueue`).  Nothing before the
        commit has a side effect, so a refused submit leaves no trace, id
        or result entry.
        """
        if self._draining:
            SERVING_ADMISSION.inc(outcome="rejected_draining")
            raise ShardUnavailableError(
                "pool is draining for shutdown; resubmit elsewhere",
                retry_after_s=self.scheduler.config.retry_after_s,
            )
        if request.tenant in self.shed_tenants:
            # The autoscaler shed this tenant under fast burn: refuse
            # *before* acknowledging, so nothing acknowledged is lost.
            SERVING_ADMISSION.inc(outcome="rejected_shed")
            raise AdmissionRejectedError(
                f"tenant {request.tenant!r} is shed under fast burn; "
                "retry later",
                retry_after_s=self.scheduler.config.retry_after_s,
            )
        if not self._started:
            self.ensure_started()
        for shard in self.shards:  # a plain loop: any() adds two frames
            if shard.healthy:
                break
        else:
            SERVING_ADMISSION.inc(outcome="rejected_unavailable")
            raise ShardUnavailableError(
                "every shard's breaker is open; retry after cooldown"
            )
        if deadline_s is not None:
            # Counted from here, so a lazy start does not eat the slack.
            request.deadline_at = self.scheduler.clock() + deadline_s
        journaled = None
        if self.journal is not None:
            journaled = {
                "idempotency_key": idempotency_key,
                "fingerprint": fingerprint,
                "deadline_s": deadline_s,
            }
        result = self._enqueue(
            request, block,
            ("frontend", "admitted", "", {"priority": request.priority}),
            journaled,
        )
        self.runtime.after_submit()
        return result

    def _enqueue(
        self,
        request: ServeRequest,
        block: bool,
        event: tuple,
        journaled: dict | None = None,
    ) -> ServeResult | None:
        """Submit ``request`` to the scheduler with the ladder's one commit
        step, shared by new admissions and journal replays; returns the
        result of a request the step finished, else None.

        The scheduler runs the step only once its own refusals have
        passed: mint the id (a replay keeps its journaled one), append
        the ``admitted`` record when ``journaled`` carries its fields,
        open the trace under the id with its opening events (``event``,
        a ``(layer, kind, detail, attrs)`` tuple, then ``journal``
        ``admitted`` when journaled), answer a priced-memo hit on the
        spot (:meth:`_answer_hit`, which publishes it in one result-store
        step), and otherwise register the id with the result store.  The
        record is written before the push, so no worker record of the id
        can precede it in the journal, and a ``JournalError`` refuses the
        request with nothing queued or traced (a 500: the id was never
        handed out).  It is written without a barrier;
        :meth:`_acknowledge` syncs it (and a hit's ``completed`` record
        with it).  Replays pass no ``journaled``: their record is already
        on file.
        """
        def commit(request: ServeRequest) -> ServeResult | None:
            if not request.id:
                request.id = self.scheduler.next_id(request.tenant)
            opening = (event,)
            if journaled is not None:
                self.journal.admitted(request, **journaled)
                opening = (event, ("journal", "admitted", "", {}))
            request.trace = self.traces.new_trace(
                request.id,
                opening,
                workload=request.workload,
                tenant=request.tenant,
                relax_bits=request.relax_bits,
            )
            if request.search is None:
                result = self._answer_hit(request)
                if result is not None:
                    return result
            self.results.register(request.id)
            return None

        return self.scheduler.submit(request, block, commit)

    def _answer_hit(self, request: ServeRequest) -> ServeResult | None:
        """Finish a request at admission if its point is already priced;
        returns its terminal result when it did, else None.

        The lookup is :func:`~repro.runtime.campaign.memo_hit`, the one
        ``run_point`` makes, on any shard's harness (every shard shares
        one harness identity) and under its chaos injector, so a pool
        with a chaos policy never answers here.  A hit uses no shard and
        no queue slot and is never registered: it ends through
        :meth:`_finish` with shard -1, no queue wait and the entry's one
        shared point, published in one register-and-complete step, and
        its service time runs from the lookup to the publish.
        """
        start = time.monotonic()
        shard = self.shards[0]
        point = memo_hit(
            shard.workload(request.workload),
            request.relax_bits,
            float(request.dataset_bytes),
            shard.harness,
            shard.chaos,
            request.trace,
        )
        if point is None:
            return None
        return self._finish(
            request, 0.0, point.status, attempts=point.attempts, point=point,
            service_s=time.monotonic() - start, registered=False,
        )

    def result(
        self, request_id: str, timeout: float | None = None
    ) -> ServeResult:
        """Block for a request's terminal result (raises on timeout)."""
        result = self.results.wait(request_id, timeout=timeout)
        if result is None:
            raise ServingError(
                f"request {request_id!r} still pending after {timeout}s"
            )
        return result

    def healthz(self) -> dict:
        healthy = sum(1 for shard in self.shards if shard.healthy)
        slo = self.slo.evaluate()
        if healthy == 0:
            status = "unhealthy"
        elif slo["verdict"] == "fast_burn":
            # Shards are up but the error budget is burning too fast to
            # sustain: report unhealthy so load balancers back off.
            status = "fast_burn"
        elif healthy < len(self.shards):
            status = "degraded"
        else:
            status = "ok"
        return {
            "status": status,
            "shards": len(self.shards),
            "healthy_shards": healthy,
            "started": self._started,
            "draining": self._draining,
            "runtime": self.runtime.name,
            "workers": self.runtime.lifecycle(),
            "slo": {
                "verdict": slo["verdict"],
                "short_burn": slo["short_burn"],
                "long_burn": slo["long_burn"],
            },
        }

    def stats(self) -> dict:
        return {
            "runtime": self.runtime.stats(),
            "scheduler": self.scheduler.stats(),
            "results": {
                "pending": self.results.pending,
                "completed": self.results.completed,
                "evicted": self.results.evicted,
                "evicted_by_reason": dict(self.results.evicted_by_reason),
                "ttl_s": self.results.ttl_s,
            },
            "journal": (
                None
                if self.journal is None
                else {
                    "path": self.journal.path,
                    "appends": dict(self.journal.appends),
                    "syncs": self.journal.syncs,
                    "append_failures": self._journal_failures,
                    "recovery": dict(self.recovery),
                }
            ),
            "latency": self.latency.summary(),
            "slo": self.slo.evaluate(),
            "tenants": self._tenant_stats(),
            "telemetry": (
                None if self.telemetry is None else self.telemetry.status()
            ),
            "traces": {
                "resident": len(self.traces),
                "evicted": self.traces.evicted,
                "spilled": self.traces.spilled,
            },
            "shards": [
                {
                    "index": shard.index,
                    "healthy": shard.healthy,
                    "served": shard.served,
                    "failures": shard.failures,
                    "busy_s": shard.busy_s,
                    "in_flight": shard.in_flight,
                }
                for shard in self.shards
            ],
        }

    def _tenant_stats(self) -> dict:
        """Per-tenant totals from ``repro_serving_requests_total`` plus a
        sampled request rate when the telemetry pipeline is attached.

        The scheduler has always *known* the tenant set; this attributes
        the traffic: finished requests by terminal status per tenant, and
        — with telemetry on — the per-second rate over the last minute of
        samples.  Empty while observability is disabled (the counters are
        the source of truth, not the queues).
        """
        from repro.observability.registry import active_registry

        registry = active_registry()
        family = None if registry is None else registry.get(
            SERVING_REQUESTS.name
        )
        if family is None or family.kind != "counter":
            return {}
        from repro.observability.timeseries import counter_rate, series_key

        store = None if self.telemetry is None else self.telemetry.store
        tenants: dict[str, dict] = {}
        rates: dict[str, list[float]] = {}
        for labels, child in family.samples():
            tenant = labels["tenant"]
            entry = tenants.setdefault(
                tenant, {"total": 0.0, "by_status": {}}
            )
            entry["total"] += child.value
            entry["by_status"][labels["status"]] = (
                entry["by_status"].get(labels["status"], 0.0) + child.value
            )
            if store is None:
                continue
            # Each (tenant, status) child by its exact key: a tenant name
            # is never parsed back out of a selector string.
            series = store.get(series_key(SERVING_REQUESTS.name, labels))
            rate = None if series is None else counter_rate(
                series.window(), 60
            )
            found = rates.setdefault(tenant, [])
            if rate is not None:
                found.append(rate)
        for tenant, found in rates.items():
            tenants[tenant]["rate_per_s"] = sum(found) if found else None
        return tenants

    # -- the worker loop ------------------------------------------------------

    def _expired(self, request: ServeRequest, now: float) -> bool:
        return request.deadline_at is not None and now >= request.deadline_at

    def _run_batch(
        self, shard: PoolShard, batch: list[ServeRequest], execute=None
    ) -> None:
        # in_flight counts every batch member the shard still holds; it
        # reaches zero only once each is terminal or handed back — the
        # signal shrink uses to pick a victim that has nothing to lose.
        shard.in_flight += len(batch)
        done = 0
        try:
            for position, request in enumerate(batch):
                if not shard.healthy and request.reroutes < self.max_reroutes:
                    # Breaker tripped mid-batch: hand the rest back so a
                    # healthy shard picks it up.
                    rerouted = batch[position:]
                    for held in rerouted:
                        held.trace_event(
                            "pool", "reroute", "shard breaker open",
                            shard=shard.index, reroutes=held.reroutes,
                        )
                    self.scheduler.requeue(rerouted)
                    SERVING_REROUTES.inc(len(rerouted))
                    return
                self._run_request(shard, request, len(batch), execute=execute)
                done += 1
                shard.in_flight -= 1
        finally:
            shard.in_flight -= len(batch) - done

    def _execute_local(
        self, shard: PoolShard, request: ServeRequest
    ) -> tuple:
        """In-process execution of one request through the rescue ladder.

        The default executor — and the subprocess runtime's last resort
        once a request's worker re-drive budget is spent.  Returns the
        executor contract tuple ``(point, status, attempts, error)``.
        """
        # run_point installs the trace itself; holding it until price()
        # returns is what lets a wrapper around run_point (perfbench's
        # span recorder) attribute the call to its request.
        with use_trace(request.trace):
            point = shard.price(
                request.workload,
                request.relax_bits,
                request.dataset_bytes,
                request.trace,
            )
        return point, point.status, point.attempts, None

    def _execute_search(
        self, shard: PoolShard, request: ServeRequest
    ) -> tuple:
        """Run one `/search` retrieval against the pool's index.

        Always executes in the serving process — the index is read-only
        numpy shared by every shard, so there is no state to isolate and
        nothing for the subprocess frame protocol to ship.  Returns
        ``(search_out, status, attempts, error)`` mirroring the executor
        contract shape (the measured point slot is the search payload).
        """
        index = self.search_index()
        payload = request.search or {}
        started = time.monotonic()
        try:
            with use_trace(request.trace):
                query_bits = np.asarray(
                    payload.get("query", ()), dtype=np.uint8
                )
                k = int(payload.get("k", 10))
                top = index.top_k(query_bits, k, request.relax_bits)
                recall = 1.0
                if top.shift > 0:
                    exact = index.top_k(query_bits, k, relax_bits=0)
                    recall = recall_at_k(
                        np.array(exact.ids), np.array(top.ids)
                    )
                request.trace_event(
                    "executor", "search",
                    shard=shard.index, k=k, shift=top.shift,
                    entries=index.entries,
                    recall=round(recall, 4),
                )
        except SearchError as exc:
            # A journaled payload this index cannot serve (foreign dim,
            # oversized k): terminal error, never a crash loop.
            SEARCH_REQUESTS.inc(status="error")
            return None, "error", 1, f"SearchError: {exc}"
        elapsed = time.monotonic() - started
        SEARCH_REQUESTS.inc(status="ok")
        SEARCH_TOPK.observe(elapsed)
        SEARCH_RECALL.set(recall, relax_bits=request.relax_bits)
        search_out = {
            **top.to_dict(),
            "k": k,
            "relax_bits": request.relax_bits,
            "recall_vs_exact": recall,
            "entries": index.entries,
            "dim": index.dim,
        }
        return search_out, "ok", 1, None

    def _run_request(
        self,
        shard: PoolShard,
        request: ServeRequest,
        batch_size: int,
        execute=None,
    ) -> None:
        # The request's one queue wait: scheduler clock, taken as it
        # starts.  Service time (below) is always real time.
        now = self.scheduler.clock()
        queue_wait = max(0.0, now - request.submitted_at)
        trace = request.trace
        if self._expired(request, now):
            request.trace_event(
                "pool", "expired", "deadline passed while queued",
                shard=shard.index,
            )
            self._finish(
                request, queue_wait, "expired", shard, batch_size,
                error="deadline passed while queued",
            )
            return
        if trace is not None:
            trace.event(
                "pool", "dispatch", shard=shard.index, batch_size=batch_size,
                queue_wait_s=round(queue_wait, 6),
            )
        if self.journal is not None:
            self._journal_dispatched(request, shard.index)
        start = time.monotonic()
        search_out = None
        try:
            if request.search is not None:
                # Search always runs in-process against the shared
                # read-only index — never through the pluggable executor
                # (the subprocess frame protocol stays point-shaped).
                point = None
                search_out, status, attempts, error = self._execute_search(
                    shard, request
                )
            else:
                point, status, attempts, error = (
                    execute or self._execute_local
                )(shard, request)
        except Exception as exc:  # the executor contract says "never";
            point = None  # this is the belt-and-braces terminal path.
            status = "error"
            attempts = 0
            error = f"{type(exc).__name__}: {exc}"
        service_s = time.monotonic() - start
        # The health gauge follows the breaker's transitions: it drops when
        # a failure trips the breaker and recovers when a success closes
        # it (the half-open probe after a cooldown), on every runtime.
        if status in ("failed", "error"):
            shard.failures += 1
            if shard.breaker.record_failure(shard.key):
                SERVING_SHARD_HEALTHY.set(int(shard.healthy), shard=shard.index)
        elif shard.breaker.record_success(shard.key):
            SERVING_SHARD_HEALTHY.set(1, shard=shard.index)
        if trace is not None:
            trace.event(
                "pool", "complete", status=status, attempts=attempts,
                service_s=round(service_s, 6),
            )
        self._finish(
            request, queue_wait, status, shard, batch_size,
            service_s=service_s, attempts=attempts, point=point,
            error=error, search=search_out,
        )

    def _finish(
        self,
        request: ServeRequest,
        queue_wait_s: float,
        status: str,
        shard: PoolShard | None = None,
        batch_size: int = 0,
        service_s: float | None = None,
        attempts: int = 0,
        point: CampaignPoint | None = None,
        error: str | None = None,
        search: dict | None = None,
        registered: bool = True,
    ) -> ServeResult:
        """The one terminal step of every request: executed, expired,
        answered at admission or aborted by ``stop(drain=False)`` (the
        last two with no ``shard``; a hit answered at admission is the
        one request not ``registered``).

        Builds the request's :class:`ServeResult`, journals and publishes
        it through :meth:`_complete`, then derives every aggregate from
        that result alone: the requests and shard counters, the queue-wait
        and request-duration histograms, the three latency sketches and
        the SLO window.  An executed request (a ``shard`` and
        ``service_s`` given) also feeds the service-time EMA and its
        shard's totals.  Returns the published result.
        """
        result = ServeResult(
            id=request.id,
            tenant=request.tenant,
            workload=request.workload,
            relax_bits=request.relax_bits,
            dataset_bytes=request.dataset_bytes,
            status=status,
            shard=-1 if shard is None else shard.index,
            attempts=attempts,
            queue_wait_s=queue_wait_s,
            service_s=service_s or 0.0,
            batch_size=batch_size,
            point=point,
            error=error,
            search=search,
        )
        self._complete(result, registered)
        # One series per (tenant, status): the family's own child cache.
        requests = SERVING_REQUESTS.child(request.tenant, status)
        if requests is not None:
            requests.inc()
        if shard is not None:
            shard.count_request(status, result.service_s)
            if service_s is not None:
                shard.served += 1
                shard.busy_s += service_s
                self.scheduler.note_service_time(service_s)
        e2e_s = queue_wait_s + result.service_s
        _QUEUE_WAIT.observe(queue_wait_s)
        self.latency.observe_request(queue_wait_s, result.service_s, e2e_s)
        self.slo.record(e2e_s, ok=result.completed)
        record_request_duration(e2e_s, request.id)
        return result


class Client:
    """In-process client: submit-and-wait against a :class:`CrossbarPool`.

    The synchronous call path used by tests, ``repro slo``/``repro top``
    and the closed-loop arms of the throughput bench; the HTTP frontend
    is the same facade over a socket.
    """

    def __init__(self, pool: CrossbarPool, tenant: str = "default") -> None:
        self.pool = pool
        self.tenant = tenant

    def submit(self, workload: str, **kwargs) -> str:
        kwargs.setdefault("tenant", self.tenant)
        return self.pool.submit(workload, **kwargs)

    def result(
        self, request_id: str, timeout: float | None = 60.0
    ) -> ServeResult:
        return self.pool.result(request_id, timeout=timeout)

    def call(
        self,
        workload: str,
        relax_bits: int = 0,
        dataset_bytes: float = 64 * MIB,
        priority: int | None = None,
        deadline_s: float | None = None,
        timeout: float | None = 60.0,
    ) -> ServeResult:
        """Submit one request and block for its terminal result.

        A request finished inside its admission (a priced-memo hit) comes
        back with its acknowledgement; only a queued one waits on the
        result store."""
        request_id, _, result = self.pool.admit(
            workload,
            relax_bits=relax_bits,
            dataset_bytes=dataset_bytes,
            tenant=self.tenant,
            priority=priority,
            deadline_s=deadline_s,
        )
        if result is not None:
            return result
        return self.pool.result(request_id, timeout=timeout)

    def search(
        self,
        query,
        k: int = 10,
        relax_bits: int = 0,
        timeout: float | None = 60.0,
        **kwargs,
    ) -> ServeResult:
        """Submit one similarity search and block for its result."""
        kwargs.setdefault("tenant", self.tenant)
        request_id, _, _ = self.pool.admit_search(
            query, k=k, relax_bits=relax_bits, **kwargs
        )
        return self.result(request_id, timeout=timeout)
