"""Domain instrumentation: the declared metric families.

Every metric family the runtime layers emit is one row of the table
below — a module-level :class:`Instrument` handle that instrumented code
writes through (``SERVING_ADMISSION.inc(outcome="admitted")``).  A handle
binds its family once per :data:`~repro.observability.registry.binding`:
swapping the default registry, clearing it or toggling observability
re-binds every handle on its next write, and a write returns at once
while observability is disabled.  A family's first write into a registry
registers that family and leaves the rest of the table owed to the
registry's next listing (:meth:`~repro.observability.registry.MetricsRegistry.bind`),
so a scrape lists them all.  A hot call site whose labels never change
writes through a :class:`Series` from :meth:`Instrument.series`, which
follows the same re-binding rules; one whose label values are strings
known only per call writes through :meth:`Instrument.child`.

The helpers after the table are the writes that carry a rule or feed
several families.  ``docs/observability.md`` documents every family.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ObservabilityError
from repro.observability import registry as _registry
from repro.observability.registry import (
    DEFAULT_ENERGY_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    active_registry,
)

if TYPE_CHECKING:
    from repro.runtime.executor import ExecutionResult

#: Every declared family, in declaration order.
FAMILIES: list["Instrument"] = []

#: The binding of a handle that has not bound yet (matches no generation).
_UNBOUND = (None, None, None)


class Instrument:
    """One declared metric family.  ``inc``/``set``/``observe`` take the
    value positionally and the family's labels as keywords.

    The handle keeps one ``(binding, children, family)`` tuple, replaced
    whole when the registry binding changes.  ``children`` caches each
    child series by the labels exactly as the call site passed them, so
    a warm write is one tuple build and one dict hit; a miss resolves
    through the family, which renders values with ``str`` (``shard=0``
    and ``shard="0"`` are one series).  ``children`` is ``None`` while
    observability is disabled.
    """

    __slots__ = ("kind", "name", "help", "labelnames", "buckets", "_bound")

    def __init__(
        self,
        kind: str,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.kind = kind
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.buckets = buckets
        self._bound = _UNBOUND
        FAMILIES.append(self)

    def _bind(self) -> tuple:
        """Bind against the current registry binding (registering this
        family on its first write into the registry)."""
        binding = _registry.binding
        registry = binding[0]
        if registry is None:
            bound = (binding, None, None)
        else:
            family = registry.get(self.name)
            if family is None:
                args = (self.buckets,) if self.kind == "histogram" else ()
                family = registry.bind(
                    _KINDS[self.kind](
                        self.name, self.help, self.labelnames, *args
                    ),
                    _declare,
                )
            bound = (binding, {}, family)
        self._bound = bound
        return bound

    def _child(self, labels: dict):
        """The child series for ``labels``, or ``None`` while disabled."""
        bound = self._bound
        if bound[0] is not _registry.binding:
            bound = self._bind()
        children = bound[1]
        if children is None:
            return None
        key = tuple(labels.items())
        child = children.get(key)
        if child is None:
            child = children[key] = bound[2].labels(**labels)
        return child

    def inc(self, amount: float = 1.0, /, **labels) -> None:
        child = self._child(labels)
        if child is not None:
            child.inc(amount)

    def set(self, value: float, /, **labels) -> None:
        child = self._child(labels)
        if child is not None:
            child.set(value)

    def observe(self, value: float, /, **labels) -> None:
        child = self._child(labels)
        if child is not None:
            child.observe(value)

    def child(self, *values):
        """The child series for label ``values`` in label-name order, or
        ``None`` while disabled: the family's own child cache, hit with
        the argument tuple, so string values build no dict or key."""
        bound = self._bound
        if bound[0] is not _registry.binding:
            bound = self._bind()
        family = bound[2]
        return None if family is None else family.child(values)

    def series(self, **labels) -> "Series":
        """A handle on one series of this family, for a call site whose
        labels never change."""
        return Series(self, labels)


class Series:
    """One series of a declared family, for a hot call site with fixed
    labels (``ADMITTED = SERVING_ADMISSION.series(outcome="admitted")``).

    The handle keeps one ``(binding, child)`` tuple and re-resolves it
    through :meth:`Instrument.child` when the binding changes, so a write
    builds no label dict or key and costs about half an ``Instrument``
    write.  ``child`` is ``None`` while observability is disabled.
    """

    __slots__ = ("instrument", "values", "_bound")

    def __init__(self, instrument: Instrument, labels: dict) -> None:
        if labels.keys() != set(instrument.labelnames):
            raise ObservabilityError(
                f"{instrument.name}: got labels {sorted(labels)}, "
                f"schema is {sorted(instrument.labelnames)}"
            )
        self.instrument = instrument
        #: The label values in label-name order, rendered as the family
        #: renders them.
        self.values = tuple(
            str(labels[name]) for name in instrument.labelnames
        )
        self._bound = _UNBOUND

    def _resolve(self) -> tuple:
        # The binding is read before the child resolves: a swap in
        # between leaves a stale binding here, which re-resolves next write.
        binding = _registry.binding
        bound = self._bound = (
            binding, self.instrument.child(*self.values)
        )
        return bound

    def touch(self) -> None:
        """Create the series (at zero, for a counter) once per binding."""
        if self._bound[0] is not _registry.binding:
            self._resolve()

    def inc(self, amount: float = 1.0, /) -> None:
        bound = self._bound
        if bound[0] is not _registry.binding:
            bound = self._resolve()
        if bound[1] is not None:
            bound[1].inc(amount)

    def set(self, value: float, /) -> None:
        bound = self._bound
        if bound[0] is not _registry.binding:
            bound = self._resolve()
        if bound[1] is not None:
            bound[1].set(value)

    def observe(self, value: float, exemplar: dict | None = None, /) -> None:
        bound = self._bound
        if bound[0] is not _registry.binding:
            bound = self._resolve()
        if bound[1] is not None:
            bound[1].observe(value, exemplar)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _declare(registry: MetricsRegistry) -> None:
    """Register every declared family in ``registry`` (idempotent; a
    conflicting family already there raises ``ObservabilityError``)."""
    for inst in FAMILIES:
        args = (inst.buckets,) if inst.kind == "histogram" else ()
        getattr(registry, inst.kind)(inst.name, inst.help, inst.labelnames, *args)


# -- the family table -----------------------------------------------------------

# executor
EXECUTOR_RUNS = Instrument(
    "counter", "repro_executor_runs_total",
    "Workload executions finished, by terminal status.", ("workload", "status"))
EXECUTOR_OPS = Instrument(
    "counter", "repro_executor_ops_total",
    "Arithmetic operations executed on the APIM engine.", ("workload", "op"))
EXECUTOR_CYCLES = Instrument(
    "counter", "repro_executor_cycles_total",
    "Simulated lane-cycles consumed by workload executions.", ("workload",))
EXECUTOR_ENERGY = Instrument(
    "counter", "repro_executor_energy_joules_total",
    "Simulated energy consumed by workload executions.", ("workload",))
EXECUTOR_FAULTS = Instrument(
    "counter", "repro_executor_faults_total",
    "Fault-handling activity surfaced by executions.", ("workload", "kind"))
EXECUTOR_TIME = Instrument(
    "histogram", "repro_executor_time_seconds",
    "Simulated tile latency per execution.", ("workload",))
EXECUTOR_ENERGY_HIST = Instrument(
    "histogram", "repro_executor_energy_joules",
    "Simulated tile energy per execution.", ("workload",),
    DEFAULT_ENERGY_BUCKETS)
# pricing (APIM tiles and baseline locality)
COLD_WORK = Instrument(
    "counter", "repro_pricing_cold_work_total",
    "Pricing work a memo miss ran, by source (executed: an APIM tile; "
    "simulated: a baseline locality simulation).", ("source",))
COLD_WORK_SECONDS = Instrument(
    "histogram", "repro_pricing_cold_work_seconds",
    "Wall-clock cost of one tile execution or locality simulation.",
    ("source",))
# supervisor
SUPERVISOR_EVENTS = Instrument(
    "counter", "repro_supervisor_events_total",
    "Supervision lifecycle events (attempt/retry/success/failure).", ("kind",))
SUPERVISOR_RETRIES = Instrument(
    "counter", "repro_supervisor_retries_total",
    "Supervised attempts that were retried after a retryable error.")
SUPERVISOR_BACKOFF = Instrument(
    "histogram", "repro_supervisor_backoff_seconds",
    "Backoff delays slept between supervised attempts.")
BREAKER_TRANSITIONS = Instrument(
    "counter", "repro_breaker_transitions_total",
    "Circuit-breaker state transitions.", ("state",))
# campaign / checkpoint
CAMPAIGN_POINTS = Instrument(
    "counter", "repro_campaign_points_total",
    "Campaign grid points finished, by terminal status.", ("status",))
CAMPAIGN_RESUMED = Instrument(
    "counter", "repro_campaign_points_resumed_total",
    "Grid points skipped because the journal proved them complete.")
CHECKPOINT_APPENDS = Instrument(
    "counter", "repro_checkpoint_appends_total",
    "Records appended to the write-ahead journal, by type.", ("type",))
CHECKPOINT_FSYNCS = Instrument(
    "counter", "repro_checkpoint_fsyncs_total",
    "Journal fsync barriers paid (one per append).")
CHECKPOINT_RECOVERED = Instrument(
    "counter", "repro_checkpoint_recovered_total",
    "Torn-tail records dropped while recovering a journal.")
# resilience
BIST_SCANS = Instrument(
    "counter", "repro_resilience_bist_scans_total",
    "March-test BIST scans executed.")
STUCK_CELLS = Instrument(
    "counter", "repro_resilience_stuck_cells_total",
    "Stuck cells condemned by BIST scans.")
RESIDUE_MISMATCHES = Instrument(
    "counter", "repro_resilience_residue_mismatches_total",
    "Elements flagged by the online mod-3 residue check.")
RESILIENCE_REPAIRS = Instrument(
    "counter", "repro_resilience_repairs_total",
    "Rows moved off faulty cells, by mechanism.", ("mechanism",))
RESILIENCE_RETRIES = Instrument(
    "counter", "repro_resilience_retries_total",
    "Element re-execution rounds run by the resilience loop.")
RESILIENCE_DEGRADED = Instrument(
    "counter", "repro_resilience_degraded_total",
    "Elements kept corrupted after the repair budget ran out.")
# serving
SERVING_ADMISSION = Instrument(
    "counter", "repro_serving_admission_total",
    "Admission-control outcomes (admitted / rejected_*).", ("outcome",))
SERVING_QUEUE_DEPTH = Instrument(
    "gauge", "repro_serving_queue_depth",
    "Requests currently queued, per priority class.", ("priority",))
SERVING_QUEUE_WAIT = Instrument(
    "histogram", "repro_serving_queue_wait_seconds",
    "Wall-clock wait between admission and dispatch.")
SERVING_BATCH_SIZE = Instrument(
    "histogram", "repro_serving_batch_size",
    "Coalesced batch sizes dispatched to shards.", (),
    (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0))
SERVING_REQUESTS = Instrument(
    "counter", "repro_serving_requests_total",
    "Requests finished by the pool, by tenant and terminal status.",
    ("tenant", "status"))
SERVING_SHARD_REQUESTS = Instrument(
    "counter", "repro_serving_shard_requests_total",
    "Requests executed per shard, by terminal status.", ("shard", "status"))
SERVING_SHARD_BUSY = Instrument(
    "counter", "repro_serving_shard_busy_seconds_total",
    "Wall-clock seconds each shard spent executing requests.", ("shard",))
SERVING_SHARD_HEALTHY = Instrument(
    "gauge", "repro_serving_shard_healthy",
    "1 while the shard's breaker admits traffic, 0 while open.", ("shard",))
SERVING_REROUTES = Instrument(
    "counter", "repro_serving_reroutes_total",
    "Requests pushed back to the queue off an unhealthy shard.")
WORKER_SPAWNS = Instrument(
    "counter", "repro_serving_worker_spawns_total",
    "Shard worker processes spawned (initial starts and respawns).",
    ("shard",))
WORKER_DEATHS = Instrument(
    "counter", "repro_serving_worker_deaths_total",
    "Shard worker processes that died, by detected reason.",
    ("shard", "reason"))
WORKER_RESPAWNS = Instrument(
    "counter", "repro_serving_worker_respawns_total",
    "Shard worker processes restarted after a death.", ("shard",))
WORKER_REDRIVES = Instrument(
    "counter", "repro_serving_worker_redrives_total",
    "In-flight requests re-driven after their worker died.", ("shard",))
JOURNAL_APPENDS = Instrument(
    "counter", "repro_serving_journal_appends_total",
    "Records appended to the serving request journal, by type.", ("type",))
JOURNAL_RECOVERED = Instrument(
    "counter", "repro_serving_journal_recovered_total",
    "Journal recovery outcomes at startup: completed results restored, "
    "in-flight requests replayed, torn records dropped, duplicate terminal "
    "records skipped.", ("kind",))
SERVING_IDEMPOTENCY = Instrument(
    "counter", "repro_serving_idempotency_total",
    "Idempotency-key submission outcomes (hit / conflict).", ("outcome",))
RESULT_EVICTIONS = Instrument(
    "counter", "repro_serving_result_evictions_total",
    "Results evicted from the ResultStore, by reason.", ("reason",))
# fleet control plane
FLEET_SHARDS = Instrument(
    "gauge", "repro_fleet_shards",
    "Shards currently serving traffic in the pool.")
FLEET_SCALE_EVENTS = Instrument(
    "counter", "repro_fleet_scale_events_total",
    "Live-resize decisions executed, by direction (grow/shrink).",
    ("direction",))
FLEET_SHED_TENANTS = Instrument(
    "counter", "repro_fleet_shed_tenants_total",
    "Tenants shed under fast burn (lowest priority first).")
FLEET_DECISION_SECONDS = Instrument(
    "histogram", "repro_fleet_decision_seconds",
    "Wall-clock cost of one autoscaler decision (evaluate + act).")
# similarity search
SEARCH_REQUESTS = Instrument(
    "counter", "repro_search_requests_total",
    "`/search` retrievals executed, by terminal status.", ("status",))
SEARCH_CODEBOOK_ENTRIES = Instrument(
    "gauge", "repro_search_codebook_entries",
    "Codewords resident in the serving search index.")
SEARCH_TOPK = Instrument(
    "histogram", "repro_search_topk_seconds",
    "Top-k evaluation latency (distance sweep + ranked reduce).")
SEARCH_RECALL = Instrument(
    "gauge", "repro_search_recall",
    "Most recent recall@k measured against the exact ranking, by relax "
    "rung.", ("relax_bits",))
# timed regions, request latency, build identity
SPAN_DURATION = Instrument(
    "histogram", "repro_span_duration_seconds",
    "Wall-clock duration of timed regions, by <layer>.<kind>.", ("name",))
REQUEST_DURATION = Instrument(
    "histogram", "repro_request_duration_seconds",
    "End-to-end request latency (admission to completion); buckets carry "
    "trace-id exemplars.")
BUILD_INFO = Instrument(
    "gauge", "repro_build_info",
    "Constant 1; labels identify the build serving this scrape.",
    ("version", "python", "config_hash"))
# process health
PROCESS_RSS = Instrument(
    "gauge", "repro_process_rss_bytes", "Resident set size of this process.")
PROCESS_CPU_USER = Instrument(
    "gauge", "repro_process_cpu_user_seconds",
    "User-mode CPU seconds consumed by this process.")
PROCESS_CPU_SYSTEM = Instrument(
    "gauge", "repro_process_cpu_system_seconds",
    "Kernel-mode CPU seconds consumed by this process.")
PROCESS_THREADS = Instrument(
    "gauge", "repro_process_threads", "Live Python threads in this process.")
PROCESS_OPEN_FDS = Instrument(
    "gauge", "repro_process_open_fds",
    "File descriptors currently open in this process.")
# telemetry pipeline (self-observation)
TELEMETRY_SAMPLES = Instrument(
    "counter", "repro_telemetry_samples_total",
    "Samples ingested into the telemetry time-series store.")
TELEMETRY_ALERTS = Instrument(
    "gauge", "repro_telemetry_alerts",
    "Alert rules currently in each state "
    "(inactive/pending/firing/resolved).", ("state",))
TELEMETRY_EVAL = Instrument(
    "histogram", "repro_telemetry_eval_seconds",
    "Wall-clock cost of one telemetry tick (sampling + rules).")
# crossbar controller
CONTROLLER_COMMANDS = Instrument(
    "counter", "repro_controller_commands_total",
    "Controller commands executed, by opcode.", ("opcode",))
CONTROLLER_MAGIC_OPS = Instrument(
    "counter", "repro_controller_magic_ops_total",
    "MAGIC NOR evaluations issued through the controller.")
CONTROLLER_ROW_ACTIVATIONS = Instrument(
    "counter", "repro_controller_row_activations_total",
    "Wordline activations driven by controller commands.")

#: The ``repro_process_*`` gauges, in ``repro top`` display order.
PROCESS_GAUGES = (
    PROCESS_RSS, PROCESS_CPU_USER, PROCESS_CPU_SYSTEM, PROCESS_THREADS,
    PROCESS_OPEN_FDS,
)

#: Rows a command activates (read or write wordline pulses), per opcode.
#: MAJ drives three wordlines together and writes one back; CPY reads the
#: source row and writes the destination; NOR/INIT/TICK act on cells or
#: the clock, not whole rows.
_ROW_ACTIVATIONS = {
    "WR": 1, "RD": 1, "CLR": 1, "CPY": 2, "MAJ": 4, "RETIRE": 2,
}

# -- writes with a rule, or into several families --------------------------------


#: Per ``(workload, status)``: the registry binding and the seven child
#: series one execution always writes, resolved together once per binding.
_EXECUTIONS: dict[tuple[str, str], tuple] = {}


def record_execution(result: "ExecutionResult") -> None:
    """Roll one :class:`~repro.runtime.executor.ExecutionResult` into the
    executor families (ops, cycles, energy, faults, latency/energy
    distributions).

    The seven fixed-label writes are bound as one group per workload and
    status: a single binding check covers all seven children, where
    seven :class:`Series` handles would each check and re-resolve.  A
    registry installed per execution (the overhead benchmark's arms) pays
    that re-resolution on every run."""
    binding = _registry.binding
    if binding[0] is None:
        return
    w = result.workload
    key = (w, result.status)
    bound = _EXECUTIONS.get(key)
    if bound is None or bound[0] is not binding:
        children = (
            EXECUTOR_RUNS.child(w, result.status),
            EXECUTOR_OPS.child(w, "mul"),
            EXECUTOR_OPS.child(w, "add"),
            EXECUTOR_CYCLES.child(w),
            EXECUTOR_ENERGY.child(w),
            EXECUTOR_TIME.child(w),
            EXECUTOR_ENERGY_HIST.child(w),
        )
        if None in children:  # disabled while the group resolved
            return
        bound = _EXECUTIONS[key] = (binding, children)
    runs, muls, adds, cycles, energy, time_hist, energy_hist = bound[1]
    runs.inc()
    muls.inc(result.mul_count)
    adds.inc(result.add_count)
    cycles.inc(result.cost.cycles)
    energy.inc(result.energy)
    time_hist.observe(result.time)
    energy_hist.observe(result.energy)
    for kind, count in (
        ("detected", result.faults_detected),
        ("repaired", result.repairs),
        ("retried", result.retries),
    ):
        if count:
            EXECUTOR_FAULTS.inc(count, workload=w, kind=kind)


def record_cold_work(source: str, seconds: float) -> None:
    """Count one tile execution (``executed``) or locality simulation
    (``simulated``) and observe its cost; a memo hit records nothing."""
    COLD_WORK.inc(source=source)
    COLD_WORK_SECONDS.observe(seconds, source=source)


#: One series per supervision event kind, and the retry counter.
_SUPERVISION_EVENTS = {
    kind: SUPERVISOR_EVENTS.series(kind=kind)
    for kind in ("attempt", "retry", "success", "failure")
}
_RETRIES = SUPERVISOR_RETRIES.series()


def record_supervision_event(kind: str) -> None:
    """Count one supervision lifecycle event (``attempt``, ``retry``,
    ``success`` or ``failure``).

    ``attempt`` also materialises the retry counter at zero, once per
    registry binding, so a scrape of a perfectly healthy run still exposes
    ``repro_supervisor_retries_total`` (dashboards need the series to exist
    before it is interesting)."""
    _SUPERVISION_EVENTS[kind].inc()
    if kind == "attempt":
        _RETRIES.touch()
    elif kind == "retry":
        _RETRIES.inc()


def record_campaign_point(status: str, resumed: bool = False) -> None:
    """Count one terminal grid point (``resumed=True`` for journal skips)."""
    CAMPAIGN_POINTS.inc(status=status)
    if resumed:
        CAMPAIGN_RESUMED.inc()


def record_checkpoint_append(record_type: str) -> None:
    """Count one journal append and its fsync barrier."""
    CHECKPOINT_APPENDS.inc(type=record_type)
    CHECKPOINT_FSYNCS.inc()


def record_bist_scan(stuck_cells: int) -> None:
    """Count one BIST scan and the stuck cells it condemned."""
    BIST_SCANS.inc()
    if stuck_cells:
        STUCK_CELLS.inc(stuck_cells)


def record_journal_recovery(
    restored: int = 0,
    replayed: int = 0,
    truncated: int = 0,
    duplicates: int = 0,
) -> None:
    """Roll one journal recovery pass into the recovery family."""
    for kind, count in (
        ("restored", restored),
        ("replayed", replayed),
        ("truncated", truncated),
        ("duplicate_completions", duplicates),
    ):
        if count:
            JOURNAL_RECOVERED.inc(count, kind=kind)


_REQUEST_DURATION = REQUEST_DURATION.series()


def record_request_duration(seconds: float, trace_id: str | None = None) -> None:
    """Observe one end-to-end request latency; ``trace_id`` becomes the
    bucket's exemplar, linking the aggregate histogram back to a concrete
    ``GET /trace/<id>`` timeline."""
    _REQUEST_DURATION.observe(
        seconds, {"trace_id": trace_id} if trace_id else None
    )


def record_controller_command(opcode: str, cells: int = 0) -> None:
    """Count one controller command.

    ``cells`` is the cell count of NOR/INIT commands; a NOR command is one
    MAGIC evaluation regardless of fan-in, INITs pre-stage cells for free.
    """
    if active_registry() is None:  # commands run in hot loops
        return
    CONTROLLER_COMMANDS.inc(opcode=opcode)
    if opcode == "NOR":
        CONTROLLER_MAGIC_OPS.inc()
    rows = _ROW_ACTIVATIONS.get(opcode, 0)
    if rows:
        CONTROLLER_ROW_ACTIVATIONS.inc(rows)


# -- process health / telemetry ---------------------------------------------------


def sample_process_resources() -> dict[str, float]:
    """Read the process resources (psutil-free), publish the
    ``repro_process_*`` gauges, and return the readings keyed by gauge
    name (the telemetry pipeline stores them).

    RSS comes from ``/proc/self/statm`` (falling back to the *peak* RSS
    ``getrusage`` reports where /proc is absent), CPU seconds from
    ``getrusage``, open fds from ``/proc/self/fd`` when available.
    """
    import os
    import resource
    import threading

    usage = resource.getrusage(resource.RUSAGE_SELF)
    values = {
        PROCESS_CPU_USER.name: float(usage.ru_utime),
        PROCESS_CPU_SYSTEM.name: float(usage.ru_stime),
        PROCESS_THREADS.name: float(threading.active_count()),
    }
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
        values[PROCESS_RSS.name] = float(pages * os.sysconf("SC_PAGESIZE"))
    except (OSError, ValueError, IndexError):
        # ru_maxrss is kilobytes on Linux: the high-water mark, not the
        # current level — still the right order of magnitude for health.
        values[PROCESS_RSS.name] = float(usage.ru_maxrss * 1024)
    try:
        values[PROCESS_OPEN_FDS.name] = float(len(os.listdir("/proc/self/fd")))
    except OSError:  # pragma: no cover - /proc-less platforms
        pass
    for gauge in PROCESS_GAUGES:
        if gauge.name in values:
            gauge.set(values[gauge.name])
    return values


def record_telemetry_tick(samples: int, eval_s: float) -> None:
    """Roll one telemetry tick into the self-observation families."""
    TELEMETRY_SAMPLES.inc(max(0, samples))
    TELEMETRY_EVAL.observe(eval_s)


def set_telemetry_alert_states(counts: dict) -> None:
    """Publish how many alert rules sit in each state."""
    for state, count in counts.items():
        TELEMETRY_ALERTS.set(float(count), state=state)


def set_build_info(
    version: str | None = None,
    python: str | None = None,
    config_hash: str | None = None,
) -> None:
    """Publish the constant ``repro_build_info 1`` gauge.

    Defaults are resolved lazily (package version, interpreter version,
    a short hash of the default APIM config) so a scrape is attributable
    to the exact build that produced it.  Imports happen inside the
    function: ``repro/__init__`` imports the runtime which imports this
    module, so importing ``repro`` at module level would cycle.
    """
    if active_registry() is None:
        return
    if version is None:
        from repro import __version__

        version = __version__
    if python is None:
        import platform

        python = platform.python_version()
    if config_hash is None:
        import hashlib

        from repro.core.config import default_config

        digest = hashlib.sha256(
            repr(default_config()).encode("utf-8")
        ).hexdigest()
        config_hash = digest[:12]
    BUILD_INFO.set(1, version=version, python=python, config_hash=config_hash)
