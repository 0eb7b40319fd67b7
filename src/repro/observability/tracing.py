"""End-to-end request tracing across the serving stack.

A request admitted through :meth:`repro.serving.pool.CrossbarPool.submit`
(or the HTTP frontend) gets a :class:`TraceContext` — its trace id, which
is the request id, and a baggage dict — and every layer it crosses
appends structured :class:`TraceEvent` records: queue entry, batch
coalescing links, supervision attempts and retries, degradation rungs,
executor runs, controller command batches.  The result answers the
question aggregate metrics cannot: "why was *this* request slow /
degraded / rerouted?"

Propagation is explicit at layer boundaries — the context rides on the
:class:`~repro.serving.scheduler.ServeRequest` and is handed to
:func:`~repro.runtime.campaign.run_point` — and ambient below them: deep
layers (supervisor, executor, controller) emit through
:func:`trace_event`, which resolves the thread's current context
installed by :func:`use_trace`.  A layer with no active trace pays one
thread-local attribute read and nothing else, which is what keeps the
tracing-enabled arm of ``bench_observability_overhead`` under its 5%
ceiling.  A timed region is the same event: :func:`timed_event` emits
one record carrying ``duration_s`` when the block exits.

The ambient trace is anything with ``.event(layer, kind, detail,
**attrs)``.  Three sinks implement it: a :class:`TraceContext` (lands in
a :class:`TraceStore`), a :class:`BufferedTraceContext` (a subprocess
worker's buffer, replayed by the parent) and
:class:`~repro.runtime.trace.ChromeTraceWriter` (a Chrome trace file).

Storage is a bounded in-memory :class:`TraceStore` (LRU by admission
order) with optional JSONL spill: evicted traces are appended to a spill
file instead of vanishing, so long campaigns keep a durable record while
the process keeps a flat memory profile.  Each trace also bounds its own
event list — a pathological request cannot grow one trace without limit;
overflow is counted, not silently dropped.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import TracingError
from repro.observability.instruments import SPAN_DURATION
from repro.observability.registry import active_registry

__all__ = [
    "BufferedTraceContext",
    "TraceContext",
    "TraceEvent",
    "TraceRecord",
    "TraceStore",
    "current_trace",
    "format_timeline",
    "replay_events",
    "timed_event",
    "trace_event",
    "use_trace",
]


@dataclass(slots=True)
class TraceEvent:
    """One structured hop in a request's journey (a slotted record)."""

    ts: float     #: store-clock timestamp (seconds)
    layer: str    #: frontend / scheduler / pool / supervisor / executor / ...
    kind: str     #: queue_enter, batch_join, attempt, retry, degrade, ...
    detail: str = ""
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {"ts": self.ts, "layer": self.layer, "kind": self.kind}
        if self.detail:
            out["detail"] = self.detail
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


@dataclass(slots=True)
class TraceRecord:
    """Everything the store holds for one trace."""

    trace_id: str
    created_ts: float
    baggage: dict = field(default_factory=dict)
    events: list[TraceEvent] = field(default_factory=list)
    dropped_events: int = 0

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "created_ts": self.created_ts,
            "baggage": dict(self.baggage),
            "events": [event.to_dict() for event in self.events],
            "dropped_events": self.dropped_events,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceRecord":
        """Decode :meth:`to_dict` output (a timeline or a spill line)."""
        return cls(
            trace_id=payload["trace_id"],
            created_ts=payload.get("created_ts", 0.0),
            baggage=payload.get("baggage", {}),
            events=[
                TraceEvent(
                    ts=e["ts"],
                    layer=e["layer"],
                    kind=e["kind"],
                    detail=e.get("detail", ""),
                    attrs=e.get("attrs", {}),
                )
                for e in payload.get("events", [])
            ],
            dropped_events=payload.get("dropped_events", 0),
        )


class TraceStore:
    """Bounded trace storage with LRU eviction and JSONL spill.

    ``capacity`` bounds resident traces; the oldest is evicted first and,
    when ``spill_path`` is set, appended to that file as one JSON line
    (the same tolerant-reader shape as the checkpoint journal and the
    metrics snapshot sink).  ``max_events`` bounds each trace's event
    list.  The clock is injectable for deterministic tests.

    A served request's trace is keyed by its request id.  Traces opened
    without one (autoscaler decisions, benchmarks) get a store-made
    ``{id_prefix}.{seq:x}`` id, which never ends in ``-<digits>`` as a
    request id does, so the two kinds cannot collide.
    """

    def __init__(
        self,
        capacity: int = 256,
        max_events: int = 512,
        spill_path: str | None = None,
        clock: Callable[[], float] = time.monotonic,
        id_prefix: str | None = None,
    ) -> None:
        if capacity < 1:
            raise TracingError(f"store capacity must be positive: {capacity}")
        if max_events < 1:
            raise TracingError(f"max_events must be positive: {max_events}")
        self.capacity = capacity
        self.max_events = max_events
        self.spill_path = spill_path
        self.clock = clock
        if id_prefix is None:
            # Random prefix so ids from distinct stores (processes) do not
            # collide in shared spill files; pass id_prefix for determinism.
            import uuid

            id_prefix = uuid.uuid4().hex[:8]
        self._id_prefix = id_prefix
        self._seq = itertools.count()
        self._records: "OrderedDict[str, TraceRecord]" = OrderedDict()
        self._lock = threading.Lock()
        # Spill I/O gets its own lock and never runs under the store
        # lock, so readers of the in-memory store are never blocked
        # behind an fsync.
        self._spill_lock = threading.Lock()
        self.evicted = 0
        self.spilled = 0

    # -- creation -------------------------------------------------------------

    def new_trace(
        self, trace_id: str | None = None, events=(), **baggage
    ) -> "TraceContext":
        """Open a trace under ``trace_id`` (a store-made id without one);
        returns its :class:`TraceContext`.

        ``events`` are the trace's opening events, ``(layer, kind[,
        detail[, attrs]])`` tuples: they go in with the record, under the
        same lock and stamped with its clock read, as if appended at
        once (the store keeps each ``attrs`` itself; a tuple without one
        gets a fresh dict).  The serving pool's commit step opens a
        request's trace this way with every event known at admission,
        a priced-memo hit's ``campaign`` ``hit`` included, so a hit
        enters the store once.  The context shares the record's baggage
        dict; nothing mutates it.  A resident trace with the same id is
        replaced, and spilled like an eviction.
        """
        spill = self.spill_path is not None
        evicted: list[TraceRecord] | None = [] if spill else None
        records = self._records
        max_events = self.max_events
        lock = self._lock
        lock.acquire()  # as in append: cheaper than ``with`` on 3.11
        try:
            if trace_id is None:
                trace_id = f"{self._id_prefix}.{next(self._seq):x}"
            else:
                replaced = records.pop(trace_id, None)
                if replaced is not None:
                    self.evicted += 1
                    if spill:
                        evicted.append(replaced)
            now = self.clock()
            opened: list[TraceEvent] = []
            record = records[trace_id] = TraceRecord(
                trace_id, now, baggage, opened
            )
            if len(events) > max_events:
                record.dropped_events = len(events) - max_events
                events = events[:max_events]
            for event in events:  # a comprehension would add a frame
                opened.append(TraceEvent(now, *event))
            while len(records) > self.capacity:
                self.evicted += 1
                oldest = records.popitem(last=False)
                if spill:
                    evicted.append(oldest[1])
        finally:
            lock.release()
        # Spilled after the lock is released: an evicted record is out
        # of the store, so nothing appends to it any more.  A store with
        # no spill path evicts on every request once full: it keeps no
        # list of what it evicted and calls nothing.
        if evicted:
            self._spill_batch(evicted)
        return TraceContext(trace_id, baggage, self)

    def _spill_batch(self, records: list[TraceRecord]) -> None:
        """Append ``records`` to the spill file: one write, then fsync.

        A crash mid-write leaves at most a torn final line, which
        :func:`load_spilled` skips — the same discipline as the request
        journal's record log.
        """
        payload = "".join(
            json.dumps(
                record.to_dict(), separators=(",", ":"), sort_keys=True
            )
            + "\n"
            for record in records
        ).encode("utf-8")
        with self._spill_lock:
            try:
                with open(self.spill_path, "ab") as handle:
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                self.spilled += len(records)
            except OSError as exc:
                raise TracingError(
                    f"cannot spill trace to {self.spill_path!r}: {exc}"
                ) from exc

    # -- writes ---------------------------------------------------------------

    def append(
        self,
        trace_id: str,
        layer: str,
        kind: str,
        detail: str = "",
        attrs: dict | None = None,
    ) -> None:
        """Append one event (no-op for evicted/unknown traces).  The store
        keeps ``attrs`` itself, not a copy.  The lock is taken with
        acquire/release, as a metric child takes its own: on CPython 3.11
        that halves an uncontended round trip."""
        lock = self._lock
        lock.acquire()
        try:
            record = self._records.get(trace_id)
            if record is None:
                return
            events = record.events
            if len(events) >= self.max_events:
                record.dropped_events += 1
                return
            events.append(
                TraceEvent(
                    self.clock(), layer, kind, detail,
                    {} if attrs is None else attrs,
                )
            )
        finally:
            lock.release()

    # -- reads ----------------------------------------------------------------

    def get(self, trace_id: str) -> TraceRecord | None:
        """The resident trace ``trace_id`` (None once evicted)."""
        with self._lock:
            return self._records.get(trace_id)

    def timeline(self, trace_id: str) -> dict | None:
        """The JSON-able timeline served by ``GET /trace/<id>``."""
        record = self.get(trace_id)
        return None if record is None else record.to_dict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass(slots=True)
class TraceContext:
    """The propagated identity of one traced request: the trace id and a
    baggage dict (tenant, workload, ...).  The context is what crosses
    layer boundaries; events go to the owning store.
    """

    trace_id: str
    baggage: dict
    store: TraceStore

    def event(self, layer: str, kind: str, detail: str = "", **attrs) -> None:
        """Append one event to this trace (``attrs`` goes to the store as
        is)."""
        self.store.append(self.trace_id, layer, kind, detail, attrs)


class BufferedTraceContext:
    """A store-less trace context that buffers events for later shipping.

    Subprocess shard workers have no access to the parent's
    :class:`TraceStore`, but the layers below them (supervisor, executor,
    campaign) emit through the ambient :func:`trace_event` API, which only
    needs an object with ``.event(layer, kind, detail, **attrs)``.  A
    worker installs one of these via :func:`use_trace`, runs the request,
    then :meth:`drain`-s the buffer into JSON-able dicts that ride the
    result frame back to the supervisor, where :func:`replay_events`
    lands them on the request's real trace.  ``max_events`` bounds the
    buffer the same way :class:`TraceStore` bounds a record's event list.
    """

    def __init__(self, max_events: int = 512) -> None:
        if max_events < 1:
            raise TracingError(f"max_events must be positive: {max_events}")
        self.trace_id = ""
        self.max_events = max_events
        self.dropped_events = 0
        self._events: list[dict] = []

    def event(self, layer: str, kind: str, detail: str = "", **attrs) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        entry: dict = {"layer": layer, "kind": kind}
        if detail:
            entry["detail"] = detail
        if attrs:
            entry["attrs"] = attrs
        self._events.append(entry)

    def drain(self) -> list[dict]:
        """Take the buffered events (the buffer resets to empty)."""
        events, self._events = self._events, []
        return events

    def __len__(self) -> int:
        return len(self._events)


def replay_events(trace, events: list[dict]) -> int:
    """Land drained worker events on a real :class:`TraceContext`.

    Returns the number of events replayed; a ``None`` trace or malformed
    entries are skipped (worker frames are data, not trusted structure).
    """
    if trace is None or not events:
        return 0
    replayed = 0
    for entry in events:
        if not isinstance(entry, dict):
            continue
        layer = entry.get("layer")
        kind = entry.get("kind")
        if not isinstance(layer, str) or not isinstance(kind, str):
            continue
        attrs = entry.get("attrs")
        if not isinstance(attrs, dict):
            attrs = {}
        # Attribute keys shadowing positional parameter names would raise
        # a duplicate-kwarg TypeError; drop them rather than lose the event.
        attrs = {
            key: value
            for key, value in attrs.items()
            if isinstance(key, str) and key not in ("layer", "kind", "detail")
        }
        trace.event(layer, kind, str(entry.get("detail", "")), **attrs)
        replayed += 1
    return replayed


# -- ambient propagation ------------------------------------------------------

_local = threading.local()


def current_trace() -> TraceContext | None:
    """The context installed on this thread, if any."""
    return getattr(_local, "trace", None)


class _TraceScope:
    """Re-entrant installer for the thread's current context."""

    __slots__ = ("ctx", "_previous")

    def __init__(self, ctx: TraceContext | None) -> None:
        self.ctx = ctx
        self._previous: TraceContext | None = None

    def __enter__(self) -> TraceContext | None:
        self._previous = getattr(_local, "trace", None)
        _local.trace = self.ctx
        return self.ctx

    def __exit__(self, *exc_info) -> None:
        _local.trace = self._previous


def use_trace(ctx: TraceContext | None) -> _TraceScope:
    """Install ``ctx`` as the thread's current trace for a ``with`` block.

    ``None`` is accepted (and installs nothing-traced), so call sites can
    pass an optional context without branching.
    """
    return _TraceScope(ctx)


def trace_event(layer: str, kind: str, detail: str = "", **attrs) -> None:
    """Append an event to the thread's current trace; no-op without one.

    The deep layers' single instrumentation call: cost is one
    thread-local read when no trace is active.  A store-backed
    :class:`TraceContext` gets ``attrs`` straight into
    :meth:`TraceStore.append`, without its ``event`` re-collecting them
    into a second dict; any other sink goes through its ``event``.
    """
    ctx = getattr(_local, "trace", None)
    if ctx is None:
        return
    if type(ctx) is TraceContext:
        ctx.store.append(ctx.trace_id, layer, kind, detail, attrs)
    else:
        ctx.event(layer, kind, detail, **attrs)


_NULL_EVENT = nullcontext()


def timed_event(layer: str, kind: str, **attrs):
    """Time a ``with`` block as one event that carries its own duration.

    On exit — also when the body raises — one :func:`trace_event` lands
    on the thread's current trace with ``duration_s`` among its attrs,
    and the same measurement is observed into
    ``repro_span_duration_seconds{name="<layer>.<kind>"}``.  With
    observability disabled and no trace installed it returns a shared
    null context, so a region nobody watches costs two lookups.
    """
    if getattr(_local, "trace", None) is None and active_registry() is None:
        return _NULL_EVENT
    return _Timed(layer, kind, attrs)


class _Timed:
    """One :func:`timed_event` region: times the block, then writes the
    span histogram and the event on exit (the exception propagates)."""

    __slots__ = ("layer", "kind", "attrs", "_start")

    def __init__(self, layer: str, kind: str, attrs: dict) -> None:
        self.layer = layer
        self.kind = kind
        self.attrs = attrs

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        duration_s = time.perf_counter() - self._start
        layer, kind = self.layer, self.kind
        span = SPAN_DURATION.child(f"{layer}.{kind}")
        if span is not None:
            span.observe(duration_s)
        trace_event(layer, kind, duration_s=duration_s, **self.attrs)


# -- rendering ----------------------------------------------------------------

def _iter_rows(record: TraceRecord) -> Iterator[tuple[float, str, str, str]]:
    start = record.events[0].ts if record.events else record.created_ts
    for event in record.events:
        extras = " ".join(
            f"{key}={value}" for key, value in sorted(event.attrs.items())
        )
        detail = " ".join(part for part in (event.detail, extras) if part)
        yield (event.ts - start, event.layer, event.kind, detail)


def format_timeline(record: TraceRecord | dict) -> str:
    """A human-readable timeline (the ``repro trace`` rendering)."""
    if isinstance(record, dict):
        record = TraceRecord.from_dict(record)
    baggage = " ".join(
        f"{key}={value}" for key, value in sorted(record.baggage.items())
    )
    lines = [f"trace {record.trace_id}" + (f"  [{baggage}]" if baggage else "")]
    lines.append(f"{'+ms':>10}  {'layer':<10} {'event':<18} detail")
    for offset, layer, kind, detail in _iter_rows(record):
        lines.append(
            f"{offset * 1e3:>10.3f}  {layer:<10} {kind:<18} {detail}"
        )
    if record.dropped_events:
        lines.append(
            f"... {record.dropped_events} event(s) dropped (trace at "
            "max_events)"
        )
    return "\n".join(lines)


def load_spilled(path: str) -> list[TraceRecord]:
    """Read a spill file back (tolerant of a torn final line)."""
    records: list[TraceRecord] = []
    try:
        handle = open(path, encoding="utf-8")
    except OSError as exc:
        raise TracingError(f"cannot read spill file {path!r}: {exc}") from exc
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError:
                continue  # torn tail
            records.append(TraceRecord.from_dict(payload))
    return records
