"""End-to-end request tracing across the serving stack.

A request admitted through :meth:`repro.serving.pool.CrossbarPool.submit`
(or the HTTP frontend) gets a :class:`TraceContext` — a trace id, a span
id, and a baggage dict — and every layer it crosses appends structured
:class:`TraceEvent` records: queue enter/exit, batch coalescing links,
supervision attempts and retries, degradation rungs, executor runs,
controller command batches.  The result answers the question aggregate
metrics cannot: "why was *this* request slow / degraded / rerouted?"

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
from contextlib import contextmanager, nullcontext
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
    "default_trace_store",
    "format_timeline",
    "replay_events",
    "set_default_trace_store",
    "timed_event",
    "trace_event",
    "use_trace",
]


@dataclass(slots=True)
class TraceEvent:
    """One structured hop in a request's journey (a slotted record: a
    warm request appends eight of them)."""

    ts: float     #: store-clock timestamp (seconds)
    layer: str    #: frontend / scheduler / pool / supervisor / executor / ...
    kind: str     #: queue_enter, batch_join, attempt, retry, degrade, ...
    span_id: str  #: the span the event belongs to
    detail: str = ""
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "ts": self.ts,
            "layer": self.layer,
            "kind": self.kind,
            "span_id": self.span_id,
        }
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
    #: request ids bound to this trace (the store's reverse alias index;
    #: not serialised)
    aliases: list[str] = field(default_factory=list, compare=False)

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
                    span_id=e.get("span_id", ""),
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
        self._aliases: dict[str, str] = {}  # request id -> trace id
        self._lock = threading.Lock()
        # Spill I/O gets its own lock so readers of the in-memory store
        # are never blocked behind an fsync; acquisition order is always
        # store lock (if held at all) before spill lock.
        self._spill_lock = threading.Lock()
        self.evicted = 0
        self.spilled = 0

    # -- creation -------------------------------------------------------------

    def _next_span_id(self) -> str:
        return f"s{next(self._seq):06x}"

    def new_trace(self, **baggage) -> "TraceContext":
        """Open a trace; returns its root :class:`TraceContext`."""
        with self._lock:
            trace_id = f"{self._id_prefix}-{next(self._seq):08x}"
            self._records[trace_id] = TraceRecord(
                trace_id, self.clock(), baggage
            )
            while len(self._records) > self.capacity:
                evicted_id, evicted = self._records.popitem(last=False)
                self.evicted += 1
                for alias in evicted.aliases:
                    # A re-bound alias now names a newer trace; keep it.
                    if self._aliases.get(alias) == evicted_id:
                        del self._aliases[alias]
                if self.spill_path is not None:
                    self._spill_batch([evicted])
        return TraceContext(trace_id, self._next_span_id(), dict(baggage), self)

    def _spill_batch(self, records: list[TraceRecord]) -> None:
        """Append ``records`` to the spill file crash-safely.

        The new content is staged in a temp file alongside the target
        (prior content + new lines), fsync'd, then moved into place with
        :func:`os.replace` — atomic on POSIX.  A crash at any byte leaves
        either the old complete file or the new complete file, never a
        torn line, so :func:`load_spilled` readers can't observe half a
        record even if the process dies mid-spill.
        """
        if self.spill_path is None or not records:
            return
        payload = "".join(
            json.dumps(
                record.to_dict(), separators=(",", ":"), sort_keys=True
            )
            + "\n"
            for record in records
        )
        tmp_path = f"{self.spill_path}.tmp.{os.getpid()}"
        with self._spill_lock:
            try:
                try:
                    with open(self.spill_path, "rb") as existing:
                        prior = existing.read()
                except FileNotFoundError:
                    prior = b""
                with open(tmp_path, "wb") as handle:
                    handle.write(prior)
                    handle.write(payload.encode("utf-8"))
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.spill_path)
                self.spilled += len(records)
            except OSError as exc:
                raise TracingError(
                    f"cannot spill trace to {self.spill_path!r}: {exc}"
                ) from exc

    def spill_all(self) -> int:
        """Spill every resident trace (end-of-run flush); returns count."""
        with self._lock:
            records = list(self._records.values())
        self._spill_batch(records)
        return len(records)

    # -- writes ---------------------------------------------------------------

    def append(
        self,
        trace_id: str,
        layer: str,
        kind: str,
        span_id: str,
        detail: str = "",
        attrs: dict | None = None,
    ) -> None:
        """Append one event (no-op for evicted/unknown traces).  The store
        keeps ``attrs`` itself, not a copy."""
        with self._lock:
            record = self._records.get(trace_id)
            if record is None:
                return
            events = record.events
            if len(events) >= self.max_events:
                record.dropped_events += 1
                return
            events.append(
                TraceEvent(
                    self.clock(), layer, kind, span_id, detail,
                    {} if attrs is None else attrs,
                )
            )

    def bind(self, alias: str, trace_id: str) -> None:
        """Also make the trace findable by ``alias`` (the request id).

        The alias lives exactly as long as the trace: evicting the trace
        forgets it.  Binding to a trace that is not resident is a no-op.
        """
        with self._lock:
            record = self._records.get(trace_id)
            if record is None:
                return
            self._aliases[alias] = trace_id
            record.aliases.append(alias)

    # -- reads ----------------------------------------------------------------

    def get(self, trace_or_request_id: str) -> TraceRecord | None:
        """Look a trace up by trace id or bound request id."""
        with self._lock:
            trace_id = self._aliases.get(
                trace_or_request_id, trace_or_request_id
            )
            return self._records.get(trace_id)

    def trace_id_for(self, request_id: str) -> str | None:
        with self._lock:
            return self._aliases.get(request_id)

    def timeline(self, trace_or_request_id: str) -> dict | None:
        """The JSON-able timeline served by ``GET /trace/<id>``."""
        record = self.get(trace_or_request_id)
        return None if record is None else record.to_dict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


@dataclass(slots=True)
class TraceContext:
    """The propagated identity of one traced request.

    Carries the trace id, the span id its events are stamped with and a
    baggage dict (tenant, workload, ...).  The context is what crosses
    layer boundaries; events go to the owning store.
    """

    trace_id: str
    span_id: str
    baggage: dict
    store: TraceStore

    def event(self, layer: str, kind: str, detail: str = "", **attrs) -> None:
        """Append one event under this context's span (``attrs`` goes to
        the store as is)."""
        self.store.append(
            self.trace_id, layer, kind, self.span_id, detail, attrs
        )


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

    def __init__(self, trace_id: str = "", max_events: int = 512) -> None:
        if max_events < 1:
            raise TracingError(f"max_events must be positive: {max_events}")
        self.trace_id = trace_id
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
_default_store: TraceStore | None = None
_default_lock = threading.Lock()


def default_trace_store() -> TraceStore:
    """The process-wide store (created on first use)."""
    global _default_store
    with _default_lock:
        if _default_store is None:
            _default_store = TraceStore()
        return _default_store


def set_default_trace_store(store: TraceStore) -> TraceStore | None:
    """Swap the process-wide store (returns the previous one)."""
    global _default_store
    with _default_lock:
        previous, _default_store = _default_store, store
    return previous


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
    thread-local read when no trace is active.
    """
    ctx = getattr(_local, "trace", None)
    if ctx is not None:
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
    return _timed(layer, kind, attrs)


@contextmanager
def _timed(layer: str, kind: str, attrs: dict) -> Iterator[None]:
    start = time.perf_counter()
    try:
        yield
    finally:
        duration_s = time.perf_counter() - start
        SPAN_DURATION.observe(duration_s, name=f"{layer}.{kind}")
        trace_event(layer, kind, duration_s=duration_s, **attrs)


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
