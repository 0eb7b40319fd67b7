"""Execution-trace export: schedules and ledgers as Chrome trace events.

``chrome://tracing`` / Perfetto's JSON event format is the lingua franca
of timeline visualisation; this module serialises

- a compiler :class:`~repro.compiler.scheduler.Schedule` (one track per
  lane, one slice per scheduled node),
- an engine :class:`~repro.core.cost.CostLedger` (one slice per phase),
- a resilience event log (one instant event per detection/repair), so
  reliability incidents can be lined up against the execution timeline,
- and the live event stream through :class:`ChromeTraceWriter`, a sink
  for the ambient :func:`~repro.observability.tracing.trace_event`
  stream whose every flush leaves a complete, loadable document on disk
  — a campaign killed or crashed mid-grid still produces an inspectable
  trace,

so simulator runs can be inspected in any trace viewer.  The one-shot
exporters' timestamps are in microseconds of simulated time (cycles x
cycle time), as the format expects; the writer stamps microseconds of
its clock since it was opened.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Callable, Sequence

from repro.compiler.ir import Kernel
from repro.compiler.scheduler import Schedule
from repro.core.config import APIMConfig, default_config
from repro.core.cost import CostLedger
from repro.errors import ConfigurationError
from repro.units import cycles_to_us

if TYPE_CHECKING:
    from repro.resilience.manager import ReliabilityEvent

__all__ = [
    "ChromeTraceWriter",
    "schedule_to_chrome_trace",
    "ledger_to_chrome_trace",
    "reliability_events_to_chrome_trace",
]


def _cycles_to_us(cycles: float, config: APIMConfig) -> float:
    return cycles_to_us(cycles, config.cycle_time)


class ChromeTraceWriter:
    """An incrementally-flushed Chrome trace file that survives crashes.

    The writer is an ambient trace sink: ``with use_trace(writer):``
    routes every :func:`~repro.observability.tracing.trace_event` on the
    thread into :meth:`event`.  Chrome's ``cat`` is the event's layer,
    ``name`` its kind and ``args`` its attrs (plus the detail); an event
    carrying ``duration_s`` (a ``timed_event``) becomes an ``"X"`` slice
    ending now, any other an ``"i"`` instant.  Timestamps come from
    ``clock`` (``time.perf_counter`` by default; pass a manual clock to
    lay events out on simulated time).

    The one-shot exporters below serialise after the run succeeds, which
    loses the trace exactly when it is most wanted — on a failure.  This
    writer buffers events and, on every flush, atomically replaces the
    target file with a *complete* JSON document (write to a temp file in
    the same directory, then ``os.replace``), so the file on disk is
    loadable at every instant.  Used as a context manager it flushes on
    the failure path too: ``__exit__`` writes whatever was buffered even
    while an exception is propagating, and never swallows it.
    """

    def __init__(
        self,
        path: str,
        flush_every: int = 1,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if flush_every < 1:
            raise ConfigurationError("flush_every must be at least 1")
        self.path = path
        self.flush_every = flush_every
        self.clock = clock
        self._epoch = clock()
        self._events: list[dict] = []
        self._pending = 0
        self._closed = False
        # Concurrent executors share one writer; buffer mutation, the
        # pending counter and the flush swap all happen under this lock.
        self._lock = threading.RLock()

    def add(self, event: dict) -> None:
        """Buffer one raw trace event, flushing per policy.

        Thread-safe: events emitted from several executor threads
        interleave without tearing the buffer or racing a flush.  Events
        missing ``pid``/``tid`` are stamped with the real process and
        thread ids so concurrent tracks render separately in the viewer.
        """
        event.setdefault("pid", os.getpid())
        event.setdefault("tid", threading.get_ident())
        with self._lock:
            if self._closed:
                raise ConfigurationError(
                    f"trace writer {self.path!r} is closed"
                )
            self._events.append(event)
            self._pending += 1
            if self._pending >= self.flush_every:
                self.flush()

    def event(self, layer: str, kind: str, detail: str = "", **attrs) -> None:
        """Record one ambient trace event (the trace-sink protocol)."""
        ts_us = (self.clock() - self._epoch) * 1e6
        if detail:
            attrs["detail"] = detail
        record: dict = {"name": kind, "cat": layer, "args": attrs}
        duration_s = attrs.get("duration_s")
        if duration_s is None:
            record.update(ph="i", ts=ts_us, s="t")
        else:
            dur_us = duration_s * 1e6
            record.update(ph="X", ts=ts_us - dur_us, dur=dur_us)
        self.add(record)

    def flush(self) -> None:
        """Atomically rewrite the target as a complete, loadable trace."""
        with self._lock:
            payload = json.dumps(
                {"traceEvents": list(self._events), "displayTimeUnit": "ns"}
            )
            directory = os.path.dirname(os.path.abspath(self.path))
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".trace.tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(payload)
                os.replace(tmp, self.path)
            except BaseException:
                if os.path.exists(tmp):
                    os.unlink(tmp)
                raise
            self._pending = 0

    @property
    def events(self) -> tuple[dict, ...]:
        """Everything buffered so far (flushed or not)."""
        with self._lock:
            return tuple(self._events)

    def close(self) -> None:
        """Final flush; idempotent."""
        with self._lock:
            if not self._closed:
                self.flush()
                self._closed = True

    def __enter__(self) -> "ChromeTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        # Flush on success *and* failure; never swallow the exception.
        self.close()


def schedule_to_chrome_trace(
    schedule: Schedule,
    kernel: Kernel,
    config: APIMConfig | None = None,
) -> str:
    """Serialise a lane schedule as a Chrome trace JSON string.

    Lanes become threads of one process; free (zero-duration) nodes are
    emitted as instant events so data movement stays visible.
    """
    config = config or default_config()
    if schedule.kernel != kernel.name:
        raise ConfigurationError(
            f"schedule is for {schedule.kernel!r}, kernel is {kernel.name!r}"
        )
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": f"APIM kernel {kernel.name!r}"},
        }
    ]
    for lane in range(schedule.lanes):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
                "args": {"name": f"lane {lane}"},
            }
        )
    for placement in schedule.placements:
        node = kernel.node(placement.node_id)
        label = f"{node.kind.value}#{node.id}"
        if placement.end > placement.start:
            events.append(
                {
                    "name": label,
                    "ph": "X",
                    "pid": 1,
                    "tid": placement.lane,
                    "ts": _cycles_to_us(placement.start, config),
                    "dur": _cycles_to_us(
                        placement.end - placement.start, config
                    ),
                    "args": {"operands": list(node.operands)},
                }
            )
        else:
            events.append(
                {
                    "name": label,
                    "ph": "i",
                    "pid": 1,
                    "tid": max(placement.lane, 0),
                    "ts": _cycles_to_us(placement.start, config),
                    "s": "t",
                }
            )
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ns"})


def ledger_to_chrome_trace(
    ledger: CostLedger,
    config: APIMConfig | None = None,
    lanes: int = 1,
) -> str:
    """Serialise a cost ledger as sequential phase slices.

    Ledger entries carry no start times (they are aggregates), so phases
    are laid end to end in insertion order — the right picture for the
    engine's sequential charge pattern.
    """
    config = config or default_config()
    if lanes <= 0:
        raise ConfigurationError(f"lanes must be positive: {lanes}")
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "APIM execution phases"},
        }
    ]
    cursor = 0.0
    for label in ledger.labels():
        cost = ledger.entry(label)
        duration = _cycles_to_us(cost.cycles / lanes, config)
        events.append(
            {
                "name": label,
                "ph": "X",
                "pid": 1,
                "tid": 0,
                "ts": cursor,
                "dur": duration,
                "args": {
                    "cycles": cost.cycles,
                    "nor_ops": cost.nor_ops,
                    "energy_J": cost.energy(config, lanes),
                },
            }
        )
        cursor += duration
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ns"})


def reliability_events_to_chrome_trace(
    events: "Sequence[ReliabilityEvent]",
    config: APIMConfig | None = None,
) -> str:
    """Serialise a resilience event log as instant events on one track.

    Each :class:`~repro.resilience.manager.ReliabilityEvent` carries the
    fabric cycle it happened at, so scans, detections, retirements and
    retries land at their true positions on the simulated timeline.
    """
    config = config or default_config()
    trace: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "APIM reliability events"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "resilience"},
        },
    ]
    for event in events:
        trace.append(
            {
                "name": event.kind,
                "ph": "i",
                "pid": 1,
                "tid": 0,
                "ts": _cycles_to_us(event.cycle, config),
                "s": "t",
                "args": {"detail": event.detail},
            }
        )
    return json.dumps({"traceEvents": trace, "displayTimeUnit": "ns"})
