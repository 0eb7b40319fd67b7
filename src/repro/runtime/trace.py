"""Execution-trace export: the live event stream as a Chrome trace.

``chrome://tracing`` / Perfetto's JSON event format is the lingua franca
of timeline visualisation.  :class:`ChromeTraceWriter` is a sink for the
ambient :func:`~repro.observability.tracing.trace_event` stream whose
every flush leaves a complete, loadable document on disk — a campaign
killed or crashed mid-grid still produces an inspectable trace.  It
stamps microseconds of its clock since it was opened, as the format
expects.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Callable

from repro.errors import ConfigurationError

__all__ = ["ChromeTraceWriter"]


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

    Serialising once after the run succeeds would lose the trace exactly
    when it is most wanted — on a failure.  This writer buffers events
    and, on every flush, atomically replaces the target file with a
    *complete* JSON document (write to a temp file in the same directory,
    then ``os.replace``), so the file on disk is
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
