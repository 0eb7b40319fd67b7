"""Generic append-only record log with group commit and torn-tail recovery.

This is the durability primitive both write-ahead journals in the repo
share: the campaign checkpoint (:mod:`repro.runtime.checkpoint`) and the
serving request journal (:mod:`repro.serving.journal`).  The format is
JSONL — one JSON object per ``\\n``-terminated line, every record carrying
a ``"type"`` and a format-version ``"v"`` — and the write discipline is a
single OS-level write of the whole line, so a process killed at any byte
can only ever leave a *torn tail*: one final partial line.  Durability is
a separate step: a written record survives the *process* dying (the page
cache holds it) and survives the *host* dying only once an ``fsync``
covers it.

- :func:`scan_records` splits raw bytes into (valid records, clean-prefix
  length, dropped count), treating the first unparseable record and
  everything after it as tail garbage — append-only writes mean corruption
  is strictly a tail phenomenon.
- :func:`load_records` tolerantly reads a log from disk (missing file ==
  empty log).
- :func:`recover_log` truncates the torn tail in place so new appends
  never splice into torn bytes.  Idempotent; a no-op on a clean log.
- :class:`RecordLog` is the append-side handle: thread-safe appends
  (serving workers journal concurrently), one write per record, and a
  group-commit :meth:`RecordLog.sync` — one ``fsync`` covers every record
  written before it, so concurrent callers share barriers.  Callers that
  need a record durable (the campaign checkpoint: every record; the
  serving journal: ``admitted`` before the id is acknowledged) append
  then sync.  Usable as a context manager; closing syncs the tail.

Consumers parameterise the raised exception type (``error_cls``) so the
existing contracts hold: the checkpoint raises ``CheckpointError``, the
serving journal raises ``JournalError``, and both derive from
``JournalError`` → ``ReproError``.
"""

from __future__ import annotations

import json
import os
import threading

from repro.errors import JournalError

__all__ = [
    "FORMAT_VERSION",
    "RecordLog",
    "load_records",
    "recover_log",
    "scan_records",
]

FORMAT_VERSION = 1


def scan_records(raw: bytes) -> tuple[list[dict], int, int]:
    """(valid records, clean-prefix byte length, dropped record count)."""
    records: list[dict] = []
    offset = 0
    dropped = 0
    lines = raw.split(b"\n")
    body, tail = lines[:-1], lines[-1]
    for i, line in enumerate(body):
        try:
            record = json.loads(line)
            if not isinstance(record, dict) or "type" not in record:
                raise ValueError("not a log record")
        except ValueError:
            # Append-only writes mean corruption is a tail phenomenon:
            # this record and everything after it is torn garbage.
            dropped += len(body) - i
            if tail:
                dropped += 1
            return records, offset, dropped
        records.append(record)
        offset += len(line) + 1
    if tail:  # final line never got its newline: torn mid-append
        dropped += 1
    return records, offset, dropped


def load_records(path: str) -> tuple[list[dict], int]:
    """Tolerantly load a log: (records, torn records dropped).

    A missing file is an empty log.  The file is not modified — run
    :func:`recover_log` before appending to a log that may have died
    mid-write.
    """
    if not os.path.exists(path):
        return [], 0
    with open(path, "rb") as handle:
        raw = handle.read()
    records, _, dropped = scan_records(raw)
    return records, dropped


def recover_log(path: str, error_cls: type = JournalError) -> int:
    """Truncate torn tail records in place; returns records dropped.

    Idempotent and safe on a clean log (drops nothing).  Must run before
    appending to a log that may have died mid-write, so the next record
    starts on a clean line.
    """
    if not os.path.exists(path):
        return 0
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        _, clean_len, dropped = scan_records(raw)
        if clean_len < len(raw):
            with open(path, "r+b") as handle:
                handle.truncate(clean_len)
    except OSError as exc:
        raise error_cls(f"cannot recover record log {path!r}: {exc}") from exc
    return dropped


class RecordLog:
    """Append-side handle on a JSONL record log.

    ``resume=False`` starts a fresh log (truncating any existing file);
    ``resume=True`` recovers the torn tail and appends.  Appends are
    serialised under an internal lock so concurrent writers (serving
    worker threads) interleave whole records, never bytes.  :meth:`sync`
    is a group commit over byte offsets: the log tracks how far it has
    written and how far an ``fsync`` has covered, and a caller whose
    record is already covered returns without a barrier.  Usable as a
    context manager; :meth:`close` syncs the unsynced tail and is
    idempotent.
    """

    def __init__(
        self,
        path: str,
        resume: bool = False,
        error_cls: type = JournalError,
    ) -> None:
        self.path = path
        self._error_cls = error_cls
        # Appends take only _lock, so they never wait behind an fsync;
        # _sync_lock serialises barriers and close (taken before _lock).
        self._lock = threading.Lock()
        self._sync_lock = threading.Lock()
        if resume:
            recover_log(path, error_cls)
        try:
            # Unbuffered binary: each append is one OS-level write.
            self._handle = open(path, "ab" if resume else "wb", buffering=0)
            #: Bytes of the file written (and, at open, already synced).
            self._written = self._synced = os.fstat(
                self._handle.fileno()
            ).st_size
        except OSError as exc:
            raise error_cls(
                f"cannot open record log {path!r}: {exc}"
            ) from exc
        #: fsync barriers paid by this handle (close's included).
        self.syncs = 0

    def append(self, record: dict) -> dict:
        """Atomically write one record (a single write, no barrier).

        Returns the payload as written (with ``"v"`` defaulted), so
        callers can hook per-record accounting without re-parsing.  Call
        :meth:`sync` before promising the record survives the host.
        """
        payload = dict(record)
        payload.setdefault("v", FORMAT_VERSION)
        line = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        data = line.encode("utf-8") + b"\n"
        with self._lock:
            if self._handle is None:
                raise self._error_cls(f"record log {self.path!r} is closed")
            try:
                self._handle.write(data)
            except OSError as exc:
                raise self._error_cls(
                    f"append to record log {self.path!r} failed: {exc}"
                ) from exc
            self._written += len(data)
        return payload

    def sync(self) -> bool:
        """Make every record written so far durable (group commit).

        Returns True when this call paid the ``fsync`` and False when an
        earlier or concurrent barrier already covered everything written
        before the call.  Either way, on return the caller's records are
        on disk.
        """
        # _written only grows, and only after its bytes are written, so
        # one read bounds this caller's records from above.
        target = self._written
        if self._synced >= target:
            return False
        with self._sync_lock:
            if self._synced >= target:
                return False  # a concurrent caller's fsync covered us
            if self._handle is None:  # close() failed its final fsync
                raise self._error_cls(f"record log {self.path!r} is closed")
            self._fsync(self._written)
        return True

    def _fsync(self, end: int) -> None:
        """One barrier covering bytes ``[0, end)``; under _sync_lock."""
        try:
            os.fsync(self._handle.fileno())
        except OSError as exc:
            raise self._error_cls(
                f"fsync of record log {self.path!r} failed: {exc}"
            ) from exc
        self._synced = end
        self.syncs += 1

    @property
    def closed(self) -> bool:
        return self._handle is None

    def close(self) -> None:
        """Sync the unsynced tail and close; idempotent."""
        with self._sync_lock:
            with self._lock:
                if self._handle is None:
                    return
                end = self._written
            try:
                if self._synced < end:
                    self._fsync(end)
            finally:
                with self._lock:
                    self._handle.close()
                    self._handle = None

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
