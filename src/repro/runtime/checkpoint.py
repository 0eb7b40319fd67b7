"""Write-ahead checkpoint journal for campaigns.

A campaign that runs for hours must survive being killed at any byte.
The journal is an append-only JSONL file:

- ``{"v": 1, "type": "campaign", "meta": {...}}`` — grid descriptor,
  written once per run for inspectability;
- ``{"v": 1, "type": "begin", "key": K}`` — written *before* a point
  executes (the write-ahead part: an orphaned ``begin`` marks exactly
  which point was in flight when the process died);
- ``{"v": 1, "type": "end", "key": K, "point": {...}}`` — the point's
  full payload, written after it reaches a terminal status.

The append/fsync discipline and torn-tail recovery live in the shared
record-log primitive (:mod:`repro.runtime.recordlog`), which the serving
request journal builds on too; this module keeps the campaign-specific
record schema and the resume bookkeeping.  A crash can only ever produce
a *torn tail* — a final partial line — which :func:`load_journal`
tolerates and :func:`recover` (run automatically when a journal is
opened for resume) truncates back to the clean prefix.

The journal stores plain dicts — :mod:`repro.runtime.campaign` owns the
conversion to/from :class:`~repro.runtime.campaign.CampaignPoint`, which
keeps this module dependency-free below the campaign layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import CheckpointError
from repro.observability.instruments import (
    CHECKPOINT_RECOVERED,
    record_checkpoint_append,
)
from repro.runtime.recordlog import (
    FORMAT_VERSION,
    RecordLog,
    load_records,
    recover_log,
)

__all__ = [
    "CheckpointJournal",
    "FORMAT_VERSION",
    "JournalState",
    "load_journal",
    "recover",
]

@dataclass(frozen=True)
class JournalState:
    """Everything a resuming campaign needs from a prior journal."""

    #: key -> the terminal point payload (the ``end`` record's ``point``).
    completed: dict[str, dict]
    #: keys begun but never finished (in flight at the kill).
    in_flight: tuple[str, ...]
    #: grid descriptors seen (one per prior run against this journal).
    meta: tuple[dict, ...]
    #: records parsed successfully.
    records: int
    #: torn/corrupt tail records dropped during the tolerant load.
    truncated: int


def load_journal(path: str) -> JournalState:
    """Tolerantly load a journal; a missing file is an empty journal."""
    records, dropped = load_records(path)
    completed: dict[str, dict] = {}
    begun: dict[str, None] = {}  # insertion-ordered set
    meta: list[dict] = []
    for record in records:
        kind = record["type"]
        if kind == "campaign":
            meta.append(record.get("meta", {}))
        elif kind == "begin":
            begun[record["key"]] = None
        elif kind == "end":
            key = record["key"]
            completed[key] = record.get("point", {})
            begun.pop(key, None)
        # Unknown record types are skipped: forward compatibility.
    return JournalState(
        completed=completed,
        in_flight=tuple(begun),
        meta=tuple(meta),
        records=len(records),
        truncated=dropped,
    )


def recover(path: str) -> int:
    """Truncate torn tail records in place; returns records dropped.

    Idempotent and safe on a clean journal (drops nothing).  Must run
    before appending to a journal that may have died mid-write, so the
    next record starts on a clean line.
    """
    if not os.path.exists(path):
        return 0
    dropped = recover_log(path, CheckpointError)
    if dropped:
        CHECKPOINT_RECOVERED.inc(dropped)
    return dropped


class CheckpointJournal:
    """Append-side handle on a campaign journal.

    ``resume=False`` starts a fresh journal (truncating any existing
    file); ``resume=True`` recovers the torn tail and appends.  Usable as
    a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, path: str, resume: bool = False) -> None:
        self.path = path
        if resume:
            # Run the checkpoint-flavoured recovery (records the recovery
            # metric); RecordLog's own resume pass then finds a clean log.
            recover(path)
        self._log = RecordLog(path, resume=resume, error_cls=CheckpointError)

    def append(self, record: dict) -> None:
        """Atomically append one record (single write + fsync)."""
        payload = self._log.append(record)
        self._log.sync()
        record_checkpoint_append(payload.get("type", "unknown"))

    def describe(self, meta: dict) -> None:
        """Record the grid descriptor for this run."""
        self.append({"type": "campaign", "meta": meta})

    def begin(self, key: str) -> None:
        """Write-ahead marker: ``key`` is about to execute."""
        self.append({"type": "begin", "key": key})

    def complete(self, key: str, point: dict) -> None:
        """Terminal marker: ``key`` finished with this payload."""
        self.append({"type": "end", "key": key, "point": point})

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
