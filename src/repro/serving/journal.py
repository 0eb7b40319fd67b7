"""Durable write-ahead journal of the serving request lifecycle.

The serving tier's promise is "acknowledged means terminal, exactly
once".  Worker crashes are survived by the runtime supervision; this
module survives the *serving process itself* dying: every request
transition is appended to a JSONL log (the shared
:class:`~repro.runtime.recordlog.RecordLog` primitive, same torn-tail
discipline as the campaign checkpoint), and the one transition the
client is promised — ``admitted`` — is fsync'd **before** the id is
returned, so a crash at any byte leaves a log from which the pool
reconstructs exactly what it had promised:

- ``{"type": "serve", "meta": {...}}`` — pool descriptor, once per boot
  (synced);
- ``{"type": "admitted", "id", "workload", "relax_bits",
  "dataset_bytes", "tenant", "priority", "deadline_s",
  "idempotency_key", "fingerprint"[, "search"]}`` — written in the
  admission's commit step, once the scheduler's refusals have passed
  and the id is minted but before the request is queued; the pool
  calls :meth:`RequestJournal.sync` before the id reaches the client
  (the write-ahead part: an acknowledged id is always on disk).  The id
  also names the request's trace, so no separate trace id is kept;
- ``{"type": "dispatched", "id", "shard"}`` — a shard picked it up;
- ``{"type": "completed", "id", "status", "digest", "result": {...}}``
  — the full terminal :class:`~repro.serving.scheduler.ServeResult`
  payload plus a content digest, written *before* the result store
  publishes it.

``dispatched`` and ``completed`` are written without a barrier.  They
survive a process SIGKILL (the page cache holds them) and become durable
at the next group commit or at close.  A host crash can lose them, which
costs only a re-execution: their ``admitted`` record is durable, so the
id replays, and pricing is deterministic, so the replay reproduces the
lost record's digest.

New journals hold each id's records in lifecycle order: no worker can
see a request before its ``admitted`` record is written.  Journals
written before that rule could hold a fast worker's ``dispatched`` or
``completed`` ahead of ``admitted``, so the fold stays
order-independent.

:func:`load_request_journal` folds a (possibly torn) log into a
:class:`RequestJournalState`: completed results to restore, acknowledged
-but-incomplete ids to re-admit, the idempotency-key index, and the
highest id sequence number of any record (so a restarted scheduler never
mints a colliding id — which would trip the double-completion tripwire
falsely).

Replayed requests deliberately drop their original deadline: wall-clock
deadlines are meaningless across a restart, and a replay that *expires*
would break the "acknowledged requests reach a useful terminal state"
promise for no operational gain.  Everything else re-runs through the
normal rescue ladder, and determinism (seeded harness) makes replayed
points bit-identical to what the first life would have produced.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, replace

from repro.errors import JournalError
from repro.observability.instruments import JOURNAL_APPENDS
from repro.runtime.campaign import CampaignPoint
from repro.runtime.recordlog import RecordLog, load_records
from repro.serving.scheduler import ServeRequest, ServeResult

__all__ = [
    "JournalEntry",
    "RequestJournal",
    "RequestJournalState",
    "load_request_journal",
    "payload_fingerprint",
    "result_digest",
    "serve_result_from_dict",
]


def payload_fingerprint(
    workload: str,
    relax_bits: int,
    dataset_bytes: int,
    tenant: str,
    priority: int,
    extra: dict | None = None,
) -> str:
    """Content hash of a submission payload.

    Two submits under one idempotency key must agree on this fingerprint
    to be treated as retries of the same request; a mismatch is a 409.
    Deadlines are excluded on purpose — a client retrying after a timeout
    naturally carries a fresher deadline for the *same* work.

    ``extra`` folds endpoint-specific content into the hash — `/search`
    passes a digest of the query vector and ``k``, so reusing a key with
    a different query conflicts.  ``extra=None`` reproduces the historic
    digest, keeping old journals' idempotency index valid.
    """
    body = {
        "workload": workload,
        "relax_bits": int(relax_bits),
        "dataset_bytes": int(dataset_bytes),
        "tenant": tenant,
        "priority": int(priority),
    }
    if extra:
        body["extra"] = extra
    canon = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def result_digest(result: dict) -> str:
    """Content digest of a terminal result's *deterministic* payload.

    Covers the id, status, error and the measured point (plus the top-k
    payload for search requests); excludes timing fields (queue wait,
    service time, batch size, shard) that legitimately differ between a
    first execution and a deterministic replay.  Equal digests therefore
    certify bit-identical measurements.
    """
    body = {
        "id": result.get("id"),
        "status": result.get("status"),
        "error": result.get("error"),
        "point": result.get("point"),
    }
    if result.get("search") is not None:
        # Folded in only when present, so pre-search journals' stored
        # digests stay reproducible by this version.
        body["search"] = result["search"]
    canon = json.dumps(
        body,
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def serve_result_from_dict(payload: dict) -> ServeResult:
    """Rebuild a :class:`ServeResult` from its journaled ``to_dict`` form.

    Raises :class:`~repro.errors.JournalError` on payloads this version
    cannot interpret (foreign fields, missing requireds) — the caller
    treats such records as unrecoverable and re-executes instead.
    """
    data = dict(payload)
    point = data.get("point")
    try:
        if point is not None:
            data["point"] = CampaignPoint(**point)
        return ServeResult(**data)
    except Exception as exc:
        raise JournalError(
            f"unreadable journaled result payload: {exc}"
        ) from exc


@dataclass(frozen=True)
class JournalEntry:
    """One acknowledged request as reconstructed from the log."""

    id: str
    workload: str
    relax_bits: int
    dataset_bytes: int
    tenant: str
    priority: int
    idempotency_key: str | None
    fingerprint: str | None
    #: ``dispatched`` records seen (how many times a shard picked it up
    #: before the crash — diagnostic, not behavioural).
    dispatches: int
    #: `/search` payload (query + k) for search requests, or None —
    #: a replay must re-run the *same* retrieval.
    search: dict | None = None


@dataclass(frozen=True)
class RequestJournalState:
    """Everything a restarting pool needs from a prior journal."""

    #: id -> admitted entry, for every acknowledged request.
    entries: dict[str, JournalEntry]
    #: id -> the terminal ``completed`` record (result payload + digest).
    completed: dict[str, dict]
    #: acknowledged ids with no terminal record: re-admit these.
    replayable: tuple[str, ...]
    #: idempotency_key -> (request id, payload fingerprint).
    idempotency: dict[str, tuple[str, str]]
    #: pool descriptors seen (one per prior boot against this journal).
    meta: tuple[dict, ...]
    #: records parsed successfully.
    records: int
    #: torn/corrupt tail records dropped during the tolerant load.
    truncated: int
    #: terminal records for an already-terminal id (should be zero — the
    #: on-disk shadow of the double-completion tripwire).
    duplicate_completions: int
    #: highest numeric id suffix of any record (-1 when none): the
    #: restarted scheduler's sequence must start above this.
    max_seq: int


def _id_sequence(request_id: str) -> int:
    """The numeric suffix of a ``{tenant}-{seq:08d}`` id, or -1."""
    _, _, tail = request_id.rpartition("-")
    return int(tail) if tail.isdigit() else -1


def load_request_journal(path: str) -> RequestJournalState:
    """Tolerantly fold a request journal; missing file == empty journal."""
    records, dropped = load_records(path)
    entries: dict[str, JournalEntry] = {}
    completed: dict[str, dict] = {}
    idempotency: dict[str, tuple[str, str]] = {}
    dispatches: dict[str, int] = {}
    meta: list[dict] = []
    duplicates = 0
    max_seq = -1
    for record in records:
        kind = record["type"]
        request_id = record.get("id")
        if isinstance(request_id, str):
            # Any record's id, not only ``admitted``'s: a ``completed``
            # that landed before its ``admitted`` is restored, so its id
            # must never be minted again.
            max_seq = max(max_seq, _id_sequence(request_id))
        if kind == "serve":
            meta.append(record.get("meta", {}))
        elif kind == "admitted":
            if not isinstance(request_id, str):
                continue
            entry = JournalEntry(
                id=request_id,
                workload=record.get("workload", ""),
                relax_bits=int(record.get("relax_bits", 0)),
                dataset_bytes=int(record.get("dataset_bytes", 0)),
                tenant=record.get("tenant", "default"),
                priority=int(record.get("priority", 0)),
                idempotency_key=record.get("idempotency_key"),
                fingerprint=record.get("fingerprint"),
                dispatches=0,
                search=record.get("search"),
            )
            entries[request_id] = entry
            if entry.idempotency_key:
                idempotency[entry.idempotency_key] = (
                    request_id,
                    entry.fingerprint or "",
                )
        elif kind == "dispatched":
            if isinstance(request_id, str):
                dispatches[request_id] = dispatches.get(request_id, 0) + 1
        elif kind == "completed":
            if not isinstance(request_id, str):
                continue
            if request_id in completed:
                duplicates += 1
                continue  # first terminal record wins, exactly-once
            completed[request_id] = record
        # Unknown record types are skipped: forward compatibility.
    for request_id, count in dispatches.items():
        entry = entries.get(request_id)
        if entry is not None:
            entries[request_id] = replace(entry, dispatches=count)
    replayable = tuple(
        request_id for request_id in entries if request_id not in completed
    )
    return RequestJournalState(
        entries=entries,
        completed=completed,
        replayable=replayable,
        idempotency=idempotency,
        meta=tuple(meta),
        records=len(records),
        truncated=dropped,
        duplicate_completions=duplicates,
        max_seq=max_seq,
    )


class RequestJournal:
    """Append-side handle on a serving request journal.

    Opening always *resumes*: the prior state is loaded (exposed as
    :attr:`recovered`), the torn tail truncated, and new records append
    after the clean prefix.  Appends are thread-safe (worker threads
    journal dispatch/terminal records concurrently) and write without a
    barrier; :meth:`sync` is the group commit the pool calls before it
    acknowledges an id.  Usable as a context manager; :meth:`close` syncs
    the tail and is idempotent.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        #: What the journal held when opened — the recovery input.
        self.recovered = load_request_journal(path)
        self._log = RecordLog(path, resume=True, error_cls=JournalError)
        #: Appends this handle wrote, by record type.
        self.appends: dict[str, int] = {}
        self._count_lock = threading.Lock()

    def _append(self, record: dict) -> None:
        payload = self._log.append(record)
        kind = payload.get("type", "unknown")
        with self._count_lock:
            self.appends[kind] = self.appends.get(kind, 0) + 1
        JOURNAL_APPENDS.inc(type=kind)

    def sync(self) -> None:
        """Make every record written so far durable (group commit)."""
        self._log.sync()

    @property
    def syncs(self) -> int:
        """fsync barriers this handle paid."""
        return self._log.syncs

    def describe(self, meta: dict) -> None:
        """Record (durably) the pool descriptor for this boot."""
        self._append({"type": "serve", "meta": meta})
        self.sync()

    def admitted(
        self,
        request: ServeRequest,
        idempotency_key: str | None = None,
        fingerprint: str | None = None,
        deadline_s: float | None = None,
    ) -> None:
        """Write-ahead marker: this id is about to be acknowledged.

        Written without a barrier; the caller syncs before it hands the
        id out."""
        self._append(
            {
                "type": "admitted",
                "id": request.id,
                "workload": request.workload,
                "relax_bits": request.relax_bits,
                "dataset_bytes": request.dataset_bytes,
                "tenant": request.tenant,
                "priority": request.priority,
                "deadline_s": deadline_s,
                "idempotency_key": idempotency_key,
                "fingerprint": fingerprint,
                **(
                    {"search": request.search}
                    if request.search is not None
                    else {}
                ),
            }
        )

    def dispatched(self, request_id: str, shard: int) -> None:
        """A shard picked the request up."""
        self._append(
            {"type": "dispatched", "id": request_id, "shard": int(shard)}
        )

    def completed(self, result: ServeResult) -> None:
        """Terminal marker: full result payload, written before the
        result store publishes it."""
        payload = result.to_dict()
        self._append(
            {
                "type": "completed",
                "id": result.id,
                "status": result.status,
                "digest": result_digest(payload),
                "result": payload,
            }
        )

    @property
    def closed(self) -> bool:
        return self._log.closed

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
