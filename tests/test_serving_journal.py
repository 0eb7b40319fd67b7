"""Durable exactly-once serving: the request journal contract.

The serving tier's durability promise decomposes into properties these
tests pin one by one:

- **write-ahead** — an acknowledged id is on disk before the client sees
  it, so a SIGKILL at any byte leaves a journal from which the pool
  reconstructs exactly what it promised (the hypothesis arm cuts the log
  at every prefix and checks recovery never raises and never resurrects
  or forgets the wrong requests);
- **exactly-once** — the journal fold is first-terminal-record-wins, the
  result store's tripwire refuses a second completion (tombstones
  included), and a restarted scheduler never re-mints a journaled id;
- **idempotent submission** — one key, one request: retries return the
  original id (across restarts too), payload conflicts raise;
- **bounded results** — capacity and TTL evictions leave tombstones that
  answer HTTP 410 instead of an ambiguous 404;
- **crash-safe spill** — the trace store's JSONL spill is one append
  plus fsync, made outside the store lock; a crash leaves at most a torn
  final line, which the reader skips;
- **group commit** — only ``admitted`` needs a barrier before the id is
  acknowledged; one fsync covers every record written before it, so a
  host crash loses at most the unsynced ``dispatched``/``completed``
  tail, which deterministic replay reproduces digest for digest.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    DuplicateRequestError,
    JournalError,
    ServingError,
    TracingError,
)
from repro.observability.tracing import TraceStore, load_spilled
from repro.runtime.campaign import CampaignPoint
from repro.runtime import recordlog
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.recordlog import RecordLog, load_records, recover_log
from repro.serving.frontend import _http_json, _result_handler, build_server
from repro.serving.journal import (
    RequestJournal,
    load_request_journal,
    payload_fingerprint,
    result_digest,
    serve_result_from_dict,
)
from repro.serving.pool import CrossbarPool
from repro.serving.scheduler import ResultStore, ServeRequest, ServeResult

WORKLOAD = "Robert"
DATASET = 1 << 20


def _pool(journal_path, **kwargs):
    kwargs.setdefault("shards", 1)
    kwargs.setdefault("tile_elements", 1 << 9)
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("runtime", "inline")
    return CrossbarPool(journal=str(journal_path), **kwargs)


def _result(request_id="t-00000001", status="ok", **kwargs):
    kwargs.setdefault("tenant", "t")
    kwargs.setdefault("workload", WORKLOAD)
    kwargs.setdefault("relax_bits", 0)
    kwargs.setdefault("dataset_bytes", DATASET)
    return ServeResult(id=request_id, status=status, **kwargs)


GOLDEN_COMPLETED = os.path.join(
    os.path.dirname(__file__), "data", "completed_records_golden.jsonl"
)


def _encoded_results():
    """One priced (degraded) result, one search result, one failure."""
    point = CampaignPoint(
        workload=WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
        qol_percent=99.25, qos_ok=True, speedup=12.5,
        energy_improvement=3.0625, edp_improvement=38.28125,
        apim_time_s=1.5e-06, apim_energy_j=2.25e-09, status="degraded",
        attempts=2, effective_relax_bits=16,
    )
    return [
        _result(
            "t-00000001", status="degraded", relax_bits=8, shard=1,
            attempts=2, queue_wait_s=0.00125, service_s=0.0005,
            batch_size=3, point=point,
        ),
        _result(
            "t-00000002", workload="search", relax_bits=8,
            dataset_bytes=4096, shard=0, attempts=1,
            search={
                "ids": [3, 1, 2], "distances": [0, 4, 8], "k": 3,
                "relax_bits": 8,
            },
        ),
        _result(
            "t-00000003", status="failed", tenant="u", workload="Sobel",
            error="ServingError: boom",
        ),
    ]


class TestResultEncoding:
    """``ServeResult.to_dict`` is the body of ``GET /result`` and the
    journal's ``completed`` payload."""

    def test_to_dict_equals_asdict(self):
        for result in _encoded_results():
            assert result.to_dict() == dataclasses.asdict(result)

    def test_returned_search_is_a_copy(self):
        result = _encoded_results()[1]
        encoded = result.to_dict()
        encoded["search"]["ids"].append(99)
        encoded["search"]["k"] = 4
        assert result.search == {
            "ids": [3, 1, 2], "distances": [0, 4, 8], "k": 3,
            "relax_bits": 8,
        }

    def test_completed_records_match_the_golden_bytes(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            start = os.path.getsize(path)
            for result in _encoded_results():
                journal.completed(result)
        with open(path, "rb") as handle:
            handle.seek(start)
            written = handle.read()
        with open(GOLDEN_COMPLETED, "rb") as handle:
            assert written == handle.read()


class TestFingerprintAndDigest:
    def test_fingerprint_is_stable_and_payload_sensitive(self):
        base = payload_fingerprint(WORKLOAD, 8, DATASET, "a", 1)
        assert base == payload_fingerprint(WORKLOAD, 8, DATASET, "a", 1)
        assert base != payload_fingerprint(WORKLOAD, 16, DATASET, "a", 1)
        assert base != payload_fingerprint(WORKLOAD, 8, DATASET, "b", 1)

    def test_digest_ignores_timing_but_not_measurement(self):
        first = _result(queue_wait_s=0.1, service_s=0.2, shard=0)
        replay = _result(queue_wait_s=9.9, service_s=0.0, shard=3)
        assert result_digest(first.to_dict()) == result_digest(
            replay.to_dict()
        )
        other = _result(status="failed", error="boom")
        assert result_digest(first.to_dict()) != result_digest(
            other.to_dict()
        )

    def test_serve_result_round_trips_through_json(self):
        point = CampaignPoint(
            workload=WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
            qol_percent=1.5, qos_ok=True, speedup=10.0,
            energy_improvement=20.0, edp_improvement=200.0,
            apim_time_s=0.25, apim_energy_j=0.125,
        )
        original = _result(point=point, shard=1, attempts=2)
        rebuilt = serve_result_from_dict(
            json.loads(json.dumps(original.to_dict()))
        )
        assert rebuilt == original

    def test_foreign_result_payload_raises_journal_error(self):
        with pytest.raises(JournalError):
            serve_result_from_dict({"id": "x", "unheard_of_field": 1})


class TestRequestJournalFold:
    def _request(self, request_id, **kwargs):
        kwargs.setdefault("workload", WORKLOAD)
        kwargs.setdefault("relax_bits", 8)
        kwargs.setdefault("dataset_bytes", DATASET)
        kwargs.setdefault("tenant", "t")
        kwargs.setdefault("priority", 1)
        return ServeRequest(id=request_id, **kwargs)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.describe({"shards": 1})
            journal.admitted(
                self._request("t-00000001"),
                idempotency_key="k1", fingerprint="f1", deadline_s=None,
            )
            journal.dispatched("t-00000001", shard=0)
            journal.completed(_result("t-00000001"))
            journal.admitted(self._request("t-00000002"))
            assert journal.appends == {
                "serve": 1, "admitted": 2, "dispatched": 1, "completed": 1,
            }
        state = load_request_journal(str(path))
        assert sorted(state.entries) == ["t-00000001", "t-00000002"]
        assert state.entries["t-00000001"].dispatches == 1
        assert state.entries["t-00000001"].idempotency_key == "k1"
        assert sorted(state.completed) == ["t-00000001"]
        assert state.replayable == ("t-00000002",)
        assert state.idempotency == {"k1": ("t-00000001", "f1")}
        assert state.max_seq == 2
        assert state.truncated == 0
        assert state.duplicate_completions == 0

    def test_first_terminal_record_wins(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal.completed(_result("t-00000001", status="ok"))
            journal.completed(_result("t-00000001", status="failed"))
        state = load_request_journal(str(path))
        assert state.completed["t-00000001"]["status"] == "ok"
        assert state.duplicate_completions == 1
        assert state.replayable == ()

    def test_torn_tail_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal.completed(_result("t-00000001"))
        with open(path, "ab") as handle:
            handle.write(b'{"type": "admitted", "id": "t-0000')  # SIGKILL
        state = load_request_journal(str(path))
        assert state.truncated == 1
        assert sorted(state.entries) == ["t-00000001"]
        # Reopening truncates the tear and appends after the clean prefix.
        with RequestJournal(str(path)) as journal:
            assert journal.recovered.truncated == 1
            journal.admitted(self._request("t-00000002"))
        state = load_request_journal(str(path))
        assert state.truncated == 0
        assert sorted(state.entries) == ["t-00000001", "t-00000002"]

    def test_unknown_record_types_are_skipped(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal._append({"type": "from_the_future", "id": "zz"})
        state = load_request_journal(str(path))
        assert sorted(state.entries) == ["t-00000001"]
        assert state.records == 2

    def test_missing_file_is_an_empty_journal(self, tmp_path):
        state = load_request_journal(str(tmp_path / "never-written.jsonl"))
        assert state.entries == {}
        assert state.replayable == ()
        assert state.max_seq == -1


class TestKillAtAnyByte:
    """The hypothesis arm: SIGKILL at every byte offset of the log."""

    def _write_journal(self, path) -> bytes:
        with RequestJournal(str(path)) as journal:
            for index in range(1, 4):
                request = ServeRequest(
                    id=f"t-{index:08d}", workload=WORKLOAD,
                    relax_bits=8, dataset_bytes=DATASET, tenant="t",
                )
                journal.admitted(request, idempotency_key=f"k{index}",
                                 fingerprint=f"f{index}")
                if index < 3:  # the last request crashes before finishing
                    journal.completed(_result(f"t-{index:08d}"))
        return path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4000))
    def test_recovery_never_raises_never_lies(self, tmp_path_factory, cut):
        path = tmp_path_factory.mktemp("journal") / "requests.jsonl"
        raw = self._write_journal(path)
        cut = min(cut, len(raw))
        path.write_bytes(raw[:cut])
        state = load_request_journal(str(path))  # must never raise
        # A completed record that fully survived keeps its request out of
        # the replayable set: recovery never re-runs a finished request.
        for request_id in state.completed:
            assert request_id not in state.replayable
        # Every acknowledged-but-incomplete request is replayable: the
        # write-ahead promise means nothing acknowledged is forgotten.
        for request_id in state.entries:
            assert (
                request_id in state.completed
                or request_id in state.replayable
            )
        assert state.duplicate_completions == 0
        # Recovery is idempotent and leaves a clean, loadable journal.
        recover_log(str(path))
        recover_log(str(path))
        after = load_request_journal(str(path))
        assert after.truncated == 0
        assert sorted(after.entries) == sorted(state.entries)
        assert sorted(after.completed) == sorted(state.completed)

    def _write_reordered_journal(self, path) -> bytes:
        """The worker-wins order: a shard journals ``dispatched`` and
        ``completed`` before the admitting thread's ``admitted`` lands."""
        with RequestJournal(str(path)) as journal:
            for index in range(1, 4):
                request_id = f"t-{index:08d}"
                request = ServeRequest(
                    id=request_id, workload=WORKLOAD,
                    relax_bits=8, dataset_bytes=DATASET, tenant="t",
                )
                journal.dispatched(request_id, shard=0)
                if index < 3:
                    journal.completed(_result(request_id))
                journal.admitted(request, idempotency_key=f"k{index}",
                                 fingerprint=f"f{index}")
        return path.read_bytes()

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=4000))
    def test_reordered_records_recover_at_any_byte(
        self, tmp_path_factory, cut
    ):
        path = tmp_path_factory.mktemp("journal") / "requests.jsonl"
        raw = self._write_reordered_journal(path)
        path.write_bytes(raw[: min(cut, len(raw))])
        state = load_request_journal(str(path))
        for request_id in state.completed:
            assert request_id not in state.replayable
        for request_id in state.entries:
            assert (
                request_id in state.completed
                or request_id in state.replayable
            )
            entry = state.entries[request_id]
            assert state.idempotency[entry.idempotency_key][0] == request_id
        # A restored result whose admitted record was cut still reserves
        # its id: the restarted scheduler must mint above it.
        for request_id in (*state.entries, *state.completed):
            assert int(request_id.rpartition("-")[2]) <= state.max_seq
        assert state.duplicate_completions == 0
        recover_log(str(path))
        after = load_request_journal(str(path))
        assert after.truncated == 0
        assert sorted(after.entries) == sorted(state.entries)
        assert sorted(after.completed) == sorted(state.completed)


class TestRecordOrder:
    """A pool now writes ``admitted`` before it queues the request, but
    journals from before that could hold a worker's ``dispatched`` and
    ``completed`` ahead of it; the fold must still read them."""

    def _request(self, request_id):
        return ServeRequest(
            id=request_id, workload=WORKLOAD, relax_bits=8,
            dataset_bytes=DATASET, tenant="t",
        )

    def test_completed_before_admitted_is_restored(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.dispatched("t-00000007", shard=1)
            journal.completed(_result("t-00000007"))
            journal.admitted(
                self._request("t-00000007"),
                idempotency_key="k7", fingerprint="f7",
            )
        state = load_request_journal(str(path))
        assert sorted(state.completed) == ["t-00000007"]
        assert state.replayable == ()
        assert state.entries["t-00000007"].dispatches == 1
        assert state.idempotency == {"k7": ("t-00000007", "f7")}
        assert state.max_seq == 7

    def test_completed_without_admitted_still_reserves_its_id(
        self, tmp_path
    ):
        # An older journal cut between a worker's completed and the
        # admitting thread's admitted: the id was never acknowledged, but
        # the result is restored, so the id must never be minted again.
        path = tmp_path / "requests.jsonl"
        with RequestJournal(str(path)) as journal:
            journal.admitted(self._request("t-00000001"))
            journal.completed(_result("t-00000002"))
        state = load_request_journal(str(path))
        assert sorted(state.completed) == ["t-00000002"]
        assert state.max_seq == 2
        with _pool(path) as pool:
            assert pool.stats()["journal"]["recovery"]["restored"] == 1
            fresh = pool.submit(WORKLOAD, dataset_bytes=DATASET, tenant="t")
            assert int(fresh.rpartition("-")[2]) > 2
            assert pool.result(fresh, timeout=60.0).status == "ok"

    def test_admission_racing_a_draining_stop_is_journaled_first(
        self, tmp_path
    ):
        """A submit held just after the scheduler queued it while
        ``stop(drain=True)`` drains the request and closes the journal:
        the id is acknowledged, and its ``admitted`` record was written
        before anything a worker journaled for it.  The pool's seed is its
        own, so the request misses the priced memo and reaches a worker."""
        path = tmp_path / "requests.jsonl"
        pool = _pool(path, runtime="thread", seed=4305)
        pool.start()
        queued, release = threading.Event(), threading.Event()
        submit = pool.scheduler.submit

        def held_submit(*args):
            submit(*args)
            queued.set()
            release.wait(30.0)

        pool.scheduler.submit = held_submit
        outcome = {}

        def client():
            try:
                outcome["id"], _, _ = pool.admit(WORKLOAD, dataset_bytes=DATASET)
            except Exception as exc:  # the assertion below reports it
                outcome["error"] = exc

        admitting = threading.Thread(target=client)
        admitting.start()
        try:
            assert queued.wait(30.0)
            pool.stop(drain=True)
        finally:
            release.set()
            admitting.join(30.0)
        assert "error" not in outcome, outcome
        assert pool.results.get(outcome["id"]).status == "ok"
        records = map(json.loads, path.read_bytes().splitlines())
        kinds = [r["type"] for r in records if r.get("id") == outcome["id"]]
        assert kinds == ["admitted", "dispatched", "completed"]


_SUBMITS = st.lists(
    st.tuples(
        st.sampled_from(["keyed", "unkeyed", "duplicate", "search"]),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=10,
)


@settings(max_examples=15, deadline=None)
@given(submits=_SUBMITS, stop_at=st.none() | st.integers(0, 9))
def test_thread_pool_journals_admitted_first(
    tmp_path_factory, submits, stop_at
):
    """Any mix of keyed, unkeyed, duplicate and `/search` submits on the
    thread runtime, with at most one draining stop racing them: each id's
    ``admitted`` line precedes its ``dispatched`` and ``completed`` lines,
    and every acknowledged id completes."""
    path = tmp_path_factory.mktemp("order") / "requests.jsonl"
    pool = _pool(path, runtime="thread")
    pool.start()
    acknowledged, last_keyed, stopper = set(), ("keyed", 0), None
    for position, (kind, n) in enumerate(submits):
        if position == stop_at:
            stopper = threading.Thread(target=pool.stop)
            stopper.start()
        if kind == "duplicate":
            kind, n = last_keyed  # resubmit the last keyed request
        elif kind != "unkeyed":
            last_keyed = kind, n
        key = None if kind == "unkeyed" else f"{kind}-{n}"
        try:
            if kind == "search":
                query = np.random.default_rng(n).integers(
                    0, 2, pool.search_index().dim, dtype=np.uint8
                )
                request_id, _, _ = pool.admit_search(
                    query, k=3, relax_bits=4 * n, idempotency_key=key
                )
            else:
                request_id, _, _ = pool.admit(
                    WORKLOAD, relax_bits=8 * (n % 2), dataset_bytes=DATASET,
                    idempotency_key=key,
                )
        except ServingError:  # refused: draining or stopped
            assert position >= (len(submits) if stop_at is None else stop_at)
            continue
        acknowledged.add(request_id)
    if stopper is None:
        pool.stop()
    else:
        stopper.join(60.0)
        assert not stopper.is_alive()
    _assert_admitted_first(path)
    completed = {
        record["id"]
        for record in map(json.loads, path.read_bytes().splitlines())
        if record["type"] == "completed"
    }
    assert acknowledged <= completed


def _assert_admitted_first(path) -> None:
    """Each id's ``admitted`` record precedes its other records."""
    admitted = set()
    for line in path.read_bytes().split(b"\n")[:-1]:
        record = json.loads(line)
        if record["type"] == "admitted":
            admitted.add(record["id"])
        elif "id" in record:
            assert record["id"] in admitted, record


def _record_fsyncs(monkeypatch, path, delay_s=0.0) -> list[int]:
    """Log each record-log fsync of ``path`` as the byte offset it covers.

    The offset is the file size when the barrier starts (a lower bound on
    what it made durable), appended once the barrier returns — so a
    caller that reads ``len(offsets)`` after ``sync()`` sees every fsync
    that could have covered its record.  ``delay_s`` slows each barrier
    to make concurrent callers overlap.
    """
    offsets: list[int] = []
    real_fsync = os.fsync

    def fsync(fd):
        covered = os.fstat(fd)
        if delay_s:
            time.sleep(delay_s)
        real_fsync(fd)
        if os.path.samestat(covered, os.stat(path)):
            offsets.append(covered.st_size)

    monkeypatch.setattr(recordlog.os, "fsync", fsync)
    return offsets


def _record_ends(path, kind) -> dict[str, int]:
    """id -> end byte offset of each ``kind`` record in the log."""
    ends: dict[str, int] = {}
    offset = 0
    for line in path.read_bytes().split(b"\n")[:-1]:
        offset += len(line) + 1
        record = json.loads(line)
        if record["type"] == kind:
            ends[record["id"]] = offset
    return ends


class TestGroupCommit:
    def test_sync_is_free_when_covered_and_close_syncs_the_tail(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "log.jsonl"
        offsets = _record_fsyncs(monkeypatch, str(path))
        log = RecordLog(str(path))
        log.append({"type": "a"})
        log.append({"type": "b"})
        assert offsets == []  # appends write, never fsync
        assert log.sync() is True
        assert log.sync() is False  # nothing new since the barrier
        synced = path.stat().st_size
        log.append({"type": "c"})
        log.close()
        assert offsets == [synced, path.stat().st_size]
        assert log.syncs == 2
        resumed = RecordLog(str(path), resume=True)
        assert resumed.sync() is False  # a reopened log starts synced
        resumed.close()
        assert [r["type"] for r in load_records(str(path))[0]] == [
            "a", "b", "c",
        ]

    def test_checkpoint_keeps_one_fsync_per_record(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "campaign.jsonl"
        offsets = _record_fsyncs(monkeypatch, str(path))
        with CheckpointJournal(str(path)) as journal:
            journal.describe({"n": 1})
            journal.begin("a")
            journal.complete("a", {"ok": True})
        ends, offset = [], 0
        for line in path.read_bytes().split(b"\n")[:-1]:
            offset += len(line) + 1
            ends.append(offset)
        assert offsets == ends

    def test_each_sync_returns_after_a_barrier_covering_its_record(
        self, tmp_path, monkeypatch
    ):
        threads, rounds = 8, 5
        path = tmp_path / "log.jsonl"
        offsets = _record_fsyncs(monkeypatch, str(path), delay_s=0.005)
        log = RecordLog(str(path))
        barrier = threading.Barrier(threads)
        seen: dict[str, int] = {}

        def writer(index):
            barrier.wait()
            for round_ in range(rounds):
                record_id = f"w{index}-{round_}"
                log.append({"type": "r", "id": record_id})
                log.sync()
                seen[record_id] = len(offsets)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [
                threading.Thread(target=writer, args=(index,))
                for index in range(threads)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        log.close()
        ends = _record_ends(path, "r")
        assert len(ends) == len(seen) == threads * rounds
        for record_id, count in seen.items():
            assert max(offsets[:count], default=-1) >= ends[record_id]
        assert log.syncs == len(offsets) < threads * rounds

    def test_sequential_session_pays_one_fsync_per_request(self, tmp_path):
        requests = 5
        with _pool(tmp_path / "requests.jsonl", runtime="thread") as pool:
            for index in range(requests):
                # Keyed and unkeyed admissions take different paths.
                request_id = pool.submit(
                    WORKLOAD, relax_bits=index, dataset_bytes=DATASET,
                    idempotency_key=f"k{index}" if index % 2 else None,
                )
                pool.result(request_id, timeout=60.0)
            journal = pool.stats()["journal"]
        assert journal["appends"]["admitted"] == requests
        assert journal["appends"]["completed"] == requests
        # One barrier per acknowledged id plus the boot's serve record;
        # dispatched/completed ride the next admission's group commit.
        assert journal["syncs"] == requests + 1

    @pytest.mark.parametrize("shared_key", [False, True])
    def test_concurrent_keyed_submitters_share_fsyncs(
        self, tmp_path, monkeypatch, shared_key
    ):
        submitters = 8
        path = tmp_path / "requests.jsonl"
        with _pool(path, runtime="thread") as pool:
            offsets = _record_fsyncs(monkeypatch, str(path), delay_s=0.02)
            before = pool.journal.syncs
            barrier = threading.Barrier(submitters)
            acked: dict[int, tuple[str, int]] = {}

            def submit(index):
                key = "shared" if shared_key else f"k{index}"
                barrier.wait()
                request_id, _, _ = pool.admit(
                    WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                    idempotency_key=key,
                )
                acked[index] = (request_id, len(offsets))

            workers = [
                threading.Thread(target=submit, args=(index,))
                for index in range(submitters)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive()
            paid = pool.journal.syncs - before
            for request_id, _ in acked.values():
                assert pool.result(request_id, timeout=60.0).status == "ok"
        assert len(acked) == submitters
        assert paid < submitters
        # Nobody — duplicate hits included — got an id back before a
        # barrier covered that id's admitted record.
        ends = _record_ends(path, "admitted")
        for request_id, count in acked.values():
            assert max(offsets[:count], default=-1) >= ends[request_id]
        distinct = {request_id for request_id, _ in acked.values()}
        assert len(distinct) == (1 if shared_key else submitters)
        _assert_admitted_first(path)


class TestCrashModel:
    """The host dies and loses every byte no fsync covered."""

    def test_truncating_to_the_last_barrier_loses_no_acknowledged_id(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "requests.jsonl"
        offsets = _record_fsyncs(monkeypatch, str(path))
        first_life = {}
        # A seed of its own, and late keys the early ones do not price:
        # every late request misses the priced memo and queues.
        with _pool(path, shards=2, seed=4306) as pool:
            for index in range(3):
                request_id = pool.submit(
                    WORKLOAD, relax_bits=4 * index, dataset_bytes=DATASET,
                    idempotency_key=f"early{index}",
                )
                first_life[request_id] = pool.result(request_id, 60.0)
            # The worker runs *after* the acknowledgements below, as a
            # shard thread does: their dispatched/completed records follow
            # the last barrier.
            monkeypatch.setattr(pool.runtime, "after_submit", lambda: None)
            late = [
                pool.submit(
                    WORKLOAD, relax_bits=12, dataset_bytes=DATASET,
                    idempotency_key="late",
                ),
                pool.submit("Sobel", relax_bits=16, dataset_bytes=DATASET),
                pool.admit_search(
                    np.random.default_rng(5).integers(
                        0, 2, pool.search_index().codebook.dim
                    ),
                    k=5, idempotency_key="late-search",
                )[0],
            ]
            pool.runtime.pump()
            for request_id in late:
                first_life[request_id] = pool.result(request_id, 60.0)
            raw = path.read_bytes()
            synced = offsets[-1]
        path.write_bytes(raw[:synced])  # the host crash
        lost = {
            record["id"]: record["digest"]
            for record in map(json.loads, raw[synced:].split(b"\n")[:-1])
            if record["type"] == "completed"
        }
        assert sorted(lost) == sorted(late)
        state = load_request_journal(str(path))
        for request_id in first_life:
            assert (
                request_id in state.completed
                or request_id in state.replayable
            )
        with _pool(path, shards=2, seed=4306) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            assert recovery["replayed"] == len(late)
            assert recovery["restored"] == len(first_life) - len(late)
            assert recovery["dropped"] == 0
            for request_id, original in first_life.items():
                result = pool.result(request_id, timeout=60.0)
                if request_id in lost:
                    assert (
                        result_digest(result.to_dict()) == lost[request_id]
                    )
                else:
                    assert result == original
            again, duplicate, _ = pool.admit(
                WORKLOAD, relax_bits=12, dataset_bytes=DATASET,
                idempotency_key="late",
            )
            assert (again, duplicate) == (late[0], True)


class TestIdempotentSubmission:
    def test_duplicate_key_returns_original_id(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            first, duplicate, _ = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            assert duplicate is False
            again, duplicate, _ = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            assert (again, duplicate) == (first, True)
            # No second request was queued for the retry.
            assert pool.stats()["journal"]["appends"]["admitted"] == 1

    def test_conflicting_payload_raises(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            first, _, _ = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            with pytest.raises(DuplicateRequestError) as info:
                pool.admit(
                    WORKLOAD, relax_bits=16, dataset_bytes=DATASET,
                    idempotency_key="k",
                )
            assert info.value.idempotency_key == "k"
            assert info.value.request_id == first

    def test_bad_keys_are_rejected(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            with pytest.raises(ServingError):
                pool.admit(WORKLOAD, idempotency_key="")
            with pytest.raises(ServingError):
                pool.admit(WORKLOAD, idempotency_key="x" * 257)


class TestCrashSafeRestart:
    def test_completed_results_are_restored_bit_identically(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        with _pool(path) as pool:
            request_id = pool.submit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            first_life = pool.result(request_id, timeout=60.0)
        with _pool(path) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            assert recovery["restored"] == 1
            assert recovery["replayed"] == 0
            assert recovery["dropped"] == 0
            second_life = pool.result(request_id, timeout=1.0)
            # Identical dataclasses, timing fields included: the restore
            # path republishes the journaled payload, no recompute.
            assert second_life == first_life
            # The idempotency index survives the restart too.
            again, duplicate, _ = pool.admit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET,
                idempotency_key="k",
            )
            assert (again, duplicate) == (request_id, True)

    def test_acknowledged_but_incomplete_requests_replay(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        # Hand-write the crash signature: admitted, never completed —
        # with a deadline that is long dead, which replay must drop.
        with RequestJournal(str(path)) as journal:
            request = ServeRequest(
                id="default-00000041", workload=WORKLOAD, relax_bits=8,
                dataset_bytes=DATASET, tenant="default",
            )
            journal.admitted(request, deadline_s=0.000001)
        with _pool(path) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            assert recovery["replayed"] == 1
            result = pool.result("default-00000041", timeout=60.0)
            # Not "expired": wall-clock deadlines die with the old life.
            assert result.status == "ok"
            # The restarted scheduler minted ids above the journaled max,
            # so new admissions cannot collide with the replayed id.
            fresh = pool.submit(
                WORKLOAD, relax_bits=0, dataset_bytes=DATASET
            )
            assert int(fresh.rpartition("-")[2]) > 41
        # On disk: exactly one terminal record for the replayed id.
        state = load_request_journal(str(path))
        assert state.duplicate_completions == 0
        assert state.replayable == ()

    def test_a_journal_whose_results_carry_trace_ids_restores(
        self, tmp_path
    ):
        """Results journaled before ``ServeResult.trace_id`` was deleted
        carry it as a copy of the id: restart restores them, drops none
        and serves every other field unchanged."""
        completed = (
            '{"digest":"47dfac740d908a11","id":"head-00000000","result":'
            '{"attempts":1,"batch_size":1,"dataset_bytes":1048576,'
            '"error":null,"id":"head-00000000","point":{"apim_energy_j":'
            '0.00037437032077176495,"apim_time_s":0.025476682680378077,'
            '"attempts":1,"dataset_bytes":1048576,"edp_improvement":'
            '0.10429356040421298,"effective_relax_bits":8,'
            '"energy_improvement":25.832823311731413,"qol_percent":'
            '0.00013205631175080458,"qos_ok":true,"relax_bits":8,'
            '"speedup":0.004037249786663866,"status":"ok","workload":'
            '"Robert"},"queue_wait_s":9.915199916576967e-05,"relax_bits":8,'
            '"search":null,"service_s":0.017430380001314916,"shard":0,'
            '"status":"ok","tenant":"head","trace_id":"head-00000000",'
            '"workload":"Robert"},"status":"ok","type":"completed","v":1}'
        )
        lines = [
            '{"meta":{"runtime":"inline","seed":7,"shards":1,'
            '"tile_elements":512},"type":"serve","v":1}',
            '{"dataset_bytes":1048576,"deadline_s":null,"fingerprint":null,'
            '"id":"head-00000000","idempotency_key":null,"priority":1,'
            '"relax_bits":8,"tenant":"head","type":"admitted","v":1,'
            '"workload":"Robert"}',
            '{"id":"head-00000000","shard":0,"type":"dispatched","v":1}',
            completed,
        ]
        path = tmp_path / "requests.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with _pool(path) as pool:
            recovery = pool.stats()["journal"]["recovery"]
            restored = pool.result("head-00000000", timeout=1.0)
        assert (recovery["restored"], recovery["replayed"]) == (1, 0)
        assert recovery["dropped"] == 0
        payload = json.loads(completed)["result"]
        del payload["trace_id"]
        assert restored.to_dict() == payload
        assert result_digest(restored.to_dict()) == "47dfac740d908a11"

    def test_restart_over_http_restores_replays_and_dedupes(self, tmp_path):
        """Both lives behind a real server: the restarted one restores the
        first life's result, replays a hand-written ``admitted`` record
        and still knows the first life's idempotency key."""
        path = tmp_path / "requests.jsonl"
        body = {"workload": WORKLOAD, "relax_bits": 8}
        keyed = {**body, "idempotency_key": "http-key"}

        def poll(base, request_id):
            for _ in range(600):
                status, reply = _http_json(f"{base}/result/{request_id}")
                if status == 200:
                    return reply
                time.sleep(0.05)
            raise AssertionError(f"{request_id} never completed: {reply}")

        pool = _pool(path)
        with pool, build_server(pool) as server:
            status, reply = _http_json(f"{server.url}/submit", body)
            assert status == 202
            request_id = reply["id"]
            first_life = poll(server.url, request_id)
            status, first = _http_json(f"{server.url}/submit", keyed)
            assert status == 202
            status, again = _http_json(f"{server.url}/submit", keyed)
            assert status == 200 and again["status"] == "duplicate"
            assert again["id"] == first["id"]
            status, _ = _http_json(
                f"{server.url}/submit", {**keyed, "relax_bits": 16}
            )
            assert status == 409
            poll(server.url, first["id"])
        # The crash signature: an acknowledged id with no terminal record.
        with RequestJournal(str(path)) as journal:
            journal.admitted(
                ServeRequest(
                    id="default-00000099", workload=WORKLOAD, relax_bits=8,
                    dataset_bytes=DATASET, tenant="default",
                )
            )
        pool = _pool(path)
        with pool, build_server(pool) as server:
            status, stats = _http_json(f"{server.url}/stats")
            recovery = stats["journal"]["recovery"]
            assert recovery["restored"] >= 1
            assert recovery["replayed"] == 1
            status, restored = _http_json(f"{server.url}/result/{request_id}")
            assert status == 200
            assert restored["point"]["speedup"] == (
                first_life["point"]["speedup"]
            )
            assert poll(server.url, "default-00000099")["status"] == "ok"
            status, again = _http_json(f"{server.url}/submit", keyed)
            assert status == 200 and again["status"] == "duplicate"
            assert again["id"] == first["id"]

    def test_double_completion_tripwire_fires(self, tmp_path):
        with _pool(tmp_path / "requests.jsonl") as pool:
            request_id = pool.submit(WORKLOAD, dataset_bytes=DATASET)
            result = pool.result(request_id, timeout=60.0)
            with pytest.raises(ServingError, match="completed twice"):
                pool.results.complete(result)


class TestResultStoreBounds:
    def test_capacity_eviction_leaves_a_tombstone(self):
        store = ResultStore(capacity=1)
        store.complete(_result("a-00000001"))
        store.complete(_result("a-00000002"))
        assert store.lookup("a-00000001") == ("evicted", "capacity")
        assert store.status("a-00000002") == "done"
        assert store.evicted_by_reason["capacity"] == 1
        with pytest.raises(ServingError, match="evicted"):
            store.wait("a-00000001", timeout=0.01)

    def test_ttl_eviction_with_a_manual_clock(self):
        now = [0.0]
        store = ResultStore(capacity=8, ttl_s=10.0, clock=lambda: now[0])
        store.complete(_result("a-00000001"))
        now[0] = 5.0
        assert store.status("a-00000001") == "done"
        now[0] = 10.0
        assert store.lookup("a-00000001") == ("evicted", "ttl")
        assert store.get("a-00000001") is None

    def test_tripwire_still_fires_on_tombstoned_ids(self):
        store = ResultStore(capacity=1)
        store.complete(_result("a-00000001"))
        store.complete(_result("a-00000002"))  # evicts a-00000001
        with pytest.raises(ServingError, match="completed twice"):
            store.complete(_result("a-00000001"))
        with pytest.raises(ServingError, match="cannot restore"):
            store.restore(_result("a-00000001"))

    def test_evicted_results_answer_410(self, tmp_path):
        with _pool(
            tmp_path / "requests.jsonl", result_capacity=1
        ) as pool:
            first = pool.submit(WORKLOAD, dataset_bytes=DATASET)
            pool.result(first, timeout=60.0)
            second = pool.submit(
                WORKLOAD, relax_bits=8, dataset_bytes=DATASET
            )
            pool.result(second, timeout=60.0)
            handler = _result_handler(pool)
            match = re.match(r"/result/(?P<id>[A-Za-z0-9._:-]+)", f"/result/{first}")
            status, body = handler(match, None)
            assert status == 410
            assert body["id"] == first
            assert body["reason"] == "capacity"
            assert "evicted" in body["error"]
            assert pool.stats()["results"]["evicted_by_reason"] == {
                "capacity": 1, "ttl": 0,
            }

    def test_result_evicted_mid_lookup_is_never_a_500(self):
        store = ResultStore(capacity=1)
        stored = _result("a-00000001")
        store.complete(stored)
        lock = store._lock

        class EvictAfterFirstRelease:
            """Completes a second id (evicting the first) right after
            the handler's first store call lets go of the lock."""

            fired = False

            def __enter__(self):
                lock.acquire()

            def __exit__(self, *exc_info):
                lock.release()
                if not self.fired:
                    self.fired = True
                    store.complete(_result("a-00000002"))

        store._lock = EvictAfterFirstRelease()
        handler = _result_handler(
            SimpleNamespace(results=store)
        )
        match = re.match(r"/result/(?P<id>.+)", "/result/a-00000001")
        # One locked lookup answers from the snapshot it took ...
        assert handler(match, None) == (200, stored.to_dict())
        # ... and the eviction that raced it shows on the next poll.
        status, body = handler(match, None)
        assert status == 410
        assert body["reason"] == "capacity"
        assert store.lookup("a-00000001") == ("evicted", "capacity")

    def test_lookup_covers_every_status(self):
        store = ResultStore(capacity=1)
        store.register("a-00000001")
        assert store.lookup("a-00000001") == ("pending", None)
        done = _result("a-00000001")
        store.complete(done)
        assert store.lookup("a-00000001") == ("done", done)
        assert store.lookup("a-00000009") == ("unknown", None)

    def test_bad_bounds_are_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ResultStore(capacity=0)
        with pytest.raises(ConfigurationError):
            ResultStore(ttl_s=0.0)


class TestAtomicSpill:
    def _store(self, tmp_path, **kwargs):
        kwargs.setdefault("capacity", 2)
        kwargs.setdefault("spill_path", str(tmp_path / "traces.jsonl"))
        kwargs.setdefault("id_prefix", "fixed")
        return TraceStore(**kwargs)

    def test_eviction_spills_whole_lines(self, tmp_path):
        store = self._store(tmp_path)
        for index in range(4):  # capacity 2: evicts (and spills) 2
            store.new_trace(index=index)
        records = load_spilled(str(tmp_path / "traces.jsonl"))
        assert [r.baggage["index"] for r in records] == [0, 1]
        assert store.spilled == 2

    def test_spill_appends_to_the_same_file(self, tmp_path):
        """Each eviction is one append to the one spill file: the inode
        never changes, nothing is staged beside it, every line parses."""
        path = tmp_path / "traces.jsonl"
        store = self._store(tmp_path, capacity=1)
        store.new_trace(index=0)
        store.new_trace(index=1)  # evicts index=0
        inode = os.stat(path).st_ino
        store.new_trace(index=2)  # evicts index=1
        assert os.stat(path).st_ino == inode
        assert [p.name for p in tmp_path.iterdir()] == ["traces.jsonl"]
        with open(path, encoding="utf-8") as handle:
            assert [json.loads(line)["baggage"] for line in handle] == [
                {"index": 0}, {"index": 1},
            ]

    def test_reads_do_not_wait_for_a_spill_fsync(self, tmp_path, monkeypatch):
        """The spill's fsync runs after the store lock is released, so a
        reader is never blocked behind the disk."""
        from repro.observability import tracing

        entered, release = threading.Event(), threading.Event()
        real_fsync = os.fsync

        def slow_fsync(fd):
            entered.set()
            release.wait(10.0)
            real_fsync(fd)

        store = self._store(tmp_path, capacity=1)
        resident = store.new_trace(index=0)
        monkeypatch.setattr(tracing.os, "fsync", slow_fsync)
        evicting = threading.Thread(
            target=store.new_trace, kwargs={"index": 1}
        )
        evicting.start()
        try:
            assert entered.wait(10.0)
            reader = threading.Thread(
                target=store.get, args=(resident.trace_id,)
            )
            reader.start()
            reader.join(2.0)
            assert not reader.is_alive()
        finally:
            release.set()
            evicting.join(10.0)
        assert store.spilled == 1

    def test_unwritable_spill_path_raises_tracing_error(self, tmp_path):
        store = self._store(
            tmp_path, spill_path=str(tmp_path / "no-such-dir" / "t.jsonl")
        )
        store.new_trace(index=0)
        store.new_trace(index=1)
        with pytest.raises(TracingError):
            store.new_trace(index=2)  # evicts index=0
