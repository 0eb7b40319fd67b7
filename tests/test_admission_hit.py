"""A priced-memo hit is answered at admission.

Without a chaos policy, the pool's commit step looks a non-search
request up in the process-wide priced memo (the lookup ``run_point``
makes, :func:`~repro.runtime.campaign.memo_hit`).  A hit never queues,
is never dispatched and touches no shard: it ends through the pool's one
terminal step with shard -1, batch size 0, no queue wait and the memo
entry's one shared point, so it is terminal by the time its id is
acknowledged.  These tests pin that on the inline, thread and HTTP
paths, that chaos turns it off, and that a journaled hit (``admitted``
then ``completed``, no ``dispatched``) survives a crash at any byte.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.campaign import CampaignPoint, run_point
from repro.runtime.chaos import ChaosPolicy
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.supervisor import Supervisor
from repro.serving import Client, CrossbarPool
from repro.serving.frontend import _http_json, build_server
from repro.serving.journal import load_request_journal, result_digest
from repro.units import GIB, MIB
from repro.workloads import workload_by_name

TILE = 1 << 9
#: A harness identity no other test interns: each key's first pricing
#: here is cold.
SEED = 4320
#: The serving benchmark's mix: seven workloads, six relax levels, three
#: dataset sizes.
WORKLOADS = ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen", "QuasiR", "GEMM")
RELAX_LEVELS = (0, 4, 8, 16, 24, 32)
SIZES = (64 * MIB, 256 * MIB, GIB)
FIELDS = [field.name for field in dataclasses.fields(CampaignPoint)]
HIT_TIMELINE = [("frontend", "admitted"), ("campaign", "hit")]


def _fields(point) -> list[str]:
    """Every field as its ``repr`` (a point or its JSON dict): floats
    must match to the last bit."""
    if isinstance(point, dict):
        return [repr(point[name]) for name in FIELDS]
    return [repr(getattr(point, name)) for name in FIELDS]


def _direct(name: str, relax: int, size: float) -> CampaignPoint:
    """Direct supervised pricing at the pools' identity (cold the first
    time a key is seen, which also primes the priced memo)."""
    harness = ComparisonHarness(tile_elements=TILE, rng_seed=SEED)
    return run_point(
        workload_by_name(name), relax, float(size), harness,
        supervisor=Supervisor(),
    )


@pytest.fixture(scope="module")
def paths():
    """One started pool per in-process runtime, and a server over a
    thread pool; all at :data:`SEED`."""
    pools = {
        runtime: CrossbarPool(
            shards=2, tile_elements=TILE, seed=SEED, runtime=runtime
        ).start()
        for runtime in ("inline", "thread")
    }
    served = CrossbarPool(shards=2, tile_elements=TILE, seed=SEED).start()
    server = build_server(served)
    server.start()
    try:
        yield pools, server
    finally:
        server.close()
        for pool in (*pools.values(), served):
            pool.stop()


def _serve_in_process(pool, name, relax, size):
    """``(result, point, timeline)`` of one in-process request; a hit is
    terminal as soon as it is acknowledged."""
    request_id = pool.submit(name, relax_bits=relax, dataset_bytes=size)
    result = pool.results.get(request_id)
    assert result is not None, "a hit is terminal at acknowledgement"
    events = pool.traces.get(request_id).events
    timeline = [(event.layer, event.kind) for event in events]
    return dataclasses.asdict(result), result.point, timeline


def _serve_http(server, name, relax, size):
    status, reply = _http_json(
        f"{server.url}/submit",
        {"workload": name, "relax_bits": relax, "dataset_bytes": size},
    )
    assert status == 202
    status, result = _http_json(f"{server.url}/result/{reply['id']}")
    assert status == 200, "a hit is terminal at acknowledgement"
    status, trace = _http_json(f"{server.url}/trace/{reply['id']}")
    assert status == 200
    timeline = [(event["layer"], event["kind"]) for event in trace["events"]]
    return result, result["point"], timeline


@given(
    path=st.sampled_from(["inline", "thread", "http"]),
    name=st.sampled_from(WORKLOADS),
    relax=st.sampled_from(RELAX_LEVELS),
    size=st.sampled_from(SIZES),
)
@settings(max_examples=30, deadline=None)
def test_a_hit_is_answered_at_admission(paths, path, name, relax, size):
    """On every path a priced key is answered at admission: shard -1, no
    queue, no dispatch event, and the direct point field by field."""
    direct = _direct(name, relax, size)
    pools, server = paths
    if path == "http":
        result, point, timeline = _serve_http(server, name, relax, int(size))
    else:
        result, point, timeline = _serve_in_process(
            pools[path], name, relax, size
        )
    assert (result["shard"], result["batch_size"], result["queue_wait_s"]) \
        == (-1, 0, 0.0)
    assert (result["status"], result["attempts"]) == ("ok", 1)
    assert result["service_s"] > 0.0
    assert timeline == HIT_TIMELINE
    assert _fields(point) == _fields(direct)


def test_a_chaos_pool_never_answers_at_admission():
    """The same priced key: answered at admission without chaos, and
    queued, dispatched and supervised under a policy that injects
    nothing."""
    direct = _direct("Robert", 8, 64 * MIB)
    seen = {}
    for policy in (None, ChaosPolicy(seed=3)):
        with CrossbarPool(shards=1, tile_elements=TILE, seed=SEED,
                          runtime="inline", chaos_policy=policy) as pool:
            result = Client(pool, tenant="chaos").call("Robert", relax_bits=8)
            kinds = {(event.layer, event.kind)
                     for event in pool.traces.get(result.id).events}
        seen[policy is None] = result.shard, kinds
        assert _fields(result.point) == _fields(direct)
    shard, kinds = seen[True]
    assert shard == -1 and ("campaign", "hit") in kinds
    assert ("pool", "dispatch") not in kinds
    shard, kinds = seen[False]
    assert shard == 0 and ("campaign", "hit") not in kinds
    assert {("pool", "dispatch"), ("supervisor", "attempt")} <= kinds


def _record_spans(raw: bytes, request_id: str) -> dict[str, tuple[int, int]]:
    """``type -> (start, end)`` byte span of each of the id's records."""
    spans, offset = {}, 0
    for line in raw.splitlines(keepends=True):
        record = json.loads(line)
        if record.get("id") == request_id:
            spans[record["type"]] = (offset, offset + len(line))
        offset += len(line)
    return spans


def test_a_journaled_hit_survives_a_crash_at_any_byte(tmp_path):
    """A journaled hit writes ``admitted`` then ``completed`` and no
    ``dispatched``.  Cut the journal at every byte from the start of its
    ``admitted`` record to the end of its ``completed`` record: once the
    ``admitted`` record is whole, restart leaves the id terminal exactly
    once (restored, or re-run and answered at admission again) with the
    first life's digest; before that the id was never durable and
    restart does not know it."""
    _direct("Sobel", 16, 64 * MIB)
    path = tmp_path / "requests.jsonl"
    with CrossbarPool(shards=1, tile_elements=TILE, seed=SEED,
                      runtime="inline", journal=str(path)) as pool:
        request_id = pool.submit("Sobel", relax_bits=16,
                                 idempotency_key="hit")
        first = pool.results.get(request_id)
    assert first is not None and first.shard == -1
    raw = path.read_bytes()
    spans = _record_spans(raw, request_id)
    assert sorted(spans) == ["admitted", "completed"]
    (start, admitted_end), (_, end) = spans["admitted"], spans["completed"]
    assert admitted_end <= spans["completed"][0]
    digest = result_digest(first.to_dict())
    cut_path = tmp_path / "cut.jsonl"
    outcomes = set()
    for cut in range(start, end + 1):
        cut_path.write_bytes(raw[:cut])
        crashed = load_request_journal(str(cut_path))
        with CrossbarPool(shards=1, tile_elements=TILE, seed=SEED,
                          runtime="inline", journal=str(cut_path)) as pool:
            status, result = pool.results.lookup(request_id)
            recovery = dict(pool.recovery)
        state = load_request_journal(str(cut_path))
        assert state.duplicate_completions == 0, cut
        assert recovery["dropped"] == 0, cut
        if request_id not in crashed.entries:
            assert cut < admitted_end, cut
            assert status == "unknown", cut
            assert request_id not in state.completed, cut
            outcomes.add("unknown")
            continue
        assert status == "done", cut
        assert result_digest(result.to_dict()) == digest, cut
        assert state.replayable == (), cut
        assert request_id in state.completed, cut
        if request_id in crashed.completed:
            assert (recovery["restored"], recovery["replayed"]) == (1, 0)
            outcomes.add("restored")
        else:
            assert (recovery["restored"], recovery["replayed"]) == (0, 1)
            assert result.shard == -1, cut  # answered at admission again
            outcomes.add("replayed")
    assert outcomes == {"unknown", "restored", "replayed"}
