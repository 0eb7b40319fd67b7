"""The process-wide APIM tile memo that every harness reads.

A tile execution is a pure function of the harness identity and
``(workload, spec)``, so every harness in a process — every in-process
serving shard — reuses one execution per key.  Pinned here: one
``executor.run`` per key across pools, results bit-identical to direct
pricing, entries that keep the tile's price and not its arrays, and cold
work visible by source.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter

import numpy as np

from repro.core.approximation import EXACT, ApproxSpec
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore, use_trace
from repro.runtime import comparison
from repro.runtime.campaign import run_point
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.executor import APIMExecutor
from repro.serving import Client, CrossbarPool
from repro.units import MIB
from repro.workloads import workload_by_name
from tests.conftest import emptied_memos

TILE = 1 << 9
SIZE = 64 * MIB
KEYS = [("Robert", 0), ("Robert", 8), ("Sobel", 16)]


def _count_runs(monkeypatch) -> Counter:
    runs = Counter()
    original = APIMExecutor.run

    def run(self, workload, *args, spec=EXACT, **kwargs):
        runs[workload.name, spec.relax_bits] += 1
        return original(self, workload, *args, spec=spec, **kwargs)

    monkeypatch.setattr(APIMExecutor, "run", run)
    return runs


def test_two_pools_run_one_execution_per_key(cold_memos, monkeypatch):
    runs = _count_runs(monkeypatch)
    served = []
    with CrossbarPool(shards=2, tile_elements=TILE, runtime="inline") as a, \
            CrossbarPool(shards=2, tile_elements=TILE, runtime="inline") as b:
        for pool in (a, b):
            for shard in pool.shards:  # price every key on every shard
                for name, relax in KEYS:
                    spec = ApproxSpec.last_stage(relax) if relax else EXACT
                    shard.harness.compare(shard.workload(name), SIZE, spec)
            for name, relax in KEYS:
                request_id = pool.submit(name, relax_bits=relax,
                                         dataset_bytes=SIZE)
                served.append(pool.result(request_id, timeout=30.0))
    assert runs == Counter({key: 1 for key in KEYS})
    with emptied_memos():  # direct pricing executes its own tiles
        direct = [
            run_point(workload_by_name(name), relax, SIZE,
                      ComparisonHarness(tile_elements=TILE))
            for name, relax in KEYS
        ]
    assert [result.point for result in served] == direct * 2


def test_concurrent_misses_keep_the_first_write(cold_memos):
    """Harnesses on 8 threads miss one key at once: however many execute,
    every harness ends up holding the one result the memo kept."""
    workload = workload_by_name("Robert")
    harnesses = [ComparisonHarness(tile_elements=TILE) for _ in range(8)]
    barrier = threading.Barrier(len(harnesses))
    seen = [None] * len(harnesses)

    def price(index):
        barrier.wait(timeout=10.0)
        seen[index] = harnesses[index]._tile_result(workload, EXACT)

    threads = [threading.Thread(target=price, args=(i,))
               for i in range(len(harnesses))]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    (kept,) = comparison._TILE_MEMO.values()
    assert all(result is kept for result in seen)


def test_memo_keeps_prices_not_arrays(cold_memos):
    """A memo entry holds only what pricing reads (no executed output or
    reference array), and every later lookup, from any harness of the
    same identity, returns the stored instance."""
    harness = ComparisonHarness(tile_elements=TILE)
    for name, relax in KEYS:
        spec = ApproxSpec.last_stage(relax) if relax else EXACT
        harness.compare(workload_by_name(name), SIZE, spec)
    assert len(comparison._TILE_MEMO) == len(KEYS)
    for tile in comparison._TILE_MEMO.values():
        fields = [getattr(tile, f.name) for f in dataclasses.fields(tile)]
        fields += [getattr(tile.cost, f.name)
                   for f in dataclasses.fields(tile.cost)]
        assert not any(isinstance(value, np.ndarray) for value in fields)
    other = ComparisonHarness(tile_elements=TILE)
    for (_, name, spec), stored in comparison._TILE_MEMO.items():
        assert other._tile_result(workload_by_name(name), spec) is stored
        assert harness.apim_estimate(
            workload_by_name(name), SIZE, spec)[2] is stored


def test_misses_counted_and_traced_by_source(cold_memos):
    """Each tile execution and locality simulation counts once as cold
    work by source and lands in the ambient trace; a memo hit, whichever
    harness makes it, writes nothing."""
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    store = TraceStore(id_prefix="t")
    ctx = store.new_trace()
    workload = workload_by_name("Robert")
    try:
        with use_trace(ctx):
            first = ComparisonHarness(tile_elements=TILE)
            first.compare(workload, SIZE)
            ComparisonHarness(tile_elements=TILE).compare(workload, SIZE)
            ComparisonHarness(tile_elements=TILE, rng_seed=7).compare(
                workload, SIZE
            )
            before = len(store.get(ctx.trace_id).events)
            first.compare(workload, SIZE)  # priced hit
            first.compare(workload, 2 * SIZE)  # tile and locality hits
            assert len(store.get(ctx.trace_id).events) == before
    finally:
        set_default_registry(previous)
    counts = {labels["source"]: child.value for labels, child in
              registry.get("repro_pricing_cold_work_total").samples()}
    assert counts == {"executed": 2, "simulated": 1}
    seconds = {labels["source"]: child.count for labels, child in
               registry.get("repro_pricing_cold_work_seconds").samples()}
    assert seconds == counts
    events = [e for e in store.get(ctx.trace_id).events
              if e.layer in ("comparison", "locality")]
    assert [(e.layer, e.attrs["source"]) for e in events] == [
        ("comparison", "executed"),
        ("locality", "simulated"),
        ("comparison", "executed"),
    ]
    assert {e.detail for e in events} == {"Robert"}


def test_a_tile_that_raises_executes_once(cold_memos, monkeypatch):
    """FFT at relax 50 overflows the 32-bit range and falls back to the
    CPU.  The failed execution is kept and counted as cold work once:
    later requests re-raise it without executing and fall back alike."""
    runs = _count_runs(monkeypatch)
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        with CrossbarPool(shards=1, runtime="inline") as pool:
            client = Client(pool)
            served = [client.call("FFT", relax_bits=50) for _ in range(4)]
    finally:
        set_default_registry(previous)
    assert runs == Counter({("FFT", 50): 1})
    assert {result.status for result in served} == {"fallback"}
    assert all(result.point == served[0].point for result in served)
    counts = {labels["source"]: child.value for labels, child in
              registry.get("repro_pricing_cold_work_total").samples()}
    assert counts["executed"] == 1
