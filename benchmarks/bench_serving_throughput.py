"""Serving-layer load generation: throughput, latency, rejection rate.

Not a paper artifact — the serving tier's first baseline.  Three arms:

- **closed-loop shard scaling, per runtime** (``--runtime
  {thread,subprocess,all}``): C client threads, each submit-and-wait in
  a loop over a GEMM-dominated mix, against a 1-shard and a 4-shard
  pool under 10% injected chaos.  Reports requests/s and p50/p99
  latency per (runtime, shard count) and asserts zero lost / zero
  duplicated requests.  The subprocess runtime is the GIL escape: on a
  host with >= 4 CPUs it must deliver >= 2x throughput at 4 shards; on
  smaller hosts that assert is skipped and the bench instead checks the
  work *distributes* — all four workers serve, and the aggregate
  worker-process CPU seconds stay near-linear (work is conserved, not
  duplicated, across the process boundary).  The thread runtime's
  scaling is reported but never asserted: pure-Python executors under
  one GIL cannot scale.
- **open-loop admission**: a burst far beyond a cold 1-shard pool's
  capacity against a tiny queue; asserts backpressure engages (some
  rejections) and every *admitted* request still reaches a terminal
  result.
- **batch coalescing**: distribution of dispatched batch sizes under
  concurrent same-key submission (the tile-cache-friendly path).

The measured numbers land in ``BENCH_serving.json`` for CI to archive.
"""

from __future__ import annotations

import json
import os
import threading
import time

from repro.core.approximation import EXACT, ApproxSpec
from repro.errors import AdmissionRejectedError
from repro.runtime.chaos import ChaosPolicy
from repro.serving import Client, CrossbarPool, ServeRequest, ServingConfig
from repro.units import MIB

ARTIFACT = "BENCH_serving.json"
TILE = 1 << 9
SEED = 2017
CHAOS = ChaosPolicy(transient_rate=0.08, corrupt_rate=0.02, seed=SEED)
#: GEMM-dominated request mix: (workload, relax_bits, dataset_bytes).
MIX = [
    ("GEMM", 0, 64 * MIB),
    ("GEMM", 8, 64 * MIB),
    ("GEMM", 16, 64 * MIB),
    ("Sobel", 8, 64 * MIB),
]
#: Seeds of the two chaos-free arms: a point already priced at a pool's
#: identity is answered at admission and never queues, so each arm's
#: burst must price at an identity nothing else in the process prices.
OPEN_LOOP_SEED = 4322
BATCHING_SEED = 4323
CLIENTS = 4
REQUESTS_PER_CLIENT = 25
TERMINAL = ("ok", "retried", "degraded", "fallback", "failed")


def _percentile(sorted_values, fraction):
    if not sorted_values:
        return float("nan")
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def _warm_every_shard(pool: CrossbarPool, runtime: str) -> None:
    """Price every mix key on every shard, and so in every subprocess
    worker.

    Warm-up requests alone do not do this: the pull model decides which
    shard takes a request, and they left 8-13 of 16 (shard, key) pairs
    warm, so cold tile pricing landed in the measured window.  In-process
    shards price through their own harness; a subprocess shard gets one
    run frame per key through its worker.  Nothing else is in flight, so
    the workers' pipes are idle.
    """
    for shard in pool.shards:
        for index, (workload, relax, size) in enumerate(MIX):
            if runtime == "subprocess":
                request = ServeRequest(
                    id=f"warm-{shard.index}-{index}", workload=workload,
                    relax_bits=relax, dataset_bytes=size,
                )
                _, status, _, error = pool.runtime.execute(shard, request)
                assert status in TERMINAL, (status, error)
            else:
                spec = ApproxSpec.last_stage(relax) if relax else EXACT
                shard.harness.compare(shard.workload(workload), size, spec)


def _worker_cpu_s(pool: CrossbarPool) -> float:
    """CPU seconds burned so far inside the pool's worker processes."""
    shards = pool.runtime.stats().get("shards", {})
    return sum(shard["worker_cpu_s"] for shard in shards.values())


def _closed_loop(shards: int, runtime: str = "thread") -> dict:
    """C closed-loop clients over the mix; chaos on; full accounting."""
    pool = CrossbarPool(
        shards=shards,
        tile_elements=TILE,
        seed=SEED,
        chaos_policy=CHAOS,
        serving_config=ServingConfig(queue_capacity=256),
        runtime=runtime,
    )
    latencies: list[float] = []
    ids: list[str] = []
    statuses: list[str] = []
    lock = threading.Lock()
    with pool:
        # Warm-up: every shard prices every mix key before the clock
        # starts (the measured regime is the steady state).
        warm = Client(pool, tenant="warm")
        for workload, relax, size in MIX:
            warm.call(workload, relax_bits=relax, dataset_bytes=size,
                      timeout=120.0)
        _warm_every_shard(pool, runtime)
        # Steady-state accounting only: each subprocess worker paid a
        # one-off cold-cache tile-pricing cost during warm-up that scales
        # with fan-out, not with request count.
        warm_cpu_s = _worker_cpu_s(pool)

        def client_loop(name: str) -> None:
            client = Client(pool, tenant=name)
            for index in range(REQUESTS_PER_CLIENT):
                workload, relax, size = MIX[index % len(MIX)]
                started = time.perf_counter()
                request_id = client.submit(
                    workload, relax_bits=relax, dataset_bytes=size,
                    block=True,
                )
                result = client.result(request_id, timeout=120.0)
                elapsed = time.perf_counter() - started
                with lock:
                    ids.append(request_id)
                    statuses.append(result.status)
                    latencies.append(elapsed)

        threads = [
            threading.Thread(target=client_loop, args=(f"c{i}",))
            for i in range(CLIENTS)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=600.0)
        wall = time.perf_counter() - wall_start
        stats = pool.stats()
        worker_cpu_s = _worker_cpu_s(pool) - warm_cpu_s
    expected = CLIENTS * REQUESTS_PER_CLIENT
    assert len(ids) == expected, f"lost requests: {len(ids)}/{expected}"
    assert len(set(ids)) == expected, "duplicated request ids"
    assert all(status in TERMINAL for status in statuses), set(statuses)
    ordered = sorted(latencies)
    busy = sum(shard["busy_s"] for shard in stats["shards"])
    return {
        "runtime": runtime,
        "shards": shards,
        "requests": expected,
        "wall_s": wall,
        "throughput_rps": expected / wall,
        "p50_latency_s": _percentile(ordered, 0.50),
        "p99_latency_s": _percentile(ordered, 0.99),
        "status_counts": {
            status: statuses.count(status) for status in set(statuses)
        },
        "shard_served": [s["served"] for s in stats["shards"]],
        "shard_utilisation": [
            shard["busy_s"] / wall for shard in stats["shards"]
        ],
        "total_busy_s": busy,
        "worker_cpu_s": worker_cpu_s if runtime == "subprocess" else None,
        "workers": stats["runtime"]["workers"],
    }


def _open_loop() -> dict:
    """A cold burst against a tiny queue: backpressure must engage."""
    pool = CrossbarPool(
        shards=1,
        tile_elements=TILE,
        seed=OPEN_LOOP_SEED,
        serving_config=ServingConfig(queue_capacity=8, retry_after_s=0.02),
    )
    admitted, rejected = [], 0
    with pool:
        for index in range(100):
            workload, relax, size = MIX[index % len(MIX)]
            try:
                admitted.append(
                    pool.submit(
                        workload=workload, relax_bits=relax,
                        dataset_bytes=size, tenant="open",
                    )
                )
            except AdmissionRejectedError as exc:
                assert exc.retry_after_s > 0
                rejected += 1
        results = [pool.result(i, timeout=120.0) for i in admitted]
    assert all(r.status in TERMINAL for r in results)
    assert len({r.id for r in results}) == len(admitted)
    return {
        "offered": 100,
        "admitted": len(admitted),
        "rejected": rejected,
        "rejection_rate": rejected / 100,
        "queue_capacity": 8,
    }


def _batching() -> dict:
    """Concurrent same-key submissions must coalesce into real batches.

    The burst's key is cold: its first request prices it while the rest
    queue behind it (a warm key would be answered at admission)."""
    pool = CrossbarPool(
        shards=1,
        tile_elements=TILE,
        seed=BATCHING_SEED,
        serving_config=ServingConfig(
            max_batch_size=8, max_wait_s=0.005, queue_capacity=256
        ),
    )
    with pool:
        ids = [
            pool.submit(workload="GEMM", relax_bits=8, tenant="burst",
                        block=True)
            for _ in range(24)
        ]
        results = [pool.result(i, timeout=120.0) for i in ids]
    sizes = [result.batch_size for result in results]
    assert max(sizes) >= 2, "no coalescing happened at all"
    assert max(sizes) <= 8
    return {
        "requests": len(sizes),
        "max_batch_size_seen": max(sizes),
        "mean_batch_size": sum(sizes) / len(sizes),
    }


def test_serving_throughput_baseline(bench_rounds, bench_runtimes):
    """The serving tier's load test; writes ``BENCH_serving.json``."""
    cpus = os.cpu_count() or 1
    closed_loop: dict[str, dict] = {}
    print()
    for runtime in bench_runtimes:
        single = _closed_loop(1, runtime)
        quad = _closed_loop(4, runtime)
        scaling = quad["throughput_rps"] / single["throughput_rps"]
        closed_loop[runtime] = {
            "1": single,
            "4": quad,
            "scaling_4_vs_1": scaling,
        }
        for arm in (single, quad):
            print(
                f"closed-loop [{runtime}] {arm['shards']} shard(s): "
                f"{arm['throughput_rps']:.1f} req/s, "
                f"p50 {arm['p50_latency_s'] * 1e3:.2f} ms, "
                f"p99 {arm['p99_latency_s'] * 1e3:.2f} ms, "
                f"statuses {arm['status_counts']}"
            )
        print(
            f"scaling [{runtime}] 4 vs 1 shards: {scaling:.2f}x "
            f"on {cpus} CPU(s)"
        )
        if runtime != "subprocess":
            continue
        # The subprocess runtime is the GIL escape: hold it to real
        # parallelism where parallelism is physical.
        if cpus >= 4:
            assert scaling >= 2.0, (
                f"subprocess runtime: 4 shards only {scaling:.2f}x over "
                f"1 shard on {cpus} CPUs"
            )
        else:
            print(
                f"(subprocess scaling assertion skipped: {cpus} CPU(s); "
                "asserting work distribution instead)"
            )
            # Even time-sliced on one CPU, the 4-shard pool must spread
            # requests across its workers...
            serving = sum(1 for n in quad["shard_served"] if n > 0)
            assert serving >= 2, (
                f"only {serving}/4 subprocess workers served any request"
            )
            # ...and conserve work: the aggregate CPU seconds burned in
            # worker processes stays near-linear with request count (the
            # same mix at both shard counts), not multiplied by fan-out.
            per_request_1 = single["worker_cpu_s"] / single["requests"]
            per_request_4 = quad["worker_cpu_s"] / quad["requests"]
            assert per_request_1 > 0 and per_request_4 > 0
            ratio = per_request_4 / per_request_1
            print(f"worker CPU-seconds per request, 4 vs 1 shards: {ratio:.2f}x")
            assert 1.0 / 3.0 <= ratio <= 3.0, (
                f"worker CPU-seconds per request moved {ratio:.2f}x "
                "between 1 and 4 shards — work not conserved"
            )
    open_loop = _open_loop()
    batching = _batching()
    payload = {
        "mix": [list(entry) for entry in MIX],
        "tile_elements": TILE,
        "clients": CLIENTS,
        "chaos": {
            "transient_rate": CHAOS.transient_rate,
            "corrupt_rate": CHAOS.corrupt_rate,
        },
        "cpu_count": cpus,
        "runtimes": list(bench_runtimes),
        "closed_loop": closed_loop,
        "scaling_4_vs_1": {
            runtime: arms["scaling_4_vs_1"]
            for runtime, arms in closed_loop.items()
        },
        "open_loop": open_loop,
        "batching": batching,
    }
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(
        f"open-loop: {open_loop['rejected']}/100 rejected "
        f"({open_loop['rejection_rate'] * 100:.0f}%), all admitted terminal"
    )
    print(
        f"batching: max batch {batching['max_batch_size_seen']}, "
        f"mean {batching['mean_batch_size']:.2f}"
    )
    assert open_loop["rejected"] > 0, "backpressure never engaged"
