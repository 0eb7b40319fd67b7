"""Simulator-performance microbenchmarks (not a paper artifact).

Measures the reproduction's own throughput: vectorised functional
arithmetic, structural micro-op simulation, the cache simulator (per
access, and a cold GPU locality measurement batch vs per access) and a
full workload execution.  Useful for regression-tracking the simulator
itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import gpu as gpu_module
from repro.baselines.cache import Cache, CacheHierarchy
from repro.baselines.gpu import GPUModel
from repro.core.approximation import ApproxSpec
from repro.core.engine import APIMEngine
from repro.core.multiplier import APIMMultiplier
from repro.crossbar.structural_multiplier import StructuralMultiplier
from repro.workloads import workload_by_name

RNG = np.random.default_rng(77)
A = RNG.integers(0, 1 << 32, 1 << 16, dtype=np.uint64)
B = RNG.integers(0, 1 << 32, 1 << 16, dtype=np.uint64)


def test_functional_multiplier_throughput(benchmark):
    mult = APIMMultiplier()

    def run():
        return mult.multiply(A, B).cost.cycles

    cycles = benchmark(run)
    assert cycles > 0


def test_functional_multiplier_approx_throughput(benchmark):
    mult = APIMMultiplier()
    spec = ApproxSpec.last_stage(32)

    def run():
        return mult.multiply(A, B, spec).cost.cycles

    benchmark(run)


def test_engine_signed_mac_throughput(benchmark):
    engine = APIMEngine()
    x = RNG.integers(-(1 << 20), 1 << 20, 1 << 14)
    y = RNG.integers(-(1 << 20), 1 << 20, 1 << 14)

    def run():
        engine.reset()
        acc = engine.mul(x, y)
        return engine.add(acc, acc, width=50)

    benchmark(run)


def test_structural_multiplier_throughput(benchmark):
    mult = StructuralMultiplier(8, rows=220)

    def run():
        product, _ = mult.multiply(173, 89)
        assert product == 173 * 89

    benchmark(run)


def test_cache_simulator_throughput(benchmark):
    cache = Cache(1 << 20, line_bytes=64, ways=16)
    addresses = RNG.integers(0, 1 << 24, 20000).tolist()

    def run():
        for addr in addresses:
            cache.access(addr)
        return cache.stats.misses

    benchmark(run)


#: The served mix: the six paper workloads plus GEMM.
SERVING_WORKLOADS = (
    "Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen", "QuasiR", "GEMM",
)


def _per_access_locality(model, profile):
    """The per-access reference: one ``CacheHierarchy.access`` per trace
    element, as the locality measurement ran before the batch path."""
    cfg = model.config
    hierarchy = CacheHierarchy(
        Cache(cfg.l1_bytes, cfg.line_bytes, ways=8, name="l1"),
        Cache(cfg.l2_bytes, cfg.line_bytes, ways=16, name="l2"),
    )
    counts = {"l1": 0, "l2": 0, "dram": 0}
    for addr, is_write in profile.trace(model.DEFAULT_TILE_ELEMENTS):
        counts[hierarchy.access(addr, is_write)] += 1
    total = sum(counts.values())
    return counts["l1"] / total, counts["l2"] / total, counts["dram"] / total


@pytest.mark.parametrize("path", ["batch", "per_access"])
def test_cold_locality_measurement(benchmark, bench_rounds, monkeypatch, path):
    """Cold GPU locality of the 7 serving profiles: the chunked lockstep
    batch path (``GPUModel.measure_locality`` on an empty process-wide
    memo) against the per-access reference; the fractions must agree."""
    profiles = [workload_by_name(name).profile() for name in SERVING_WORKLOADS]

    def batch():
        monkeypatch.setattr(gpu_module, "_LOCALITY_MEMO", {})
        model = GPUModel()
        return [model.measure_locality(profile) for profile in profiles]

    def per_access():
        model = GPUModel()
        return [_per_access_locality(model, profile) for profile in profiles]

    if path == "batch":
        benchmark.pedantic(batch, rounds=bench_rounds, iterations=1)
    else:
        reference = benchmark.pedantic(
            per_access, rounds=bench_rounds, iterations=1
        )
        assert reference == batch()


def test_workload_execution_throughput(benchmark):
    workload = workload_by_name("Sobel")
    data = workload.generate(1 << 12, np.random.default_rng(5))

    def run():
        engine = APIMEngine()
        workload.run(engine, data)
        return engine.total_cost.cycles

    benchmark(run)
