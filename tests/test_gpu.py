"""Unit tests for the GPU baseline model (repro.baselines.gpu)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.baselines import gpu as gpu_module
from repro.baselines.gpu import GPUConfig, GPUModel, WorkloadProfile
from repro.errors import ConfigurationError
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.tracing import TraceStore, use_trace
from repro.units import GIB, MIB


def _simple_profile(name="stream", reads=1.0, writes=1.0, flops=4.0,
                    passes=None):
    def trace(elements):
        for i in range(elements):
            yield i * 4, False
            yield (1 << 28) + i * 4, True

    return WorkloadProfile(
        name=name,
        element_bytes=4,
        flops_per_element=flops,
        reads_per_element=reads,
        writes_per_element=writes,
        passes=passes or (lambda n: 1.0),
        trace=trace,
    )


@pytest.fixture
def gpu():
    return GPUModel()


class TestProfile:
    def test_elements(self):
        assert _simple_profile().elements(400) == 100

    def test_elements_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            _simple_profile().elements(0)


class TestLocalityMeasurement:
    def test_fractions_sum_to_one(self, gpu):
        l1, l2, dram = gpu.measure_locality(_simple_profile(), 4096)
        assert l1 + l2 + dram == pytest.approx(1.0)

    def test_streaming_mostly_hits_lines(self, gpu):
        # Sequential 4-byte accesses: ~15/16 of reads hit the open line.
        l1, _l2, dram = gpu.measure_locality(_simple_profile(), 1 << 14)
        assert l1 > 0.8
        assert dram < 0.2

    def test_memoised_by_name(self, gpu, cold_memos):
        base = _simple_profile(name="memo")
        traced = []

        def trace(elements):
            traced.append(elements)
            return base.trace(elements)

        profile = WorkloadProfile(**{**vars(base), "trace": trace})
        first = gpu.measure_locality(profile, 1024)
        assert gpu.measure_locality(profile, 1024) == first
        assert traced == [1024]  # same tile: served from the memo
        gpu.measure_locality(profile, 2048)
        assert traced == [1024, 2048]  # another tile is measured afresh

    def test_shared_across_models(self, monkeypatch, cold_memos):
        built = []
        original = gpu_module.CacheHierarchy

        def hierarchy(*levels):
            built.append(levels)
            return original(*levels)

        monkeypatch.setattr(gpu_module, "CacheHierarchy", hierarchy)
        profile = _simple_profile(name="shared")
        first, second = GPUModel(), GPUModel()
        assert first.measure_locality(profile, 512) is (
            second.measure_locality(profile, 512)
        )
        assert len(built) == 1  # one simulation per process
        assert list(gpu_module._LOCALITY_MEMO) == [
            (GPUConfig(), "shared", 512)
        ]
        GPUModel(GPUConfig(l2_bytes=2 << 20)).measure_locality(profile, 512)
        assert len(built) == 2  # another config simulates afresh

    def test_memo_misses_counted_and_traced(self, cold_memos):
        """Cold work is visible: each simulation counts once and lands in
        the ambient trace; a memo hit, from any model, adds nothing."""
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        store = TraceStore(id_prefix="t")
        ctx = store.new_trace()
        try:
            with use_trace(ctx):
                profile = _simple_profile(name="visible")
                first, second = GPUModel(), GPUModel()
                first.measure_locality(profile, 256)
                second.measure_locality(profile, 256)  # another model's hit
                first.measure_locality(profile, 256)  # warm hit
        finally:
            set_default_registry(previous)
        runs = registry.get("repro_pricing_cold_work_total")
        assert [(labels, child.value) for labels, child in runs.samples()] == [
            ({"source": "simulated"}, 1)
        ]
        seconds = registry.get("repro_pricing_cold_work_seconds")
        assert seconds.labels(source="simulated").count == 1
        events = [e for e in store.get(ctx.trace_id).events
                  if e.layer == "locality"]
        assert [e.attrs["source"] for e in events] == ["simulated"]
        assert [e.attrs["model"] for e in events] == ["GPUConfig"]
        assert {e.detail for e in events} == {"visible"}

    def test_racing_misses_keep_the_first_write(self, cold_memos):
        """Fresh models on 8 threads miss one uncached profile at once:
        however many simulate, each gets the one tuple the memo kept."""
        profile = _simple_profile(name="racing")
        models = [GPUModel() for _ in range(8)]
        barrier = threading.Barrier(len(models))
        seen = [None] * len(models)

        def measure(index):
            barrier.wait(timeout=10.0)
            seen[index] = models[index].measure_locality(profile, 1024)

        threads = [threading.Thread(target=measure, args=(i,))
                   for i in range(len(models))]
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
        (kept,) = gpu_module._LOCALITY_MEMO.values()
        assert all(fractions is kept for fractions in seen)

    def test_empty_trace_rejected(self, gpu):
        profile = WorkloadProfile(
            name="empty", element_bytes=4, flops_per_element=1,
            reads_per_element=1, writes_per_element=0,
            passes=lambda n: 1.0, trace=lambda n: iter(()),
        )
        with pytest.raises(ConfigurationError):
            gpu.measure_locality(profile)


class TestEstimate:
    def test_time_and_energy_positive(self, gpu):
        est = gpu.estimate(_simple_profile(), 32 * MIB)
        assert est.time > 0 and est.energy > 0

    def test_breakdown_sums_to_energy(self, gpu):
        est = gpu.estimate(_simple_profile(), 32 * MIB)
        energy_parts = [v for k, v in est.breakdown.items() if k.startswith("e_")]
        assert sum(energy_parts) == pytest.approx(est.energy)

    def test_per_element_cost_grows_with_dataset(self, gpu):
        # The Figure 5 mechanism: translation + row locality degrade as the
        # dataset grows, so time per element must rise from 32 MB to 1 GB.
        small = gpu.estimate(_simple_profile(), 32 * MIB)
        large = gpu.estimate(_simple_profile(), GIB)
        per_elem_small = small.time / (32 * MIB / 4)
        per_elem_large = large.time / (GIB / 4)
        assert per_elem_large > per_elem_small

    def test_tlb_covered_dataset_has_no_walk_time(self, gpu):
        cfg = gpu.config
        est = gpu.estimate(_simple_profile(), cfg.tlb_entries * cfg.page_bytes)
        assert est.breakdown["walk_time"] == 0.0

    def test_passes_multiply_cost(self, gpu):
        one = gpu.estimate(_simple_profile(name="p1"), 64 * MIB)
        many = gpu.estimate(
            _simple_profile(name="p4", passes=lambda n: 4.0), 64 * MIB
        )
        assert many.time > 2 * one.time

    def test_edp_property(self, gpu):
        est = gpu.estimate(_simple_profile(), 32 * MIB)
        assert est.edp == pytest.approx(est.time * est.energy)

    def test_pass_below_one_rejected(self, gpu):
        with pytest.raises(ConfigurationError):
            gpu.estimate(
                _simple_profile(name="bad", passes=lambda n: 0.5), MIB
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"peak_flops": 0}, {"utilization": 0.0}, {"utilization": 1.5},
         {"e_flop": -1.0}],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ConfigurationError):
            GPUConfig(**kwargs)

    def test_r9_390_class_defaults(self):
        cfg = GPUConfig()
        assert cfg.peak_flops == pytest.approx(5.1e12)
        assert cfg.l2_bytes == 1024 * 1024
