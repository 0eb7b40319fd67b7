"""Unit tests for the CPU baseline (repro.baselines.cpu)."""

from __future__ import annotations

import pytest

from repro.baselines import gpu as gpu_module
from repro.baselines.cpu import CPUConfig, CPUModel
from repro.baselines.gpu import GPUModel, WorkloadProfile
from repro.errors import ConfigurationError
from repro.units import GIB, MIB
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def cpu():
    return CPUModel()


@pytest.fixture(scope="module")
def sobel_profile():
    return workload_by_name("Sobel").profile()


class TestCPUModel:
    def test_estimate_positive(self, cpu, sobel_profile):
        est = cpu.estimate(sobel_profile, 64 * MIB)
        assert est.time > 0 and est.energy > 0

    def test_per_element_cost_grows_with_footprint(self, cpu, sobel_profile):
        small = cpu.estimate(sobel_profile, 32 * MIB)
        large = cpu.estimate(sobel_profile, GIB)
        assert large.time / GIB > small.time / (32 * MIB)

    def test_locality_memoised(self, sobel_profile, monkeypatch):
        monkeypatch.setattr(gpu_module, "_LOCALITY_MEMO", {})
        traced = []

        def trace(elements):
            traced.append(elements)
            return sobel_profile.trace(elements)

        profile = WorkloadProfile(**{**vars(sobel_profile), "trace": trace})
        cpu = CPUModel()
        first = cpu.measure_locality(profile, 1 << 12)
        assert cpu.measure_locality(profile, 1 << 12) == first
        assert traced == [1 << 12]  # same tile: served from the memo
        cpu.measure_locality(profile, 1 << 10)
        assert traced == [1 << 12, 1 << 10]  # another tile: measured afresh

    def test_fractions_sum_to_one(self, cpu, sobel_profile):
        l1, l2, dram = cpu.measure_locality(sobel_profile, 1 << 13)
        assert l1 + l2 + dram == pytest.approx(1.0)

    def test_cpu_slower_than_gpu_on_compute(self, sobel_profile):
        # The 2017 comparison: the GPU out-computes the CPU by >10x peak;
        # on these memory-fed kernels it should still finish sooner.
        cpu_est = CPUModel().estimate(sobel_profile, 256 * MIB)
        gpu_est = GPUModel().estimate(sobel_profile, 256 * MIB)
        assert cpu_est.breakdown["compute_time"] > gpu_est.breakdown[
            "compute_time"
        ]

    def test_bigger_l2_hides_traffic(self, sobel_profile):
        # The CPU's 8 MB LLC captures more of the stencil's reuse than the
        # GPU's 1 MB L2 would.
        cpu = CPUModel()
        gpu = GPUModel()
        _, _, cpu_dram = cpu.measure_locality(sobel_profile, 1 << 14)
        _, _, gpu_dram = gpu.measure_locality(sobel_profile, 1 << 14)
        assert cpu_dram <= gpu_dram + 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CPUConfig(peak_flops=0)
        with pytest.raises(ConfigurationError):
            CPUConfig(utilization=2.0)

    def test_apim_beats_cpu_at_scale(self, sobel_profile):
        """The paper's general claim covers traditional cores: at 1 GB the
        APIM estimate must beat the CPU too."""
        from repro.runtime.comparison import ComparisonHarness

        harness = ComparisonHarness(tile_elements=1 << 11)
        apim_time, apim_energy, _ = harness.apim_estimate(
            workload_by_name("Sobel"), GIB
        )
        cpu_est = CPUModel().estimate(sobel_profile, GIB)
        assert cpu_est.time > apim_time
        assert cpu_est.energy > apim_energy
