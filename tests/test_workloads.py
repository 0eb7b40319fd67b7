"""Tests for all six OpenCL workloads (repro.workloads).

The central invariant: running a workload through an *exact* engine must
reproduce its golden reference bit-for-bit, and approximation must degrade
quality monotonically (in the regime Table 1 sweeps).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approximation import ApproxSpec
from repro.core.engine import APIMEngine
from repro.quality.metrics import quality_loss_percent
from repro.workloads import all_workloads, workload_by_name
from repro.workloads.base import WorkloadData
from repro.errors import WorkloadError

WORKLOADS = all_workloads()
ELEMENTS = 2048


@pytest.fixture(scope="module")
def datasets():
    rng = np.random.default_rng(99)
    return {w.name: w.generate(ELEMENTS, rng) for w in WORKLOADS}


class TestRegistry:
    def test_six_workloads(self):
        assert len(WORKLOADS) == 6

    def test_paper_names(self):
        names = {w.name for w in WORKLOADS}
        assert names == {"Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen",
                         "QuasiR"}

    def test_lookup_by_name_case_insensitive(self):
        assert workload_by_name("sobel").name == "Sobel"

    def test_lookup_unknown_raises(self):
        with pytest.raises(WorkloadError) as info:
            workload_by_name("nonexistent")
        # The registry's error enumerates every registered name.
        assert "Sobel" in str(info.value)
        assert "Similarity" in str(info.value)

    def test_kinds(self):
        kinds = {w.name: w.kind for w in WORKLOADS}
        assert kinds["Sobel"] == kinds["Robert"] == kinds["Sharpen"] == "image"
        assert kinds["FFT"] == kinds["DwtHaar1D"] == kinds["QuasiR"] == "signal"


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
class TestPerWorkload:
    def test_generate_shapes(self, workload, datasets):
        data = datasets[workload.name]
        assert isinstance(data, WorkloadData)
        assert data.elements >= ELEMENTS // 2

    def test_generate_deterministic_per_seed(self, workload):
        d1 = workload.generate(512, np.random.default_rng(5))
        d2 = workload.generate(512, np.random.default_rng(5))
        for name in d1.arrays:
            assert np.array_equal(d1.array(name), d2.array(name))

    def test_exact_run_equals_reference(self, workload, datasets):
        data = datasets[workload.name]
        engine = APIMEngine()
        out = workload.run(engine, data)
        ref = workload.reference(data)
        assert np.array_equal(np.asarray(out), np.asarray(ref))

    def test_exact_run_charges_cost(self, workload, datasets):
        engine = APIMEngine()
        workload.run(engine, datasets[workload.name])
        assert engine.total_cost.cycles > 0
        assert engine.mul_count + engine.add_count > 0

    def test_approximation_reduces_cycles(self, workload, datasets):
        data = datasets[workload.name]
        exact = APIMEngine()
        workload.run(exact, data)
        approx = APIMEngine(spec=ApproxSpec.last_stage(32))
        workload.run(approx, data)
        assert approx.total_cost.cycles < exact.total_cost.cycles

    def test_qol_monotone_in_relax_bits(self, workload, datasets):
        data = datasets[workload.name]
        ref = workload.reference(data)
        qols = []
        for m in (0, 16, 24, 32):
            engine = APIMEngine(spec=ApproxSpec.last_stage(m))
            out = workload.run(engine, data)
            qols.append(quality_loss_percent(ref, out, workload.kind))
        assert qols[0] == 0.0
        assert all(a <= b + 1e-9 for a, b in zip(qols, qols[1:]))
        assert qols[-1] > 0.0

    def test_profile_is_consistent(self, workload):
        profile = workload.profile()
        assert profile.name == workload.name
        assert profile.flops_per_element > 0
        assert profile.reads_per_element > 0
        assert profile.passes(1 << 20) >= 1.0

    def test_trace_addresses_valid(self, workload):
        count = 0
        for addr, is_write in workload.profile().trace(256):
            assert addr >= 0
            assert isinstance(is_write, bool)
            count += 1
            if count >= 5000:
                break
        assert count > 0

    def test_rejects_non_positive_elements(self, workload):
        with pytest.raises(WorkloadError):
            workload.generate(0, np.random.default_rng(1))


class TestWorkloadSpecifics:
    def test_sobel_detects_edges(self, datasets):
        # A constant image has zero gradient everywhere.
        sobel = workload_by_name("Sobel")
        flat = np.full((32, 32), 100 << sobel.scale_bits, dtype=np.int64)
        data = WorkloadData(arrays={"pixels": flat}, elements=flat.size)
        out = sobel.reference(data)
        assert np.all(out == 0)

    def test_robert_detects_diagonal_edges(self):
        robert = workload_by_name("Robert")
        img = np.zeros((16, 16), dtype=np.int64)
        img[:, 8:] = 200 << robert.scale_bits
        data = WorkloadData(arrays={"pixels": img}, elements=img.size)
        out = robert.reference(data)
        assert out[:, 7:9].max() > 0  # the vertical boundary responds
        assert np.all(out[:, :6] == 0)

    def test_sharpen_preserves_flat_regions(self):
        sharpen = workload_by_name("Sharpen")
        flat = np.full((16, 16), 77 << sharpen.scale_bits, dtype=np.int64)
        data = WorkloadData(arrays={"pixels": flat}, elements=flat.size)
        out = sharpen.reference(data)
        # 5*c - 4*c = c: sharpening is the identity on constants.
        assert np.all(np.abs(out - flat) <= (1 << sharpen.scale_bits) // 256 + 1)

    def test_fft_parseval_like_consistency(self, datasets):
        # The fixed-point FFT with per-stage >>1 scaling computes X/N; the
        # DC bin must then equal the input mean.
        fft = workload_by_name("FFT")
        data = datasets["FFT"]
        out = fft.reference(data)
        re = data.array("re")
        dc = out[0][0]
        assert dc == pytest.approx(re.mean(), rel=0.01)

    def test_fft_rejects_non_power_of_two(self):
        fft = workload_by_name("FFT")
        bad = WorkloadData(
            arrays={"re": np.zeros(12, dtype=np.int64),
                    "im": np.zeros(12, dtype=np.int64)},
            elements=12,
        )
        with pytest.raises(WorkloadError):
            fft.run(APIMEngine(), bad)

    def test_dwt_energy_compaction(self, datasets):
        # A smooth signal concentrates energy in the approximation path:
        # the late (coarse) coefficients dominate the fine details.
        dwt = workload_by_name("DwtHaar1D")
        data = datasets["DwtHaar1D"]
        out = dwt.reference(data).astype(np.float64)
        n = out.size
        coarse = np.abs(out[: n // 16]).mean()
        fine = np.abs(out[n // 2 :]).mean()
        assert coarse > 2 * fine

    def test_quasi_random_low_discrepancy(self, datasets):
        # Halton coordinates fill (0, 1) nearly uniformly: the empirical
        # CDF must stay close to uniform.
        quasi = workload_by_name("QuasiR")
        data = datasets["QuasiR"]
        coords = quasi.reference(data).astype(np.float64) / (1 << 30)
        for dim in range(coords.shape[0]):
            values = np.sort(coords[dim])
            uniform = np.linspace(0, 1, values.size)
            assert np.abs(values - uniform).max() < 0.05


class TestDatagen:
    def test_power_of_two_length(self):
        from repro.workloads.datagen import power_of_two_length

        assert power_of_two_length(1) == 8
        assert power_of_two_length(8) == 8
        assert power_of_two_length(9) == 16
        assert power_of_two_length(5000) == 8192
        with pytest.raises(WorkloadError):
            power_of_two_length(0)

    def test_uniform_samples_range(self):
        from repro.workloads.datagen import uniform_samples

        rng = np.random.default_rng(0)
        samples = uniform_samples(10000, rng, bits=8)
        assert samples.min() >= 0 and samples.max() <= 255
        assert samples.std() > 50  # genuinely spread
        with pytest.raises(WorkloadError):
            uniform_samples(0, rng)

    def test_smooth_noisy_signal_statistics(self):
        from repro.workloads.datagen import smooth_noisy_signal

        rng = np.random.default_rng(0)
        signal = smooth_noisy_signal(4096, rng)
        assert signal.min() >= 0 and signal.max() <= 255
        # Smoothness: adjacent-sample deltas far below the dynamic range.
        deltas = np.abs(np.diff(signal.astype(np.float64)))
        assert deltas.mean() < 30

    def test_halton_indices_offset_randomised(self):
        from repro.workloads.datagen import halton_indices

        a = halton_indices(100, np.random.default_rng(1))
        b = halton_indices(100, np.random.default_rng(2))
        assert a[0] != b[0]
        assert np.all(np.diff(a) == 1)
        assert a.min() >= 1
