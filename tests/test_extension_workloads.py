"""Tests for the extension workloads (GEMM, NeuralNet, Similarity,
QuantizedLayer)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approximation import ApproxSpec
from repro.core.engine import APIMEngine
from repro.workloads import (
    GEMMWorkload,
    NeuralWorkload,
    extension_workloads,
    workload_by_name,
)

RELAX_LADDER = (0, 4, 8, 16, 24, 32)


class TestRegistry:
    def test_four_extension_workloads(self):
        names = {w.name for w in extension_workloads()}
        assert names == {"GEMM", "NeuralNet", "Similarity", "QuantizedLayer"}

    def test_lookup_includes_extensions(self):
        assert workload_by_name("gemm").name == "GEMM"
        assert workload_by_name("neuralnet").name == "NeuralNet"
        assert workload_by_name("similarity").name == "Similarity"
        assert workload_by_name("quantizedlayer").name == "QuantizedLayer"

    def test_paper_six_unchanged(self):
        from repro.workloads import all_workloads

        assert len(all_workloads()) == 6  # Table 1 stays the paper's set


class TestGEMM:
    @pytest.fixture(scope="class")
    def gemm_data(self):
        w = GEMMWorkload()
        return w, w.generate(32 * 32, np.random.default_rng(11))

    def test_exact_matches_reference(self, gemm_data):
        workload, data = gemm_data
        engine = APIMEngine()
        out = workload.run(engine, data)
        assert np.array_equal(out, workload.reference(data))

    def test_reference_is_true_matmul(self, gemm_data):
        workload, data = gemm_data
        a, b = data.array("a"), data.array("b")
        assert np.array_equal(workload.reference(data), (a @ b) >> 8)

    def test_cost_scales_cubically(self):
        workload = GEMMWorkload()
        costs = []
        for side in (8, 16):
            data = workload.generate(side * side, np.random.default_rng(1))
            engine = APIMEngine()
            workload.run(engine, data)
            costs.append(engine.total_cost.cycles)
        assert costs[1] > 6 * costs[0]  # ~8x for 2x side

    def test_approximation_bounded_error(self, gemm_data):
        # The 32-deep sequential accumulation chain re-approximates at
        # every step, so GEMM tolerates moderate relax levels only — the
        # adaptive tuner's reason to exist.
        workload, data = gemm_data
        ref = workload.reference(data).astype(np.float64)
        engine = APIMEngine(spec=ApproxSpec.last_stage(16))
        out = workload.run(engine, data).astype(np.float64)
        rel = np.abs(out - ref) / np.maximum(np.abs(ref), 1)
        assert rel.mean() < 0.05

    def test_deep_accumulation_compounds_error(self, gemm_data):
        # Documented behaviour: error grows with relax level much faster
        # than for single-shot kernels, because each of the K accumulation
        # steps re-approximates.
        workload, data = gemm_data
        ref = workload.reference(data).astype(np.float64)
        errors = []
        for m in (8, 16, 24):
            engine = APIMEngine(spec=ApproxSpec.last_stage(m))
            out = workload.run(engine, data).astype(np.float64)
            errors.append(
                float(np.mean(np.abs(out - ref) / np.maximum(np.abs(ref), 1)))
            )
        assert errors == sorted(errors)
        assert errors[-1] > 50 * errors[0]

    def test_matrix_side_bounds(self):
        workload = GEMMWorkload()
        assert workload.matrix_side(4) == 8
        assert workload.matrix_side(10**6) == 64

    def test_trace_valid(self):
        count = 0
        for addr, is_write in GEMMWorkload().profile().trace(64):
            assert addr >= 0
            count += 1
            if count > 3000:
                break
        assert count > 0


class TestNeural:
    @pytest.fixture(scope="class")
    def neural_data(self):
        w = NeuralWorkload()
        return w, w.generate(256, np.random.default_rng(5))

    def test_exact_matches_reference(self, neural_data):
        workload, data = neural_data
        engine = APIMEngine()
        out = workload.run(engine, data)
        assert np.array_equal(out, workload.reference(data))

    def test_logit_shape(self, neural_data):
        workload, data = neural_data
        logits = workload.reference(data)
        assert logits.shape == (data.elements, 4)

    def test_decisions_stable_under_moderate_approximation(self, neural_data):
        workload, data = neural_data
        ref = workload.reference(data)
        engine = APIMEngine(spec=ApproxSpec.last_stage(8))
        out = workload.run(engine, data)
        assert workload.decision_flip_rate(ref, out) < 0.02

    def test_decisions_degrade_monotonically(self, neural_data):
        workload, data = neural_data
        ref = workload.reference(data)
        flips = []
        for m in (0, 8, 16):
            engine = APIMEngine(spec=ApproxSpec.last_stage(m))
            out = workload.run(engine, data)
            flips.append(workload.decision_flip_rate(ref, out))
        assert flips[0] == 0.0
        assert all(a <= b + 0.02 for a, b in zip(flips, flips[1:]))

    def test_flip_rate_validates_shapes(self, neural_data):
        workload, data = neural_data
        ref = workload.reference(data)
        with pytest.raises(Exception):
            workload.decision_flip_rate(ref, ref[: len(ref) // 2])

    def test_mac_count_charged(self, neural_data):
        workload, data = neural_data
        engine = APIMEngine()
        workload.run(engine, data)
        expected_macs = data.elements * (16 * 24 + 24 * 4)
        assert engine.mul_count == expected_macs


class TestSimilarity:
    @pytest.fixture(scope="class")
    def sim_data(self):
        w = workload_by_name("Similarity")
        return w, w.generate(1 << 9, np.random.default_rng(13))

    def test_exact_matches_reference(self, sim_data):
        workload, data = sim_data
        engine = APIMEngine()
        out = workload.run(engine, data)
        assert np.array_equal(out, workload.reference(data))

    def test_exact_top_k_is_brute_force(self, sim_data):
        # The served guarantee, asserted at the workload layer: at relax
        # 0 the ranking equals a stable argsort of exact distances.
        workload, data = sim_data
        engine = APIMEngine()
        distances = workload.run(engine, data)
        ids = workload.top_k_ids(distances, k=10)
        ref_ids = workload.top_k_ids(workload.reference(data), k=10)
        assert np.array_equal(ids, ref_ids)

    def test_hamming_cost_charged(self, sim_data):
        workload, data = sim_data
        engine = APIMEngine()
        workload.run(engine, data)
        assert engine.ledger.entry("hamming").nor_ops > 0

    def test_recall_monotone_down_the_ladder(self, sim_data):
        workload, data = sim_data
        ref = workload.reference(data)
        recalls = []
        for m in RELAX_LADDER:
            engine = APIMEngine(spec=ApproxSpec.last_stage(m))
            out = workload.run(engine, data)
            recalls.append(workload.recall_at_k(ref, out, k=10))
        assert recalls[0] == 1.0
        assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))
        assert recalls[-1] < recalls[0]  # the far rung visibly bites
        # Serving QoS floor: >= 0.95 through the first two relax rungs.
        assert recalls[1] >= 0.95 and recalls[2] >= 0.95


class TestQuantizedLayer:
    @pytest.fixture(scope="class")
    def q_data(self):
        w = workload_by_name("QuantizedLayer")
        return w, w.generate(256, np.random.default_rng(21))

    def test_exact_matches_reference(self, q_data):
        workload, data = q_data
        engine = APIMEngine()
        out = workload.run(engine, data)
        assert np.array_equal(out, workload.reference(data))

    def test_flip_rate_zero_exact_and_quasi_monotone(self, q_data):
        workload, data = q_data
        ref = workload.reference(data)
        flips = []
        for m in RELAX_LADDER:
            engine = APIMEngine(spec=ApproxSpec.last_stage(m))
            out = workload.run(engine, data)
            flips.append(workload.decision_flip_rate(ref, out))
        assert flips[0] == 0.0
        assert all(a <= b + 0.02 for a, b in zip(flips, flips[1:]))

    def test_flip_rate_validates_shapes(self, q_data):
        workload, data = q_data
        ref = workload.reference(data)
        with pytest.raises(Exception):
            workload.decision_flip_rate(ref, ref[: len(ref) // 2])


class TestExtensionCampaignGrid:
    def test_new_families_run_the_grid_direct_and_pooled(self):
        """The two PR-8 families are first-class campaign citizens: the
        (workload x relax) grid prices them, and the same grid through a
        CrossbarPool agrees bit-for-bit with the direct run."""
        from repro.runtime.campaign import run_campaign
        from repro.serving.pool import Client, CrossbarPool
        from repro.units import GIB

        workloads = ["Similarity", "QuantizedLayer"]
        levels = [0, 8]
        direct = run_campaign(workloads, levels, tile_elements=1 << 9)
        assert len(direct.points) == 4
        assert all(p.status == "ok" for p in direct.points)
        with CrossbarPool(shards=2, tile_elements=1 << 9) as pool:
            client = Client(pool)
            pooled = [
                client.call(name, relax_bits=level, dataset_bytes=GIB).point
                for name in workloads
                for level in levels
            ]
        assert len(pooled) == len(direct.points)
        by_key = {(p.workload, p.relax_bits): p for p in direct.points}
        for point in pooled:
            twin = by_key[(point.workload, point.relax_bits)]
            assert point.speedup == pytest.approx(twin.speedup, rel=1e-12)
            assert point.qol_percent == pytest.approx(
                twin.qol_percent, rel=1e-12
            )
