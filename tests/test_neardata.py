"""Tests for the near-data processing (NDP) baseline."""

from __future__ import annotations

import pytest

from repro.baselines.gpu import GPUModel
from repro.baselines.neardata import NDPConfig, NDPModel
from repro.errors import ConfigurationError
from repro.units import GIB, MIB
from repro.workloads import workload_by_name


class TestNDPBaseline:
    @pytest.fixture(scope="class")
    def profile(self):
        return workload_by_name("Robert").profile()

    def test_estimate_positive(self, profile):
        est = NDPModel().estimate(profile, 256 * MIB)
        assert est.time > 0 and est.energy > 0

    def test_no_translation_penalty(self, profile):
        est = NDPModel().estimate(profile, GIB)
        assert "walk_time" not in est.breakdown

    def test_paper_ordering_at_scale(self, profile):
        """Intro's ranking on memory-bound kernels at 1 GB: near-data beats
        the GPU on EDP, and APIM beats near-data."""
        from repro.runtime.comparison import ComparisonHarness

        gpu = GPUModel().estimate(profile, GIB)
        ndp = NDPModel().estimate(profile, GIB)
        assert ndp.edp < gpu.edp
        harness = ComparisonHarness(tile_elements=1 << 11)
        apim_time, apim_energy, _ = harness.apim_estimate(
            workload_by_name("Robert"), GIB
        )
        assert apim_energy * apim_time < ndp.edp

    def test_ndp_pays_static_logic_overhead(self, profile):
        """More logic-layer modules: faster, but the added units burn
        standing power — the paper's energy caveat about near-data."""
        few = NDPModel(NDPConfig(modules=2)).estimate(profile, GIB)
        many = NDPModel(NDPConfig(modules=32)).estimate(profile, GIB)
        assert many.time < few.time
        few_static_share = few.breakdown["e_static"] / few.energy
        many_static_share = many.breakdown["e_static"] / many.energy
        assert many_static_share > few_static_share

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NDPConfig(modules=0)
        with pytest.raises(ConfigurationError):
            NDPConfig(internal_bandwidth_scale=0.5)

