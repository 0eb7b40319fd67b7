"""Unit tests for the architecture configuration (repro.core.config)."""

from __future__ import annotations

import pytest

from repro.core.config import APIMConfig, default_config
from repro.errors import ConfigurationError
from repro.units import GIB, MIB, NS


class TestDefaults:
    def test_paper_cycle_time(self, config):
        assert config.cycle_time == pytest.approx(1.1 * NS)

    def test_paper_sa_timings(self, config):
        # Paper Section 3.4: 0.3 ns read, 0.6 ns majority.
        assert config.sa_read_time == pytest.approx(0.3 * NS)
        assert config.maj_time == pytest.approx(0.6 * NS)

    def test_paper_device_resistances(self, config):
        assert config.r_on == pytest.approx(10e3)
        assert config.r_off == pytest.approx(10e6)

    def test_default_word_width_32(self, config):
        assert config.word_bits == 32

    def test_default_config_helper(self):
        assert default_config() == APIMConfig()


class TestDerivedQuantities:
    def test_block_capacity(self, config):
        assert config.block_bits == 1024 * 1024
        assert config.block_bytes == 128 * 1024

    def test_blocks_for_exact_multiple(self, config):
        assert config.blocks_for(config.block_bytes * 5) == 5

    def test_blocks_for_rounds_up(self, config):
        assert config.blocks_for(config.block_bytes + 1) == 2

    def test_blocks_for_tiny_dataset(self, config):
        assert config.blocks_for(1) == 1

    def test_blocks_for_one_gib(self, config):
        assert config.blocks_for(GIB) == 8192

    def test_blocks_for_rejects_non_positive(self, config):
        with pytest.raises(ConfigurationError):
            config.blocks_for(0)

    def test_lanes_scale_with_dataset(self, config):
        assert config.parallel_lanes(GIB) > config.parallel_lanes(32 * MIB)

    def test_lanes_formula(self, config):
        blocks = config.blocks_for(GIB)
        processing = int(blocks * config.processing_block_fraction)
        per_block = config.block_rows // config.mult_rows_per_lane
        assert config.parallel_lanes(GIB) == processing * per_block

    def test_lanes_for_ten_million_words(self, config):
        """10^7 32-bit words fill 306 blocks (rounded up); half of them
        process, and each holds 1024 // 192 = 5 multiplication lanes."""
        dataset_bytes = 10**7 * 4
        assert config.blocks_for(dataset_bytes) == 306
        assert config.parallel_lanes(dataset_bytes) == 153 * 5

    def test_lanes_at_least_one(self):
        tiny = APIMConfig(mult_rows_per_lane=4096, block_rows=1024)
        assert tiny.parallel_lanes(100) >= 1


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "cycle_time",
            "sa_read_time",
            "maj_time",
            "v0",
            "word_bits",
            "block_rows",
            "block_cols",
            "mult_rows_per_lane",
        ],
    )
    def test_positive_fields(self, field):
        with pytest.raises(ConfigurationError):
            APIMConfig(**{field: 0})

    @pytest.mark.parametrize(
        "field",
        ["e_nor", "e_write", "e_sa_read", "e_maj", "e_interconnect",
         "e_peripheral", "p_static_per_block"],
    )
    def test_non_negative_energies(self, field):
        APIMConfig(**{field: 0.0})  # zero allowed
        with pytest.raises(ConfigurationError):
            APIMConfig(**{field: -1e-15})

    def test_resistance_ordering(self):
        with pytest.raises(ConfigurationError):
            APIMConfig(r_on=1e7, r_off=1e4)

    def test_processing_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            APIMConfig(processing_block_fraction=0.0)
        with pytest.raises(ConfigurationError):
            APIMConfig(processing_block_fraction=1.5)
        APIMConfig(processing_block_fraction=1.0)

    def test_word_bits_cap(self):
        with pytest.raises(ConfigurationError):
            APIMConfig(word_bits=65)


class TestOverrides:
    def test_with_overrides_returns_new_instance(self, config):
        other = config.with_overrides(word_bits=16)
        assert other.word_bits == 16
        assert config.word_bits == 32

    def test_with_overrides_validates(self, config):
        with pytest.raises(ConfigurationError):
            config.with_overrides(cycle_time=-1.0)

    def test_frozen(self, config):
        with pytest.raises(AttributeError):
            config.word_bits = 8  # type: ignore[misc]
