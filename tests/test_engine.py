"""Unit tests for the signed array engine (repro.core.engine)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approximation import ApproxSpec
from repro.core.config import APIMConfig
from repro.core.cost import Cost
from repro.core.engine import APIMEngine
from repro.errors import ConfigurationError


class TestSignedMultiply:
    def test_matches_numpy_all_sign_combinations(self, engine, rng):
        a = rng.integers(-(1 << 28), 1 << 28, 3000)
        b = rng.integers(-(1 << 28), 1 << 28, 3000)
        assert np.array_equal(engine.mul(a, b), a * b)

    def test_scalar_broadcast(self, engine):
        values = np.array([-3, 0, 7])
        assert np.array_equal(engine.mul(values, 5), values * 5)

    def test_approximation_acts_on_magnitudes(self, rng):
        engine = APIMEngine(spec=ApproxSpec.last_stage(16))
        a = rng.integers(-(1 << 30), 1 << 30, 2000)
        b = rng.integers(-(1 << 30), 1 << 30, 2000)
        out = engine.mul(a, b)
        exact = a * b
        assert np.all(np.sign(out) == np.sign(exact))
        assert np.all(np.abs(out - exact) < (1 << 16))

    def test_per_call_spec_override(self, engine):
        a = np.full(100, (1 << 30) + 12345)
        out_exact = engine.mul(a, a)
        out_approx = engine.mul(a, a, spec=ApproxSpec.last_stage(32))
        assert np.array_equal(out_exact, a * a)
        assert not np.array_equal(out_approx, a * a)

    def test_rejects_out_of_range(self, engine):
        with pytest.raises(ConfigurationError):
            engine.mul(np.int64(1 << 31), 1)


class TestSignedAdd:
    def test_matches_numpy(self, engine, rng):
        a = rng.integers(-(1 << 30), 1 << 30, 3000)
        b = rng.integers(-(1 << 30), 1 << 30, 3000)
        assert np.array_equal(engine.add(a, b, width=40), a + b)

    def test_sub_matches_numpy(self, engine, rng):
        a = rng.integers(-(1 << 30), 1 << 30, 3000)
        b = rng.integers(-(1 << 30), 1 << 30, 3000)
        assert np.array_equal(engine.sub(a, b, width=40), a - b)

    def test_wide_accumulator(self, engine):
        big = np.int64(1 << 50)
        assert int(engine.add(big, big, width=60)) == 2 * int(big)

    def test_relaxed_add_error_bounded(self, rng):
        engine = APIMEngine(spec=ApproxSpec.last_stage(12))
        a = rng.integers(0, 1 << 40, 2000)
        b = rng.integers(0, 1 << 40, 2000)
        out = engine.add(a, b, width=48)
        assert np.all(np.abs(out - (a + b)) < (1 << 12))

    def test_negative_sums_wrap_correctly(self, engine):
        a = np.array([-5, -100, 3])
        b = np.array([2, -100, -10])
        assert np.array_equal(engine.add(a, b), a + b)

    def test_rejects_width_out_of_range(self, engine):
        with pytest.raises(ConfigurationError):
            engine.add(1, 1, width=63)

    def test_rejects_value_beyond_width(self, engine):
        with pytest.raises(ConfigurationError):
            engine.add(np.int64(1 << 20), 0, width=20)


class TestSumMany:
    def test_matches_numpy(self, engine, rng):
        operands = [rng.integers(-(1 << 20), 1 << 20, 500) for _ in range(7)]
        expected = sum(operands[1:], operands[0].copy())
        assert np.array_equal(engine.sum_many(operands, width=40), expected)

    def test_counts_operations(self, engine):
        engine.sum_many([np.arange(10)] * 4, width=32)
        assert engine.add_count == 30  # (4 - 1) adds x 10 elements

    def test_empty_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.sum_many([])


class TestShifts:
    def test_shift_right_arithmetic(self, engine):
        values = np.array([-8, 8, -7])
        assert np.array_equal(engine.shift_right(values, 2), values >> 2)

    def test_shift_left(self, engine):
        values = np.array([3, -3])
        assert np.array_equal(engine.shift_left(values, 4), values << 4)

    def test_zero_shift_free(self, engine):
        engine.shift_right(np.arange(10), 0)
        assert engine.total_cost == Cost()

    def test_shift_charges_energy_not_cycles(self, engine):
        engine.shift_right(np.arange(10), 3)
        cost = engine.total_cost
        assert cost.cycles == 0
        assert cost.interconnect_bits > 0

    def test_shift_left_overflow_guard(self, engine):
        with pytest.raises(ConfigurationError):
            engine.shift_left(np.int64(1 << 50), 15)

    def test_negative_shift_rejected(self, engine):
        with pytest.raises(ConfigurationError):
            engine.shift_right(np.arange(3), -1)


class TestLedgerAndCounters:
    def test_multiply_charged_to_ledger(self, engine):
        engine.mul(np.arange(100), np.arange(100))
        assert engine.ledger.entry("multiply").cycles > 0
        assert engine.mul_count == 100

    def test_add_charged_to_ledger(self, engine):
        engine.add(np.arange(50), np.arange(50))
        assert engine.ledger.entry("add").cycles > 0
        assert engine.add_count == 50

    def test_reset_clears_everything(self, engine):
        engine.mul(np.arange(10), np.arange(10))
        engine.reset()
        assert engine.total_cost == Cost()
        assert engine.mul_count == 0
        assert engine.add_count == 0

    def test_approximate_mode_cheaper_than_exact(self, rng):
        a = rng.integers(1 << 20, 1 << 30, 1000)
        b = rng.integers(1 << 20, 1 << 30, 1000)
        exact = APIMEngine()
        exact.mul(a, b)
        approx = APIMEngine(spec=ApproxSpec.last_stage(32))
        approx.mul(a, b)
        assert approx.total_cost.cycles < exact.total_cost.cycles

    def test_engine_respects_custom_config(self):
        config = APIMConfig(word_bits=16)
        engine = APIMEngine(config)
        out = engine.mul(np.int64(30000), np.int64(2))
        assert int(out) == 60000
        with pytest.raises(ConfigurationError):
            engine.mul(np.int64(1 << 20), 1)
