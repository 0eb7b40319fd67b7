"""Unit tests for the functional adder (repro.core.adder)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adder import APIMAdder
from repro.core.config import APIMConfig
from repro.core.cost import Cost
from repro.core.timing import (
    cost_hybrid_final_add,
    cost_wallace_reduce,
    reduction_stages,
)
from repro.errors import ApproximationError, ConfigurationError


@pytest.fixture
def adder():
    return APIMAdder(APIMConfig())


class TestTwoOperandAdd:
    def test_exact_matches_numpy(self, adder, rng):
        a = rng.integers(0, 1 << 32, 3000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 3000, dtype=np.uint64)
        result = adder.add(a, b)
        assert np.array_equal(result.sums, a + b)

    def test_carry_out_is_preserved(self, adder):
        top = np.uint64((1 << 32) - 1)
        result = adder.add(top, top)
        assert int(result.sums) == 2 * (2**32 - 1)

    def test_relaxed_high_bits_exact(self, adder, rng):
        a = rng.integers(0, 1 << 32, 1000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 1000, dtype=np.uint64)
        m = 12
        result = adder.add(a, b, relax_bits=m)
        mask = ~np.uint64((1 << m) - 1)
        assert np.array_equal(result.sums & mask, (a + b) & mask)

    def test_relaxed_error_bounded(self, adder, rng):
        a = rng.integers(0, 1 << 32, 1000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 1000, dtype=np.uint64)
        result = adder.add(a, b, relax_bits=16)
        exact = a + b
        diff = np.where(
            result.sums >= exact, result.sums - exact, exact - result.sums
        )
        assert np.all(diff < np.uint64(1 << 16))

    def test_custom_width(self, adder):
        result = adder.add(np.uint64(100), np.uint64(200), width=12)
        assert int(result.sums) == 300

    def test_cost_matches_hybrid_formula(self, adder, rng):
        a = rng.integers(0, 1 << 32, 100, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 100, dtype=np.uint64)
        for m in (0, 8, 32):
            result = adder.add(a, b, relax_bits=m)
            assert (
                result.cost.cycles
                == cost_hybrid_final_add(32, m).cycles * 100
            )

    def test_rejects_oversized_operand(self, adder):
        with pytest.raises(ConfigurationError):
            adder.add(np.uint64(1 << 33), np.uint64(0))

    def test_rejects_bad_relax(self, adder):
        with pytest.raises(ApproximationError):
            adder.add(np.uint64(1), np.uint64(1), relax_bits=40)

    def test_rejects_bad_width(self, adder):
        with pytest.raises(ConfigurationError):
            adder.add(np.uint64(1), np.uint64(1), width=64)


class TestMultiOperandAdd:
    @pytest.mark.parametrize("count", [2, 3, 5, 9, 16])
    def test_exact_tree_sum(self, adder, rng, count):
        operands = [
            rng.integers(0, 1 << 30, 200, dtype=np.uint64)
            for _ in range(count)
        ]
        result = adder.add_many(operands, width=32)
        expected = operands[0].copy()
        for op in operands[1:]:
            expected = expected + op
        assert np.array_equal(result.sums, expected)

    def test_single_operand_passthrough(self, adder):
        values = np.array([4, 5, 6], dtype=np.uint64)
        result = adder.add_many([values])
        assert np.array_equal(result.sums, values)
        assert result.cost == Cost()

    def test_cost_includes_reduction_and_final(self, adder):
        operands = [np.uint64(v) for v in range(9)]
        result = adder.add_many(operands, width=16)
        stages = reduction_stages(9)
        expected = (
            cost_wallace_reduce(9, 16).cycles
            + cost_hybrid_final_add(16 + stages - 1, 0).cycles
        )
        assert result.cost.cycles == expected

    def test_relax_applies_to_final_stage(self, adder, rng):
        operands = [
            rng.integers(0, 1 << 20, 500, dtype=np.uint64) for _ in range(5)
        ]
        exact = adder.add_many(operands, width=24)
        relaxed = adder.add_many(operands, relax_bits=10, width=24)
        assert relaxed.cost.cycles < exact.cost.cycles
        diff = np.where(
            relaxed.sums >= exact.sums,
            relaxed.sums - exact.sums,
            exact.sums - relaxed.sums,
        )
        assert np.all(diff < np.uint64(1 << 10))

    def test_empty_rejected(self, adder):
        with pytest.raises(ConfigurationError):
            adder.add_many([])

    def test_large_operand_count(self, adder):
        operands = [np.uint64(1)] * 100
        result = adder.add_many(operands, width=16)
        assert int(result.sums) == 100
