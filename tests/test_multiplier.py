"""Unit tests for the functional multiplier (repro.core.multiplier)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approximation import ApproxSpec
from repro.core.config import APIMConfig
from repro.core.multiplier import APIMMultiplier, popcount
from repro.core.timing import cost_multiply
from repro.errors import ConfigurationError


@pytest.fixture
def mult32():
    return APIMMultiplier(APIMConfig(word_bits=32))


class TestPopcount:
    def test_known_values(self):
        values = np.array([0, 1, 3, 255, 2**32 - 1], dtype=np.uint64)
        assert popcount(values).tolist() == [0, 1, 2, 8, 32]


class TestExactMultiply:
    def test_matches_numpy_product(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 5000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 5000, dtype=np.uint64)
        result = mult32.multiply(a, b)
        assert np.array_equal(result.products, a * b)

    def test_full_range_corners(self, mult32):
        top = np.uint64(2**32 - 1)
        result = mult32.multiply(top, top)
        assert int(result.products) == (2**32 - 1) ** 2

    def test_zero_operands(self, mult32):
        assert int(mult32.multiply(0, 12345).products) == 0
        assert int(mult32.multiply(12345, 0).products) == 0

    def test_scalar_matches_vector(self, multiplier8):
        for a, b in [(3, 7), (255, 255), (128, 64), (0, 9)]:
            scalar, _ = multiplier8.multiply_scalar(a, b)
            vector = int(multiplier8.multiply(a, b).products)
            assert scalar == vector == a * b

    def test_exact_reference_helper(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 100, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 100, dtype=np.uint64)
        assert np.array_equal(mult32.exact_reference(a, b), a * b)


class TestApproximateMultiply:
    def test_relax_error_monotone(self, mult32, rng):
        a = rng.integers(1, 1 << 32, 4000, dtype=np.uint64)
        b = rng.integers(1, 1 << 32, 4000, dtype=np.uint64)
        ref = (a * b).astype(np.float64)
        errors = []
        for m in (0, 8, 16, 24, 32, 48):
            out = mult32.multiply(a, b, ApproxSpec.last_stage(m)).products
            errors.append(
                float(np.mean(np.abs(out.astype(np.float64) - ref) / ref))
            )
        assert errors[0] == 0.0
        assert errors == sorted(errors)

    def test_relax_error_bounded_by_field(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        for m in (8, 16, 32):
            out = mult32.multiply(a, b, ApproxSpec.last_stage(m)).products
            exact = a * b
            # Exact integer |difference| — float64 cannot represent 2^63-
            # scale products and would fabricate errors of ~2^11.
            diff = np.where(out >= exact, out - exact, exact - out)
            assert np.all(diff < np.uint64(1) << np.uint64(m))

    def test_masking_matches_masked_exact_product(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 2000, dtype=np.uint64)
        for f in (4, 16, 31):
            out = mult32.multiply(a, b, ApproxSpec.first_stage(f)).products
            mask = np.uint64((1 << 32) - (1 << f))
            assert np.array_equal(out, a * (b & mask))

    def test_trivial_popcount_bypasses_final_stage(self, multiplier8):
        # Multipliers with <= 1 set bit never enter the final stage, so the
        # relax approximation must not corrupt them.
        spec = ApproxSpec.last_stage(8)
        for b in (0, 1, 2, 64, 128):
            product, _ = multiplier8.multiply_scalar(200, b, spec)
            assert product == 200 * b
        a = np.full(5, 200, dtype=np.uint64)
        b = np.array([0, 1, 2, 64, 128], dtype=np.uint64)
        out = multiplier8.multiply(a, b, spec).products
        assert np.array_equal(out, a * b)

    def test_scalar_and_vector_error_statistics_agree(self, multiplier8, rng):
        # Zero-row grouping differs between the paths, so individual values
        # may differ; the error *distribution* must not (tolerance: 3 sigma).
        a = rng.integers(0, 256, 4000, dtype=np.uint64)
        b = rng.integers(0, 256, 4000, dtype=np.uint64)
        spec = ApproxSpec.last_stage(8)
        vec = multiplier8.multiply(a, b, spec).products
        scal = np.array(
            [
                multiplier8.multiply_scalar(int(x), int(y), spec)[0]
                for x, y in zip(a, b)
            ],
            dtype=np.uint64,
        )
        ref = (a * b).astype(np.float64)
        err_vec = np.abs(vec.astype(np.float64) - ref).mean()
        err_scal = np.abs(scal.astype(np.float64) - ref).mean()
        # Same order of magnitude: the grouping difference shifts which
        # carry patterns occur, but both stay within the 2**m error field.
        assert err_vec == pytest.approx(err_scal, rel=0.6)
        assert np.abs(vec.astype(np.float64) - ref).max() < 2.0**8
        assert np.abs(scal.astype(np.float64) - ref).max() < 2.0**8


class TestMultiplyCostAccounting:
    def test_array_cost_equals_sum_of_scalar_costs(self, multiplier8, rng):
        a = rng.integers(0, 256, 200, dtype=np.uint64)
        b = rng.integers(0, 256, 200, dtype=np.uint64)
        array_cost = multiplier8.multiply(a, b).cost
        total_cycles = sum(
            cost_multiply(8, bin(int(x)).count("1")).cycles for x in b
        )
        assert array_cost.cycles == total_cycles

    def test_cost_depends_on_multiplier_not_multiplicand(self, multiplier8):
        c1 = multiplier8.multiply(255, 15).cost
        c2 = multiplier8.multiply(1, 15).cost
        assert c1.cycles == c2.cycles

    def test_masking_reduces_cost(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 500, dtype=np.uint64)
        b = rng.integers(0, 1 << 32, 500, dtype=np.uint64)
        exact = mult32.multiply(a, b).cost
        masked = mult32.multiply(a, b, ApproxSpec.first_stage(16)).cost
        assert masked.cycles < exact.cycles
        assert masked.nor_ops < exact.nor_ops

    def test_relax_reduces_cost(self, mult32, rng):
        a = rng.integers(0, 1 << 32, 500, dtype=np.uint64)
        b = rng.integers(1 << 16, 1 << 32, 500, dtype=np.uint64)
        exact = mult32.multiply(a, b).cost
        relaxed = mult32.multiply(a, b, ApproxSpec.last_stage(32)).cost
        assert relaxed.cycles < exact.cycles


class TestOperandValidation:
    def test_rejects_oversized_operand(self, multiplier8):
        with pytest.raises(ConfigurationError):
            multiplier8.multiply(np.uint64(256), np.uint64(1))

    def test_rejects_oversized_scalar(self, multiplier8):
        with pytest.raises(ConfigurationError):
            multiplier8.multiply_scalar(1, 300)

    def test_rejects_negative_scalar(self, multiplier8):
        with pytest.raises(ConfigurationError):
            multiplier8.multiply_scalar(-1, 3)

    def test_rejects_word_bits_above_32(self):
        with pytest.raises(ConfigurationError):
            APIMMultiplier(APIMConfig(word_bits=40))
