"""Unit tests for the approximation mechanisms (repro.core.approximation)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.core.approximation import (
    EXACT,
    ApproxMode,
    ApproxSpec,
    approximate_final_add,
    approximate_sum_bit,
    mask_multiplier,
)
from repro.errors import ApproximationError


class TestApproxSpec:
    def test_exact_constant(self):
        assert (EXACT.masked_bits, EXACT.relax_bits) == (0, 0)
        assert EXACT.mode is ApproxMode.EXACT

    def test_first_stage_factory(self):
        spec = ApproxSpec.first_stage(8)
        assert spec.masked_bits == 8
        assert spec.relax_bits == 0
        assert spec.mode is ApproxMode.FIRST_STAGE

    def test_last_stage_factory(self):
        spec = ApproxSpec.last_stage(16)
        assert spec.relax_bits == 16
        assert spec.mode is ApproxMode.LAST_STAGE

    def test_both_mode(self):
        spec = ApproxSpec(masked_bits=4, relax_bits=8)
        assert spec.mode is ApproxMode.BOTH

    @pytest.mark.parametrize("field", ["masked_bits", "relax_bits"])
    def test_negative_values_rejected(self, field):
        with pytest.raises(ApproximationError):
            ApproxSpec(**{field: -1})

    def test_validate_for_masked_beyond_word(self):
        with pytest.raises(ApproximationError):
            ApproxSpec.first_stage(33).validate_for(32)

    def test_validate_for_relax_beyond_product(self):
        with pytest.raises(ApproximationError):
            ApproxSpec.last_stage(65).validate_for(32)

    def test_validate_accepts_boundaries(self):
        ApproxSpec(masked_bits=32, relax_bits=64).validate_for(32)

    def test_hashable_for_memoisation(self):
        assert len({ApproxSpec.last_stage(4), ApproxSpec.last_stage(4)}) == 1


class TestMaskMultiplier:
    def test_zero_mask_is_identity(self):
        values = np.array([7, 255, 1023], dtype=np.uint64)
        assert np.array_equal(mask_multiplier(values, 0, 32), values)

    def test_masks_low_bits(self):
        assert int(mask_multiplier(0xFF, 4, 8)) == 0xF0

    def test_full_mask_zeroes_value(self):
        assert int(mask_multiplier(0xFF, 8, 8)) == 0

    def test_array_masking(self):
        values = np.array([0b1111, 0b1010, 0b0001], dtype=np.uint64)
        out = mask_multiplier(values, 2, 4)
        assert out.tolist() == [0b1100, 0b1000, 0b0000]

    def test_mask_beyond_width_rejected(self):
        with pytest.raises(ApproximationError):
            mask_multiplier(3, 9, 8)

    def test_masked_value_never_larger(self):
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1 << 32, 200, dtype=np.uint64)
        for bits in (1, 7, 16, 31):
            masked = mask_multiplier(values, bits, 32)
            assert np.all(masked <= values)


class TestApproximateSumBit:
    def test_truth_table_matches_paper(self):
        # S = NOT(Cout) holds in 6/8 cases; fails exactly at (0,0,0), (1,1,1).
        wrong = []
        for a, b, c in itertools.product((0, 1), repeat=3):
            s_approx, cout = approximate_sum_bit(a, b, c)
            exact_sum = a ^ b ^ c
            exact_cout = (a & b) | (b & c) | (c & a)
            assert cout == exact_cout  # carries are always exact
            if s_approx != exact_sum:
                wrong.append((a, b, c))
        assert wrong == [(0, 0, 0), (1, 1, 1)]

    def test_quarter_error_rate_on_random_bits(self):
        # Paper Section 3.4: "25% error (2 out of 8 cases) for random input".
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, (30000, 3))
        wrong = sum(
            approximate_sum_bit(int(a), int(b), int(c))[0] != (a ^ b ^ c)
            for a, b, c in bits
        )
        assert abs(wrong / len(bits) - 0.25) < 0.01

    def test_rejects_non_binary_inputs(self):
        with pytest.raises(ApproximationError):
            approximate_sum_bit(2, 0, 0)


class TestApproximateFinalAdd:
    def _scalar_reference(self, x: int, y: int, width: int, m: int) -> int:
        """Bit-serial reference: exact MAJ carries, S=NOT(C) on m LSBs."""
        carry = 0
        out = 0
        for i in range(width):
            a = (x >> i) & 1
            b = (y >> i) & 1
            s_exact = a ^ b ^ carry
            carry_out = (a & b) | (b & carry) | (carry & a)
            bit = (1 - carry_out) if i < m else s_exact
            out |= bit << i
            carry = carry_out
        out |= carry << width
        return out

    @pytest.mark.parametrize("width", [4, 8, 11])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_matches_bit_serial_reference_exhaustive(self, width, m):
        limit = 1 << (width - 1)  # x + y < 2**width contract
        for x in range(0, limit, max(1, limit // 16)):
            for y in range(0, limit, max(1, limit // 16)):
                got = int(
                    approximate_final_add(
                        np.uint64(x), np.uint64(y), width, m
                    )
                )
                assert got == self._scalar_reference(x, y, width, m)

    def test_exact_when_relax_zero(self):
        rng = np.random.default_rng(5)
        x = rng.integers(0, 1 << 31, 500, dtype=np.uint64)
        y = rng.integers(0, 1 << 31, 500, dtype=np.uint64)
        assert np.array_equal(approximate_final_add(x, y, 32, 0), x + y)

    def test_high_bits_never_corrupted(self):
        rng = np.random.default_rng(6)
        x = rng.integers(0, 1 << 31, 500, dtype=np.uint64)
        y = rng.integers(0, 1 << 31, 500, dtype=np.uint64)
        m = 8
        approx = approximate_final_add(x, y, 32, m)
        mask = ~np.uint64((1 << m) - 1)
        assert np.array_equal(approx & mask, (x + y) & mask)

    def test_error_bounded_by_relaxed_field(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 1 << 30, 1000, dtype=np.uint64)
        y = rng.integers(0, 1 << 30, 1000, dtype=np.uint64)
        for m in (4, 12, 20):
            approx = approximate_final_add(x, y, 31, m)
            diff = np.abs(approx.astype(np.int64) - (x + y).astype(np.int64))
            assert np.all(diff < (1 << m))

    def test_width_64_supported(self):
        x = np.uint64(2**63 - 123)
        y = np.uint64(100)
        assert int(approximate_final_add(x, y, 64, 0)) == 2**63 - 23

    def test_full_relax_width_64(self):
        # Should not raise on the mask edge case.
        out = approximate_final_add(np.uint64(5), np.uint64(3), 64, 64)
        assert int(out) != 0  # the approximation of 5+3 is all-NOT-carries

    @pytest.mark.parametrize("width,m", [(0, 0), (65, 0), (8, 9)])
    def test_rejects_bad_parameters(self, width, m):
        with pytest.raises(ApproximationError):
            approximate_final_add(np.uint64(1), np.uint64(1), width, m)

    def test_zero_plus_zero_relaxed_is_all_ones(self):
        # (0,0,0) is one of the two failing patterns: S = NOT(0) = 1.
        out = int(approximate_final_add(np.uint64(0), np.uint64(0), 8, 8))
        assert out == 0xFF

    @pytest.mark.parametrize("m", [0, 4, 8, 16, 20, 24])
    def test_monte_carlo_error_statistics(self, m):
        """Uniform random 39-bit addends at width 40: a relaxed bit errs
        on 2 of the 8 one-bit patterns (rate 1/4), the errors of the
        two patterns cancel (zero mean) and E|error| sits within a small
        factor of the linearity bound ``sum_i 2^i / 4 = (2^m - 1) / 4``."""
        rng = np.random.default_rng(2017)
        x = rng.integers(0, 1 << 39, 50_000, dtype=np.uint64)
        y = rng.integers(0, 1 << 39, 50_000, dtype=np.uint64)
        approx = approximate_final_add(x, y, 40, m)
        error = approx.astype(np.int64) - (x + y).astype(np.int64)
        mean_abs = np.abs(error).mean()
        if m == 0:
            assert mean_abs == 0.0
            return
        flipped = (approx ^ (x + y)) & np.uint64((1 << m) - 1)
        per_bit_rate = np.bitwise_count(flipped).mean() / m
        assert per_bit_rate == pytest.approx(0.25, abs=0.02)
        bound = (2.0**m - 1.0) / 4.0
        assert bound / 4 < mean_abs <= bound
        if m >= 8:  # at 4 bits the carry-chain bias is ~1/4 of E|error|
            assert abs(error.mean()) < mean_abs / 10
