"""Property-based tests (hypothesis) on the core arithmetic invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adder import APIMAdder
from repro.core.approximation import (
    ApproxSpec,
    approximate_final_add,
    approximate_sum_bit,
    mask_multiplier,
)
from repro.core.config import APIMConfig
from repro.core.cost import Cost
from repro.core.engine import APIMEngine
from repro.core.multiplier import APIMMultiplier
from repro.core.timing import cost_multiply, hybrid_final_add_cycles
from repro.core.wallace import csa_step, reduce_to_two

word16 = st.integers(min_value=0, max_value=(1 << 16) - 1)
word32 = st.integers(min_value=0, max_value=(1 << 32) - 1)


class TestCarrySaveInvariants:
    @given(word32, word32, word32)
    def test_csa_preserves_sums(self, a, b, c):
        s, cy = csa_step(np.uint64(a), np.uint64(b), np.uint64(c))
        assert int(s) + int(cy) == a + b + c

    @given(st.lists(word32, min_size=1, max_size=24))
    def test_reduction_preserves_sums(self, values):
        x, y = reduce_to_two([np.uint64(v) for v in values])
        assert int(x) + int(y) == sum(values)


class TestApproximateAddInvariants:
    @given(word32, word32, st.integers(min_value=0, max_value=32))
    def test_error_confined_to_relaxed_field(self, x, y, m):
        out = int(approximate_final_add(np.uint64(x), np.uint64(y), 33, m))
        exact = x + y
        assert out >> m == exact >> m

    @given(word32, word32)
    def test_zero_relax_is_exact(self, x, y):
        assert int(
            approximate_final_add(np.uint64(x), np.uint64(y), 33, 0)
        ) == x + y

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    def test_sum_bit_carry_always_exact(self, a, b, c):
        _, cout = approximate_sum_bit(a, b, c)
        assert cout == (a & b) | (b & c) | (c & a)


class TestMaskingInvariants:
    @given(word32, st.integers(min_value=0, max_value=32))
    def test_mask_clears_exactly_low_bits(self, value, bits):
        masked = int(mask_multiplier(value, bits, 32))
        assert masked == (value >> bits) << bits

    @given(word32, st.integers(min_value=0, max_value=31))
    def test_mask_monotone_in_bits(self, value, bits):
        assert int(mask_multiplier(value, bits + 1, 32)) <= int(
            mask_multiplier(value, bits, 32)
        )


class TestMultiplierInvariants:
    @settings(max_examples=40, deadline=None)
    @given(word16, word16)
    def test_exact_multiply_matches_python(self, a, b):
        mult = APIMMultiplier(APIMConfig(word_bits=16))
        product, _ = mult.multiply_scalar(a, b)
        assert product == a * b

    @settings(max_examples=40, deadline=None)
    @given(word16, word16, st.integers(min_value=0, max_value=32))
    def test_approx_product_high_bits_exact(self, a, b, m):
        mult = APIMMultiplier(APIMConfig(word_bits=16))
        product, _ = mult.multiply_scalar(a, b, ApproxSpec.last_stage(m))
        assert product >> m == (a * b) >> m

    @settings(max_examples=40, deadline=None)
    @given(word16, st.integers(min_value=0, max_value=16))
    def test_cost_monotone_in_popcount(self, b, relax):
        # More set multiplier bits never cost fewer cycles.
        n = 16
        costs = [cost_multiply(n, c, relax).cycles for c in range(n + 1)]
        assert costs == sorted(costs)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=64),
    )
    def test_hybrid_cycles_within_bounds(self, width, relax):
        if relax > width:
            relax = width
        cycles = hybrid_final_add_cycles(width, relax)
        assert 2 * width + 1 <= cycles <= 13 * width + 1


class TestEngineInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(1 << 24), max_value=1 << 24),
            min_size=1,
            max_size=50,
        )
    )
    def test_signed_multiply_matches_numpy(self, values):
        engine = APIMEngine()
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(engine.mul(arr, arr[::-1]), arr * arr[::-1])

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-(1 << 30), max_value=1 << 30),
            min_size=1,
            max_size=50,
        )
    )
    def test_signed_add_matches_numpy(self, values):
        engine = APIMEngine()
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(engine.add(arr, arr[::-1], width=40),
                              arr + arr[::-1])

    @settings(max_examples=30, deadline=None)
    @given(word32, word32, st.integers(min_value=0, max_value=32))
    def test_adder_error_bound(self, a, b, m):
        adder = APIMAdder()
        result = adder.add(np.uint64(a), np.uint64(b), relax_bits=m)
        assert int(result.sums) >> m == (a + b) >> m


class TestCostAlgebraInvariants:
    cost_strategy = st.builds(
        Cost,
        cycles=st.integers(min_value=0, max_value=10**6),
        nor_ops=st.integers(min_value=0, max_value=10**6),
        cell_writes=st.integers(min_value=0, max_value=10**6),
        sa_reads=st.integers(min_value=0, max_value=10**6),
        maj_ops=st.integers(min_value=0, max_value=10**6),
        interconnect_bits=st.integers(min_value=0, max_value=10**6),
    )

    @given(cost_strategy, cost_strategy)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(cost_strategy, st.integers(min_value=0, max_value=1000))
    def test_scaling_distributes_over_addition(self, cost, k):
        assert cost.scaled(k) + cost.scaled(k) == cost.scaled(2 * k)

    @given(cost_strategy)
    def test_energy_non_negative(self, cost):
        config = APIMConfig()
        assert cost.energy(config) >= 0
