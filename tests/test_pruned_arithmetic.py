"""The pruned functional arithmetic equals its full-row references.

``APIMMultiplier.multiply`` takes the exact product from one ``uint64``
multiply and reduces only the partial-product rows (and bits) its relaxed
final add reads; ``APIMAdder.add_many`` reduces nothing when no bit is
relaxed.  The references below are the full forms: every one of the N
partial-product rows through ``reduce_partial_products_vectorised`` at full
width, the survivors through ``approximate_final_add``, and the cost as
the per-popcount sum of ``cost_multiply`` ``Cost`` objects.  Products and
costs must agree bit for bit, including dtype and shape.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adder import APIMAdder
from repro.core.approximation import (
    ApproxSpec,
    approximate_final_add,
    mask_multiplier,
)
from repro.core.config import APIMConfig
from repro.core.cost import Cost
from repro.core.multiplier import APIMMultiplier, popcount
from repro.core.timing import (
    cost_hybrid_final_add,
    cost_multiply,
    cost_wallace_reduce,
    reduction_stages,
)
from repro.core.wallace import reduce_partial_products_vectorised, reduce_to_two

#: Operand shape pairs: scalars, scalar x array, array x scalar, 1-D and
#: broadcasting 2-D operands.
SHAPES = [
    ((), ()),
    ((), (7,)),
    ((7,), ()),
    ((9,), (9,)),
    ((3, 4), (3, 4)),
    ((3, 1), (1, 4)),
]

#: Multiplier families: dense random, all zero, one set bit per element,
#: one bit shared by every element, and sparse (few live rows).
MULTIPLIERS = ["random", "zero", "one_bit", "shared_bit", "sparse"]


def reference_multiply(n: int, a, b, spec: ApproxSpec):
    """The full-row model: all N rows at full width, the cost summed as
    one ``Cost`` per popcount."""
    av = np.asarray(a, dtype=np.uint64)
    b_eff = mask_multiplier(np.asarray(b, dtype=np.uint64), spec.masked_bits, n)
    x, y = reduce_partial_products_vectorised(av, b_eff, n)
    products = approximate_final_add(x, y, 2 * n, spec.relax_bits)
    counts = popcount(b_eff)
    if spec.relax_bits:
        trivial = counts <= 1
        if np.any(trivial):
            products = np.where(trivial, av * b_eff, products)
    histogram = np.bincount(counts.ravel().astype(np.int64), minlength=n + 1)
    cost = Cost()
    for set_bits, occurrences in enumerate(histogram):
        if occurrences:
            cost += cost_multiply(n, set_bits, spec.relax_bits).scaled(
                int(occurrences)
            )
    return products, cost


def reference_add_many(operands, relax_bits: int, width: int):
    """The full reduction: both survivors through ``approximate_final_add``."""
    arrays = [np.asarray(op, dtype=np.uint64) for op in operands]
    count = int(np.broadcast(*arrays[:32]).size) if len(arrays) > 1 else int(
        arrays[0].size
    )
    if len(arrays) == 1:
        return arrays[0].copy(), Cost()
    x, y = reduce_to_two(arrays)
    stages = reduction_stages(len(arrays))
    final_width = min(width + max(stages - 1, 0) + 1, 64)
    sums = approximate_final_add(x, y, final_width, min(relax_bits, final_width))
    per_element = Cost()
    if stages:
        per_element += cost_wallace_reduce(len(arrays), width)
    per_element += cost_hybrid_final_add(
        final_width - 1, min(relax_bits, final_width - 1)
    )
    return sums, per_element.scaled(count)


def _multiplier_values(rng, kind: str, n: int, shape) -> np.ndarray:
    if kind == "zero":
        return np.zeros(shape, dtype=np.uint64)
    if kind == "one_bit":
        return np.uint64(1) << rng.integers(0, n, shape, dtype=np.uint64)
    if kind == "shared_bit":
        return np.full(shape, 1 << int(rng.integers(0, n)), dtype=np.uint64)
    values = rng.integers(0, 1 << n, shape, dtype=np.uint64)
    if kind == "sparse":
        for _ in range(2):
            values &= rng.integers(0, 1 << n, shape, dtype=np.uint64)
    return values


def _as_given(values: np.ndarray):
    """0-d operands are passed as Python ints, the way callers pass them."""
    return int(values) if values.ndim == 0 else values


@st.composite
def multiply_cases(draw):
    n = draw(st.integers(1, 32))
    masked = draw(st.integers(0, n))
    relax = draw(st.one_of(st.integers(0, 2 * n), st.sampled_from([2 * n, 2 * n - 1])))
    shape_a, shape_b = draw(st.sampled_from(SHAPES))
    kind = draw(st.sampled_from(MULTIPLIERS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.integers(0, 1 << n, shape_a, dtype=np.uint64)
    b = _multiplier_values(rng, kind, n, shape_b)
    return n, ApproxSpec(masked_bits=masked, relax_bits=relax), a, b


def _assert_same_multiply(n, spec, a, b):
    result = APIMMultiplier(APIMConfig(word_bits=n)).multiply(
        _as_given(a), _as_given(b), spec
    )
    products, cost = reference_multiply(n, a, b, spec)
    assert type(result.products) is type(products)
    assert np.asarray(result.products).dtype == np.uint64
    assert np.shape(result.products) == np.shape(products)
    assert np.array_equal(result.products, products)
    assert result.cost == cost
    assert all(type(v) is float for v in vars(result.cost).values())


class TestPrunedMultiply:
    @settings(max_examples=250, deadline=None)
    @given(multiply_cases())
    def test_matches_full_row_reference(self, case):
        _assert_same_multiply(*case)

    @pytest.mark.parametrize("relax", [31, 32, 33, 62, 63, 64])
    @pytest.mark.parametrize("kind", MULTIPLIERS)
    def test_widest_relax_settings(self, relax, kind):
        rng = np.random.default_rng(relax)
        a = rng.integers(0, 1 << 32, 257, dtype=np.uint64)
        a[:2] = (0, (1 << 32) - 1)
        b = _multiplier_values(rng, kind, 32, 257)
        _assert_same_multiply(32, ApproxSpec(relax_bits=relax), a, b)

    def test_serve_sized_multiplier_has_few_live_rows(self):
        # The shape the pruning is for: 15 live multiplier bits, relax 32.
        rng = np.random.default_rng(5)
        a = rng.integers(0, 1 << 32, 4096, dtype=np.uint64)
        b = rng.integers(0, 1 << 15, 4096, dtype=np.uint64)
        _assert_same_multiply(32, ApproxSpec(relax_bits=32), a, b)


@st.composite
def add_many_cases(draw):
    width = draw(st.integers(1, 64))
    count = draw(st.integers(1, 40))
    relax = draw(st.integers(0, 66))
    shape = draw(st.sampled_from([(), (6,), (2, 3)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    high = 1 << width
    operands = [
        rng.integers(0, high, shape, dtype=np.uint64, endpoint=False)
        if high <= 1 << 63
        else rng.integers(0, 1 << 63, shape, dtype=np.uint64) * np.uint64(2)
        + rng.integers(0, 2, shape, dtype=np.uint64)
        for _ in range(count)
    ]
    return operands, relax, width


class TestPrunedAddMany:
    @settings(max_examples=150, deadline=None)
    @given(add_many_cases())
    @example(([np.full(3, (1 << 58) - 1, dtype=np.uint64)] * 40, 0, 58))
    def test_matches_full_reduction(self, case):
        operands, relax, width = case
        with np.errstate(over="ignore"):
            result = APIMAdder(APIMConfig()).add_many(
                [_as_given(op) for op in operands], relax_bits=relax, width=width
            )
            sums, cost = reference_add_many(operands, relax, width)
        assert np.asarray(result.sums).dtype == np.uint64
        assert np.shape(result.sums) == np.shape(sums)
        assert np.array_equal(result.sums, sums)
        assert result.cost == cost


class TestKnownZeroReduction:
    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.one_of(st.none(), st.integers(0, 2**40)), min_size=1, max_size=40
        )
    )
    def test_known_zeros_equal_literal_zeros(self, values):
        pruned = reduce_to_two([None if v is None else np.uint64(v) for v in values])
        full = reduce_to_two([np.uint64(0 if v is None else v) for v in values])
        for got, want in zip(pruned, full):
            assert int(0 if got is None else got) == int(want)

    def test_all_known_zeros_give_known_zero_survivors(self):
        assert reduce_to_two([None] * 5) == (None, None)
        assert reduce_to_two([None]) == (None, None)


def test_cost_matrix_entries_are_exact_integers():
    """The cost dot product is exact in any summation order only because
    every per-popcount cost is an integer far below 2**53."""
    for n in range(1, 33):
        for relax in sorted({0, 1, n - 1, n, n + 1, 2 * n - 1, 2 * n}):
            for set_bits in range(n + 1):
                for value in vars(cost_multiply(n, set_bits, relax)).values():
                    assert value == int(value) and 0 <= value < 1 << 20
