"""Structural vs functional cross-validation (DESIGN.md Section 5).

The repository keeps two implementations of APIM arithmetic: the structural
micro-op simulator on actual crossbar state, and the vectorised functional
model with closed-form cost formulas.  These tests assert they agree —
bit-exactly on values, and exactly on cycles and micro-event counters —
for exact, last-stage-approximate and first-stage-masked multiplication.
"""

from __future__ import annotations

import random

import pytest

from repro.core.approximation import ApproxSpec
from repro.core.config import APIMConfig
from repro.core.multiplier import APIMMultiplier
from repro.crossbar.structural_multiplier import StructuralMultiplier

WIDTHS = (4, 8, 12)


@pytest.fixture(scope="module")
def models():
    return {
        n: (
            StructuralMultiplier(n, rows=60 + n * 25),
            APIMMultiplier(APIMConfig(word_bits=n)),
        )
        for n in WIDTHS
    }


def _pairs(n: int, count: int, seed: int):
    rnd = random.Random(seed)
    return [(rnd.randrange(1 << n), rnd.randrange(1 << n)) for _ in range(count)]


@pytest.mark.parametrize("n", WIDTHS)
class TestExactEquivalence:
    def test_values_and_costs_match(self, models, n):
        structural, functional = models[n]
        for a, b in _pairs(n, 15, seed=n):
            sp, sc = structural.multiply(a, b)
            fp, fc = functional.multiply_scalar(a, b)
            assert sp == fp == a * b
            assert sc.cycles == fc.cycles, (a, b)
            assert sc.nor_ops == fc.nor_ops, (a, b)
            assert sc.sa_reads == fc.sa_reads
            assert sc.maj_ops == fc.maj_ops
            assert sc.cell_writes == fc.cell_writes
            assert sc.interconnect_bits == fc.interconnect_bits


@pytest.mark.parametrize("n", WIDTHS)
class TestLastStageEquivalence:
    def test_approximate_values_bitwise_identical(self, models, n):
        structural, functional = models[n]
        for m in (2, n, 2 * n - 1, 2 * n):
            spec = ApproxSpec.last_stage(m)
            for a, b in _pairs(n, 8, seed=n * 100 + m):
                sp, sc = structural.multiply(a, b, spec)
                fp, fc = functional.multiply_scalar(a, b, spec)
                assert sp == fp, (a, b, m)
                assert sc.cycles == fc.cycles, (a, b, m)
                assert sc.maj_ops == fc.maj_ops
                assert sc.nor_ops == fc.nor_ops


@pytest.mark.parametrize("n", WIDTHS)
class TestFirstStageEquivalence:
    def test_masked_values_identical(self, models, n):
        structural, functional = models[n]
        for f in (1, n // 2, n - 1):
            spec = ApproxSpec.first_stage(f)
            for a, b in _pairs(n, 6, seed=n * 9 + f):
                sp, sc = structural.multiply(a, b, spec)
                fp, fc = functional.multiply_scalar(a, b, spec)
                masked = b & ~((1 << f) - 1)
                assert sp == fp == a * masked
                assert sc.cycles == fc.cycles


class TestSerialAdderEquivalence:
    def test_structural_serial_add_matches_cost_formula(self, vteam):
        from repro.core.timing import NOR_OPS_PER_FA, serial_add_cycles
        from repro.crossbar.block import BlockedCrossbar
        from repro.crossbar.structural_adder import RowPool, StructuralAdder

        fabric = BlockedCrossbar(2, 64, 20, vteam)
        adder = StructuralAdder(fabric)
        pool = RowPool(64, reserved=[0, 1, 2])
        rnd = random.Random(1)
        for _ in range(10):
            a, b = rnd.randrange(256), rnd.randrange(256)
            fabric.block(0).clear()
            fabric.write_word(0, 0, a, 8)
            fabric.write_word(0, 1, b, 8)
            before = fabric.total_cost
            adder.serial_add(0, 0, 1, 2, 8, pool)
            after = fabric.total_cost
            assert after.cycles - before.cycles == serial_add_cycles(8)
            assert after.nor_ops - before.nor_ops == NOR_OPS_PER_FA * 8
            assert fabric.read_word(0, 2, 9) == a + b


class TestFastMultiAddEquivalence:
    """The standalone fast adder: structural micro-ops vs the functional
    add_many cost model, cycles pinned exactly."""

    @pytest.mark.parametrize("count", [3, 5, 9, 12])
    def test_cycles_and_values_match(self, vteam, count):
        import numpy as np

        from repro.core.adder import APIMAdder
        from repro.core.config import APIMConfig
        from repro.crossbar.block import BlockedCrossbar
        from repro.crossbar.structural_adder import RowPool, StructuralAdder

        width = 8
        fabric = BlockedCrossbar(2, 240, 32, vteam)
        adder = StructuralAdder(fabric)
        pools = {0: RowPool(240), 1: RowPool(240)}
        rng = np.random.default_rng(count)
        values = [int(v) for v in rng.integers(0, 1 << (width - 1), count)]
        rows = pools[0].alloc(count)
        for row, value in zip(rows, values):
            fabric.write_word(0, row, value, width)
        before = fabric.total_cost.cycles
        block, row = adder.fast_multi_add(0, 1, rows, width, pools)
        structural_cycles = fabric.total_cost.cycles - before
        assert fabric.read_word(block, row, width + 6) == sum(values)

        functional = APIMAdder(APIMConfig(word_bits=width))
        result = functional.add_many(
            [np.uint64(v) for v in values], width=width
        )
        assert int(result.sums) == sum(values)
        assert structural_cycles == result.cost.cycles
