"""Unit tests for the structural adders (repro.crossbar.structural_adder)."""

from __future__ import annotations

import random

import pytest

from repro.core.timing import hybrid_final_add_cycles, serial_add_cycles
from repro.crossbar.block import BlockedCrossbar
from repro.crossbar.structural_adder import (
    FACells,
    FA_SCRATCH_CELLS,
    RowPool,
    StructuralAdder,
    full_adder_schedule,
)
from repro.errors import CrossbarError


@pytest.fixture
def fabric(vteam):
    return BlockedCrossbar(2, 64, 24, vteam)


@pytest.fixture
def adder(fabric):
    return StructuralAdder(fabric)


@pytest.fixture
def pool():
    return RowPool(64, reserved=[0, 1, 2])


class TestRowPool:
    def test_alloc_free_cycle(self):
        pool = RowPool(8)
        rows = pool.alloc(3)
        assert len(rows) == 3
        with pytest.raises(CrossbarError):
            pool.alloc(6)  # 5 rows left
        pool.free(rows)
        assert sorted(pool.alloc(8)) == list(range(8))

    def test_reserved_rows_excluded(self):
        pool = RowPool(8, reserved=[0, 1])
        assert 0 not in pool.alloc(6)
        with pytest.raises(CrossbarError):
            pool.alloc(1)

    def test_exhaustion_raises(self):
        pool = RowPool(4)
        with pytest.raises(CrossbarError):
            pool.alloc(5)


class TestFullAdderSchedule:
    def test_schedule_has_twelve_steps(self):
        cells = FACells(
            a=(0, 0), b=(1, 0), cin=(2, 0), cout=(3, 0), sum=(4, 0),
            scratch=tuple((5 + i, 0) for i in range(FA_SCRATCH_CELLS)),
        )
        assert len(full_adder_schedule(cells)) == 12

    def test_scratch_count_enforced(self):
        with pytest.raises(CrossbarError):
            FACells(
                a=(0, 0), b=(1, 0), cin=(2, 0), cout=(3, 0), sum=(4, 0),
                scratch=((5, 0),),
            )


class TestSerialAdd:
    def _run(self, fabric, adder, pool, a, b, width):
        fabric.block(0).clear()
        fabric.write_word(0, 0, a, width)
        fabric.write_word(0, 1, b, width)
        before = fabric.total_cost.cycles
        adder.serial_add(0, 0, 1, 2, width, pool)
        cycles = fabric.total_cost.cycles - before
        return fabric.read_word(0, 2, width + 1), cycles

    def test_exhaustive_4_bit(self, fabric, adder, pool):
        for a in range(16):
            for b in range(16):
                result, _ = self._run(fabric, adder, pool, a, b, 4)
                assert result == a + b, (a, b)

    def test_random_8_bit_values_and_cycles(self, fabric, adder, pool):
        rnd = random.Random(7)
        for _ in range(20):
            a, b = rnd.randrange(256), rnd.randrange(256)
            result, cycles = self._run(fabric, adder, pool, a, b, 8)
            assert result == a + b
            assert cycles == serial_add_cycles(8)

    def test_carry_out_lands_in_msb(self, fabric, adder, pool):
        result, _ = self._run(fabric, adder, pool, 0xFF, 0xFF, 8)
        assert result == 0x1FE

    def test_operand_span_validated(self, fabric, adder, pool):
        with pytest.raises(CrossbarError):
            adder.serial_add(0, 0, 1, 2, width=30, pool=pool)


class TestCsaStep:
    def test_three_to_two_sum_preserved(self, fabric, adder, pool):
        width = 8
        values = (0x5A, 0x3C, 0xF1)
        for row, value in enumerate(values):
            fabric.write_word(0, row, value, width)
        out = [tuple(pool.alloc(2))]
        adder.csa_step(0, [(0, 1, 2)], out, width, pool)
        s = fabric.read_word(0, out[0][0], width)
        c = fabric.read_word(0, out[0][1], width)
        # carry word is unshifted: weight j+1 at column j.
        assert s + (c << 1) == sum(values)

    def test_thirteen_cycles_single_group(self, fabric, adder, pool):
        for row, value in enumerate((1, 2, 3)):
            fabric.write_word(0, row, value, 8)
        before = fabric.total_cost.cycles
        adder.csa_step(0, [(0, 1, 2)], [tuple(pool.alloc(2))], 8, pool)
        assert fabric.total_cost.cycles - before == 13

    def test_thirteen_cycles_multiple_groups(self, vteam):
        fabric = BlockedCrossbar(2, 128, 24, vteam)
        adder = StructuralAdder(fabric)
        pool = RowPool(128, reserved=range(6))
        for row in range(6):
            fabric.write_word(0, row, row + 1, 8)
        out = [tuple(pool.alloc(2)) for _ in range(2)]
        before = fabric.total_cost.cycles
        adder.csa_step(0, [(0, 1, 2), (3, 4, 5)], out, 8, pool)
        assert fabric.total_cost.cycles - before == 13  # group-parallel
        s1 = fabric.read_word(0, out[0][0], 8) + (
            fabric.read_word(0, out[0][1], 8) << 1
        )
        s2 = fabric.read_word(0, out[1][0], 8) + (
            fabric.read_word(0, out[1][1], 8) << 1
        )
        assert s1 == 1 + 2 + 3 and s2 == 4 + 5 + 6

    def test_group_row_mismatch_rejected(self, fabric, adder, pool):
        with pytest.raises(CrossbarError):
            adder.csa_step(0, [(0, 1, 2)], [], 8, pool)


class TestHybridFinalAdd:
    def _run(self, fabric, adder, pool, a, b, width, m, skip=False):
        fabric.block(0).clear()
        fabric.write_word(0, 0, a, width)
        fabric.write_word(0, 1, b, width)
        before = fabric.total_cost.cycles
        adder.hybrid_final_add(0, 0, 1, 2, width, m, pool, skip_lsb=skip)
        cycles = fabric.total_cost.cycles - before
        return fabric.read_word(0, 2, width + 1), cycles

    def test_exact_mode_value_and_cycles(self, fabric, adder, pool):
        result, cycles = self._run(fabric, adder, pool, 0xAB, 0x3D, 8, 0)
        assert result == 0xAB + 0x3D
        assert cycles == hybrid_final_add_cycles(8, 0)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_approx_matches_functional_bit_model(
        self, fabric, adder, pool, m
    ):
        import numpy as np

        from repro.core.approximation import approximate_final_add

        rnd = random.Random(m)
        for _ in range(12):
            a, b = rnd.randrange(128), rnd.randrange(128)
            result, cycles = self._run(fabric, adder, pool, a, b, 8, m)
            expected = int(
                approximate_final_add(np.uint64(a), np.uint64(b), 8, m)
            )
            assert result == expected, (a, b, m)
            assert cycles == hybrid_final_add_cycles(8, m)

    def test_high_bits_always_exact(self, fabric, adder, pool):
        result, _ = self._run(fabric, adder, pool, 0xF0, 0xF0, 8, 4)
        assert result >> 4 == (0xF0 + 0xF0) >> 4

    def test_relax_out_of_range_rejected(self, fabric, adder, pool):
        with pytest.raises(CrossbarError):
            adder.hybrid_final_add(0, 0, 1, 2, 8, 9, pool)

    def test_skip_lsb_requires_zero_carry_lsb(self, fabric, adder, pool):
        fabric.write_word(0, 0, 3, 8)
        fabric.write_word(0, 1, 1, 8)  # LSB set: invalid for skip mode
        with pytest.raises(CrossbarError):
            adder.hybrid_final_add(0, 0, 1, 2, 8, 0, pool, skip_lsb=True)

    def test_skip_lsb_value_and_cycles(self, fabric, adder, pool):
        a, b = 0x57, 0x92  # b has a zero LSB
        result, cycles = self._run(
            fabric, adder, pool, a, b, 8, 0, skip=True
        )
        assert result == a + b
        assert cycles == hybrid_final_add_cycles(7, 0)  # width-1 positions


class TestFastMultiAdd:
    @pytest.mark.parametrize("count", [2, 3, 5, 9])
    def test_tree_sum_exact(self, vteam, count):
        fabric = BlockedCrossbar(2, 160, 32, vteam)
        adder = StructuralAdder(fabric)
        pools = {0: RowPool(160), 1: RowPool(160)}
        rnd = random.Random(count)
        width = 8
        values = [rnd.randrange(64) for _ in range(count)]
        rows = pools[0].alloc(count)
        for row, value in zip(rows, values):
            fabric.write_word(0, row, value, width)
        block, row = adder.fast_multi_add(0, 1, rows, width, pools)
        stages = __import__(
            "repro.core.timing", fromlist=["reduction_stages"]
        ).reduction_stages(count)
        out_width = width + stages + 1
        assert fabric.read_word(block, row, out_width) == sum(values)

    def test_needs_two_operands(self, vteam):
        fabric = BlockedCrossbar(2, 64, 24, vteam)
        adder = StructuralAdder(fabric)
        with pytest.raises(CrossbarError):
            adder.fast_multi_add(0, 1, [0], 8, {0: RowPool(64), 1: RowPool(64)})
