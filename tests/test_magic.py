"""Unit tests for the MAGIC execution engine (repro.crossbar.magic)."""

from __future__ import annotations

import itertools

import pytest

from repro.crossbar.array import CrossbarArray
from repro.crossbar.magic import MagicEngine
from repro.errors import CrossbarError


@pytest.fixture
def fabric(vteam):
    array = CrossbarArray(16, 16, vteam)
    return MagicEngine(array)


def _set_row(engine, row, bits):
    for col, bit in enumerate(bits):
        engine.array.set_value(row, col, bit)


class TestInit:
    def test_init_sets_cells_to_one(self, fabric):
        fabric.init_cells([(0, 0), (1, 1)])
        assert fabric.array.value(0, 0) == 1
        assert fabric.array.value(1, 1) == 1

    def test_init_costs_one_cycle(self, fabric):
        fabric.init_cells([(0, c) for c in range(10)])
        assert fabric.cycles == 1

    def test_bulk_init_is_free(self, fabric):
        fabric.init_cells([(0, 0)], charge_cycle=False)
        assert fabric.cycles == 0

    def test_empty_init_rejected(self, fabric):
        with pytest.raises(CrossbarError):
            fabric.init_cells([])


class TestNorInRow:
    @pytest.mark.parametrize("a,b", list(itertools.product((0, 1), repeat=2)))
    def test_two_input_truth_table(self, fabric, a, b):
        fabric.array.set_value(0, 0, a)
        fabric.array.set_value(0, 1, b)
        fabric.init_cells([(0, 5)])
        result = fabric.nor_in_row(0, [0, 1], 5)
        assert result == int(not (a or b))
        assert fabric.array.value(0, 5) == result

    def test_single_input_is_not(self, fabric):
        fabric.array.set_value(0, 0, 1)
        fabric.init_cells([(0, 3)])
        assert fabric.nor_in_row(0, [0], 3) == 0

    def test_three_input(self, fabric):
        _set_row(fabric, 0, [0, 0, 0])
        fabric.init_cells([(0, 7)])
        assert fabric.nor_in_row(0, [0, 1, 2], 7) == 1

    def test_requires_initialised_output(self, fabric):
        with pytest.raises(CrossbarError):
            fabric.nor_in_row(0, [0, 1], 5)

    def test_output_cannot_be_input(self, fabric):
        fabric.init_cells([(0, 1)])
        with pytest.raises(CrossbarError):
            fabric.nor_in_row(0, [0, 1], 1)

    def test_each_nor_is_one_cycle(self, fabric):
        fabric.init_cells([(0, c) for c in (5, 6)])
        before = fabric.cycles
        fabric.nor_in_row(0, [0], 5)
        fabric.nor_in_row(0, [1], 6)
        assert fabric.cycles - before == 2


class TestNorCells:
    def test_arbitrary_positions(self, fabric):
        fabric.array.set_value(2, 3, 1)
        fabric.array.set_value(7, 9, 0)
        fabric.init_cells([(4, 12)])
        assert fabric.nor_cells([(2, 3), (7, 9)], (4, 12)) == 0

    def test_all_zero_inputs(self, fabric):
        fabric.init_cells([(4, 12)])
        assert fabric.nor_cells([(2, 3), (7, 9)], (4, 12)) == 1

    def test_collision_rejected(self, fabric):
        fabric.init_cells([(2, 3)])
        with pytest.raises(CrossbarError):
            fabric.nor_cells([(2, 3)], (2, 3))


class TestNorParallel:
    def test_batch_executes_in_one_cycle(self, fabric):
        fabric.init_cells([(5, 0), (5, 1), (5, 2)])
        before = fabric.cycles
        results = fabric.nor_parallel(
            [([(0, c)], (5, c)) for c in range(3)]
        )
        assert fabric.cycles - before == 1
        assert results == [1, 1, 1]

    def test_simultaneous_semantics(self, fabric):
        # op B reads a cell that op A writes: B must see the OLD value.
        fabric.array.set_value(0, 0, 0)
        fabric.init_cells([(1, 0), (2, 0)])
        results = fabric.nor_parallel(
            [
                ([(0, 0)], (1, 0)),  # writes NOT(0) = 1 into (1,0)
                ([(1, 0)], (2, 0)),  # reads (1,0): must see the initial 1
            ]
        )
        assert results == [1, 0]

    def test_overlapping_outputs_rejected(self, fabric):
        fabric.init_cells([(5, 0)])
        with pytest.raises(CrossbarError):
            fabric.nor_parallel(
                [([(0, 0)], (5, 0)), ([(1, 0)], (5, 0))]
            )

    def test_empty_batch_rejected(self, fabric):
        with pytest.raises(CrossbarError):
            fabric.nor_parallel([])


class TestElectricalModel:
    def test_nor_dissipates_energy(self, fabric):
        fabric.init_cells([(0, 5)])
        before = fabric.electrical_energy
        fabric.array.set_value(0, 0, 1)
        fabric.nor_in_row(0, [0], 5)
        assert fabric.electrical_energy > before

    def test_active_input_dissipates_more(self, vteam):
        high = MagicEngine(CrossbarArray(4, 4, vteam))
        low = MagicEngine(CrossbarArray(4, 4, vteam))
        high.array.set_value(0, 0, 1)
        high.init_cells([(0, 2)])
        low.init_cells([(0, 2)])
        high.nor_in_row(0, [0], 2)
        low.nor_in_row(0, [0], 2)
        assert high.electrical_energy > low.electrical_energy

    def test_energy_magnitude_is_sub_picojoule(self, fabric):
        # Sanity for the abstract e_nor constant: a single NOR event along
        # a 10 kOhm .. 10 MOhm path at 1 V for 1.1 ns is in the fJ range.
        fabric.array.set_value(0, 0, 1)
        fabric.init_cells([(0, 5)])
        fabric.nor_in_row(0, [0], 5)
        assert 1e-18 < fabric.electrical_energy < 1e-12
