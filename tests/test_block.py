"""Unit tests for the blocked crossbar (repro.crossbar.block)."""

from __future__ import annotations

import pytest

from repro.core.cost import Cost
from repro.crossbar.block import BlockedCrossbar
from repro.errors import CrossbarError


@pytest.fixture
def fabric(vteam):
    return BlockedCrossbar(3, 16, 16, vteam)


class TestConstruction:
    def test_block_count(self, fabric):
        assert len(fabric.blocks) == 3
        assert len(fabric.interconnects) == 2

    def test_needs_two_blocks(self, vteam):
        with pytest.raises(CrossbarError):
            BlockedCrossbar(1, 8, 8, vteam)

    def test_block_access_validated(self, fabric):
        with pytest.raises(CrossbarError):
            fabric.block(3)
        with pytest.raises(CrossbarError):
            fabric.engine(-1)
        with pytest.raises(CrossbarError):
            fabric.sense_amp(99)


class TestClocking:
    def test_global_clock_is_max_of_engines(self, fabric):
        fabric.engine(0).init_cells([(0, 0)])
        fabric.engine(0).init_cells([(0, 1)])
        fabric.engine(2).init_cells([(0, 0)])
        assert fabric.cycles == 2

    def test_sync_clocks_catches_idle_blocks_up(self, fabric):
        fabric.engine(0).init_cells([(0, 0)])
        fabric.engine(0).init_cells([(0, 1)])
        fabric.sync_clocks()
        assert fabric.engine(1).cycles == 2

    def test_advance_clock_moves_all(self, fabric):
        fabric.advance_clock(5)
        assert all(e.cycles == 5 for e in fabric.engines)

    def test_advance_negative_rejected(self, fabric):
        with pytest.raises(CrossbarError):
            fabric.advance_clock(-1)

    def test_clock_never_moves_backwards(self, fabric):
        fabric.advance_clock(3)
        with pytest.raises(CrossbarError):
            fabric.engine(0).sync_to(1)


class TestDataMovement:
    def test_copy_preserves_word(self, fabric):
        fabric.write_word(0, 2, 0xAB, 8)
        fabric.copy_row_shifted(0, 2, 1, 5, width=8)
        assert fabric.read_word(1, 5, 8) == 0xAB

    def test_shifted_copy_lands_shifted(self, fabric):
        fabric.write_word(0, 2, 0b1011, 4)
        fabric.copy_row_shifted(0, 2, 1, 5, width=4, shift=3)
        assert fabric.read_word(1, 5, 7) == 0b1011 << 3

    def test_copy_costs_two_cycles(self, fabric):
        fabric.write_word(0, 2, 1, 4)
        before = fabric.cycles
        fabric.copy_row_shifted(0, 2, 1, 5, width=4)
        assert fabric.cycles - before == 2

    def test_shared_copy_costs_one_cycle(self, fabric):
        fabric.write_word(0, 2, 1, 4)
        fabric.copy_row_shifted(0, 2, 1, 5, width=4)
        before = fabric.cycles
        fabric.copy_row_shifted(
            0, 2, 1, 6, width=4, inverted_ready=True
        )
        assert fabric.cycles - before == 1

    def test_shift_has_no_latency_penalty(self, fabric):
        fabric.write_word(0, 2, 3, 4)
        before = fabric.cycles
        fabric.copy_row_shifted(0, 2, 1, 5, width=4, shift=7)
        assert fabric.cycles - before == 2  # same as unshifted

    def test_copy_to_non_adjacent_block_rejected(self, fabric):
        with pytest.raises(CrossbarError):
            fabric.copy_row_shifted(0, 0, 2, 0, width=4)

    def test_move_row_free_costs_nothing(self, fabric):
        fabric.write_word(0, 2, 0xF, 4)
        before = fabric.cycles
        fabric.move_row_free(0, 2, 1, 3, width=4, shift=1)
        assert fabric.cycles == before
        assert fabric.read_word(1, 3, 5) == 0xF << 1

    def test_move_charges_interconnect_traffic(self, fabric):
        fabric.write_word(0, 2, 0xF, 4)
        before = fabric.total_cost.interconnect_bits
        fabric.move_row_free(0, 2, 1, 3, width=4)
        assert fabric.total_cost.interconnect_bits - before == 4

    def test_copy_off_edge_rejected(self, fabric):
        fabric.write_word(0, 2, 1, 8)
        with pytest.raises(CrossbarError):
            fabric.copy_row_shifted(0, 2, 1, 5, width=8, shift=12)


class TestCostAggregation:
    def test_total_cost_uses_global_cycles(self, fabric):
        fabric.engine(0).init_cells([(0, 0)])
        fabric.engine(1).init_cells([(0, 0)])
        fabric.sync_clocks()
        # Each engine ran 1 cycle, but the SECOND init happened while the
        # first block was idle only if unsynced; after sync both report the
        # global max, not the sum.
        assert fabric.total_cost.cycles == fabric.cycles

    def test_charge_merges_extra_cost(self, fabric):
        fabric.charge(Cost(maj_ops=3, cell_writes=2))
        assert fabric.total_cost.maj_ops == 3
        assert fabric.total_cost.cell_writes == 2

    def test_charge_with_cycles_advances_clock(self, fabric):
        fabric.charge(Cost(cycles=4))
        assert fabric.cycles == 4

    def test_charge_writes(self, fabric):
        fabric.charge_writes(5)
        assert fabric.total_cost.cell_writes == 5
        with pytest.raises(CrossbarError):
            fabric.charge_writes(-1)

    def test_sense_amp_counts_included(self, fabric):
        fabric.sense_amp(0).read_bit(0, 0)
        fabric.sense_amp(0).majority(0, (0, 1, 2))
        assert fabric.total_cost.sa_reads == 1
        assert fabric.total_cost.maj_ops == 1

