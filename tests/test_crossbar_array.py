"""Unit tests for the crossbar block (repro.crossbar.array)."""

from __future__ import annotations

import pytest

from repro.crossbar.array import CrossbarArray
from repro.errors import CrossbarError


@pytest.fixture
def array(vteam):
    return CrossbarArray(8, 16, vteam, name="test")


class TestConstruction:
    def test_dimensions(self, array):
        assert (array.rows, array.cols) == (8, 16)

    def test_starts_all_zero(self, array):
        assert all(
            array.value(r, c) == 0 for r in range(8) for c in range(16)
        )

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (-1, 4)])
    def test_invalid_shapes_rejected(self, rows, cols):
        with pytest.raises(CrossbarError):
            CrossbarArray(rows, cols)


class TestCellAccess:
    def test_set_and_read(self, array):
        array.set_value(3, 5, 1)
        assert array.value(3, 5) == 1

    def test_set_counts_writes(self, array):
        array.set_value(0, 0, 1)
        array.set_value(0, 1, 0)
        assert array.write_count == 2

    def test_set_state_direct(self, array):
        array.set_state(1, 1, 0.75)
        assert array.state(1, 1) == pytest.approx(0.75)
        assert array.value(1, 1) == 1

    def test_bad_bit_rejected(self, array):
        with pytest.raises(CrossbarError):
            array.set_value(0, 0, 5)

    def test_bad_state_rejected(self, array):
        with pytest.raises(CrossbarError):
            array.set_state(0, 0, 2.0)

    @pytest.mark.parametrize("row,col", [(-1, 0), (8, 0), (0, 16), (0, -1)])
    def test_out_of_range_rejected(self, array, row, col):
        with pytest.raises(CrossbarError):
            array.value(row, col)

    def test_resistance_view(self, array, vteam):
        array.set_value(2, 2, 1)
        assert array.resistance(2, 2) == pytest.approx(
            vteam.params.r_on, rel=1e-9
        )


class TestWordAccess:
    def test_word_round_trip(self, array):
        array.write_word(0, 0xABC, 12)
        assert array.read_word(0, 12) == 0xABC

    def test_word_lsb_first_layout(self, array):
        array.write_word(2, 0b101, 3)
        assert [array.value(2, col) for col in range(3)] == [1, 0, 1]

    def test_word_with_column_offset(self, array):
        array.write_word(1, 0x5, 4, start_col=10)
        assert array.read_word(1, 4, start_col=10) == 0x5
        assert array.read_word(1, 4, start_col=0) == 0

    def test_word_too_wide_rejected(self, array):
        with pytest.raises(CrossbarError):
            array.write_word(0, 1, 17)

    def test_value_exceeding_width_rejected(self, array):
        with pytest.raises(CrossbarError):
            array.write_word(0, 16, 4)

    def test_row_bits_write_out_of_range(self, array):
        with pytest.raises(CrossbarError):
            array.write_row_bits(0, [1] * 17)


class TestBulkOperations:
    def test_clear_row(self, array):
        array.write_word(4, 0xFFFF, 16)
        array.clear_row(4)
        assert array.read_word(4, 16) == 0

    def test_clear_all(self, array):
        array.write_word(0, 0xFF, 8)
        array.write_word(7, 0xFF, 8)
        array.clear()
        assert array.read_word(0, 8) == 0
        assert array.read_word(7, 8) == 0

    def test_snapshot_restore_round_trip(self, array):
        array.write_word(3, 0x55, 8)
        snap = array.snapshot()
        array.clear()
        array.restore(snap)
        assert array.read_word(3, 8) == 0x55

    def test_snapshot_is_a_copy(self, array):
        snap = array.snapshot()
        array.set_value(0, 0, 1)
        assert snap[0, 0] == 0.0

    def test_restore_shape_mismatch_rejected(self, array, vteam):
        other = CrossbarArray(4, 4, vteam)
        with pytest.raises(CrossbarError):
            array.restore(other.snapshot())
