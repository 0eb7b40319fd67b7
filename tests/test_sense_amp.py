"""Unit tests for the modified sense amplifier (repro.crossbar.sense_amp)."""

from __future__ import annotations

import itertools

import pytest

from repro.crossbar.array import CrossbarArray
from repro.crossbar.sense_amp import SenseAmplifier
from repro.errors import CrossbarError


@pytest.fixture
def sa(vteam):
    array = CrossbarArray(8, 8, vteam)
    return SenseAmplifier(array)


class TestBitwiseMode:
    def test_read_bit(self, sa):
        sa.array.set_value(2, 3, 1)
        assert sa.read_bit(2, 3) == 1
        assert sa.read_bit(2, 4) == 0

    def test_read_counts(self, sa):
        sa.read_bit(0, 0)
        sa.read_bit(0, 1)
        assert sa.read_count == 2


class TestMajorityMode:
    @pytest.mark.parametrize(
        "bits", list(itertools.product((0, 1), repeat=3))
    )
    def test_electrical_majority_truth_table(self, sa, bits):
        # The 2-of-3 conductance comparison must realise MAJ for every
        # input combination — the enormous RON/ROFF ratio guarantees it.
        for row, bit in enumerate(bits):
            sa.array.set_value(row, 0, bit)
        expected = int(sum(bits) >= 2)
        assert sa.majority(0, (0, 1, 2)) == expected

    def test_majority_counts(self, sa):
        sa.majority(0, (0, 1, 2))
        assert sa.maj_count == 1

    def test_majority_needs_three_rows(self, sa):
        with pytest.raises(CrossbarError):
            sa.majority(0, (0, 1))  # type: ignore[arg-type]

    def test_majority_validates_cells(self, sa):
        with pytest.raises(CrossbarError):
            sa.majority(99, (0, 1, 2))
