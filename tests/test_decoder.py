"""Unit tests for decoders and shared periphery (repro.crossbar.decoder)."""

from __future__ import annotations

import pytest

from repro.crossbar.decoder import LineDecoder, SharedPeriphery
from repro.errors import CrossbarError


class TestLineDecoder:
    def test_one_hot_output(self):
        decoder = LineDecoder(8)
        out = decoder.select(3)
        assert out == [0, 0, 0, 1, 0, 0, 0, 0]

    def test_activation_counting(self):
        decoder = LineDecoder(4)
        decoder.select(0)
        decoder.select(2)
        assert decoder.activations == 2

    def test_out_of_range_rejected(self):
        decoder = LineDecoder(4)
        with pytest.raises(CrossbarError):
            decoder.select(4)

    def test_invalid_construction(self):
        with pytest.raises(CrossbarError):
            LineDecoder(0)
        with pytest.raises(CrossbarError):
            LineDecoder(4, kind="diagonal")


class TestSharedPeriphery:
    def test_shared_grows_slowly_with_blocks(self):
        # APIM's point: all blocks share decoders, so periphery grows only
        # by the interconnect switches per added block.
        p2 = SharedPeriphery(1024, 1024, 2).periphery_transistors(shared=True)
        p8 = SharedPeriphery(1024, 1024, 8).periphery_transistors(shared=True)
        unshared8 = SharedPeriphery(1024, 1024, 8).periphery_transistors(
            shared=False
        )
        assert p8 < unshared8
        assert p8 - p2 < unshared8 / 2

    def test_unshared_scales_linearly(self):
        one = SharedPeriphery(64, 64, 1).periphery_transistors(shared=False)
        four = SharedPeriphery(64, 64, 4).periphery_transistors(shared=False)
        assert four == 4 * one

    def test_invalid_block_count(self):
        with pytest.raises(CrossbarError):
            SharedPeriphery(8, 8, 0)
