"""Unit tests for unit helpers (repro.units)."""

from __future__ import annotations

import pytest

from repro.units import (
    FJ,
    GIB,
    KIB,
    MIB,
    NS,
    PJ,
    format_bytes,
    format_improvement,
    format_si,
)


class TestConstants:
    def test_time_scale(self):
        assert NS == pytest.approx(1e-9)

    def test_energy_scale(self):
        assert FJ == pytest.approx(1e-15)
        assert PJ == pytest.approx(1e-12)

    def test_binary_sizes(self):
        assert KIB == 1024
        assert MIB == 1024**2
        assert GIB == 1024**3


class TestFormatSi:
    def test_nanoseconds(self):
        assert format_si(1.1e-9, "s") == "1.1 ns"

    def test_femtojoules(self):
        assert format_si(8e-15, "J") == "8 fJ"

    def test_zero(self):
        assert format_si(0.0, "J") == "0 J"

    def test_giga(self):
        assert format_si(5.1e12, "FLOP/s") == "5.1e+03 GFLOP/s"

    def test_unity(self):
        assert format_si(3.5, "V") == "3.5 V"

    def test_tiny_values_use_smallest_prefix(self):
        assert "a" in format_si(1e-19, "J")


class TestFormatBytes:
    def test_paper_axis_labels(self):
        assert format_bytes(32 * MIB) == "32M"
        assert format_bytes(GIB) == "1G"
        assert format_bytes(512 * MIB) == "512M"

    def test_kilobytes(self):
        assert format_bytes(64 * KIB) == "64K"

    def test_small(self):
        assert format_bytes(100) == "100B"

    def test_fractional(self):
        assert format_bytes(1.5 * GIB) == "1.5G"


class TestFormatImprovement:
    def test_large_factor_rounds(self):
        assert format_improvement(480.2) == "480x"

    def test_small_factor_keeps_decimal(self):
        assert format_improvement(4.8) == "4.8x"
