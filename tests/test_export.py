"""Tests for result export (repro.analysis.export)."""

from __future__ import annotations

import csv
import io

import pytest

from repro.analysis.export import to_csv
from repro.errors import ConfigurationError


class TestSerialisation:
    def test_csv_parses_back(self):
        header = ["workload", "relax_bits", "edp_improvement", "qos_ok"]
        rows = [["Sobel", 0, 27.5, True], ["Robert", 16, 480.25, False]]
        parsed = list(csv.reader(io.StringIO(to_csv((header, rows)))))
        assert parsed[0] == header
        assert parsed[1:] == [[str(c) for c in row] for row in rows]

    def test_csv_quotes_special_characters(self):
        text = to_csv((["a", "b"], [["x,y", 'say "hi"']]))
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[1] == ["x,y", 'say "hi"']

    def test_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            to_csv((["a", "b"], [[1]]))

    def test_empty_header_rejected(self):
        with pytest.raises(ConfigurationError):
            to_csv(([], []))
