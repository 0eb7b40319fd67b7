"""Golden pin of Table 1 at paper scale: ``run_table1()`` at its defaults.

``tests/data/experiments_golden.json`` pins a reduced grid (two
workloads, tile 4096).  This file pins the full grid EXPERIMENTS.md
quotes: all six applications at tile 8192 and 1 GiB.  Floats are stored
as their ``repr`` strings, so a change of one ulp in any QoL or EDP cell
fails here.  The process-wide priced-point and tile memos are emptied
first, so every cell is priced by a fresh tile execution rather than
read back from an earlier test.

Regenerate with ``PYTHONPATH=src python -c "import
tests.test_table1_golden as t; t.write_golden()"`` only for an intended
change to the paper's numbers, and review the diff.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.experiments import run_table1
from repro.runtime import comparison

GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "table1_paper_scale.json"
)


def _snapshot(result) -> dict:
    """The grid as JSON, every float as its ``repr``."""
    return {
        "levels": list(result.levels),
        "dataset_bytes": result.dataset_bytes,
        "cells": {
            name: [
                {
                    "relax_bits": cell.relax_bits,
                    "qol_percent": repr(cell.qol_percent),
                    "edp_improvement": repr(cell.edp_improvement),
                    "qos_ok": cell.qos_ok,
                }
                for cell in row
            ]
            for name, row in result.cells.items()
        },
    }


def _fresh_table1():
    saved = comparison._TILE_MEMO, comparison._PRICED
    comparison._TILE_MEMO, comparison._PRICED = {}, {}
    try:
        return run_table1()
    finally:
        comparison._TILE_MEMO, comparison._PRICED = saved


def write_golden() -> None:
    """Regenerate ``tests/data/table1_paper_scale.json``."""
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(_snapshot(_fresh_table1()), handle, indent=1)
        handle.write("\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_paper_scale_table1_matches_golden(golden):
    assert _snapshot(_fresh_table1()) == golden


def test_golden_quotes_experiments_md(golden):
    """The pinned exact-mode FFT cell is the 199x EXPERIMENTS.md quotes."""
    fft_exact = golden["cells"]["FFT"][0]
    assert fft_exact["relax_bits"] == 0
    assert f"{float(fft_exact['edp_improvement']):.0f}" == "199"
