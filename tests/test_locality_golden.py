"""Golden pin of the baselines' measured cache locality.

``data/locality_golden.json`` holds the ``(l1, l2, dram)`` service
fractions of every registered workload at the default tile, as produced by
the per-access :meth:`CacheHierarchy.access` simulator, for the GPU and
the CPU baseline.  Every GPU/CPU price (and so EXPERIMENTS.md) is a
function of these fractions, so they must reproduce exactly, not
approximately.  Regenerate only for an intentional model change, by
summing ``CacheHierarchy.access`` results over each profile's
``trace(tile_elements)``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import GPUModel
from repro.workloads import workload_by_name, workload_names

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "locality_golden.json")

with open(GOLDEN, encoding="utf-8") as _handle:
    _PINNED = json.load(_handle)

MODELS = {"gpu": GPUModel, "cpu": CPUModel}


def test_golden_covers_every_workload():
    assert _PINNED["tile_elements"] == GPUModel.DEFAULT_TILE_ELEMENTS
    assert _PINNED["tile_elements"] == CPUModel.DEFAULT_TILE_ELEMENTS
    for model in MODELS:
        assert sorted(_PINNED[model]) == sorted(workload_names())


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", workload_names())
def test_locality_fractions_exact(model, name):
    fractions = MODELS[model]().measure_locality(
        workload_by_name(name).profile()
    )
    assert list(fractions) == _PINNED[model][name]
