"""Golden pin of the baselines' measured cache locality: the shipped table.

``repro/baselines/locality_table.json`` (package data) holds the ``(l1,
l2, dram)`` service fractions of every registered workload at the default
tile, for the GPU and the CPU baseline, and each model seeds its
process-wide memo from it at import.  Every GPU/CPU price (and so
EXPERIMENTS.md) is a function of these fractions, so the simulator must
reproduce the table exactly, not approximately: a changed trace builder,
cache model or default cache geometry fails here until the table is
regenerated with ``PYTHONPATH=src python -c "import
tests.test_locality_golden as t; t.write_table()"`` (review the diff).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from repro.baselines import gpu as gpu_module
from repro.baselines.cpu import CPUConfig, CPUModel
from repro.baselines.gpu import (
    LOCALITY_FIELDS,
    LOCALITY_TABLE,
    GPUConfig,
    GPUModel,
    seed_locality,
    simulate_locality,
)
from repro.observability import MetricsRegistry, set_default_registry
from repro.workloads import workload_by_name, workload_names

TABLE_PATH = resources.files("repro.baselines").joinpath(LOCALITY_TABLE)
TABLE = json.loads(TABLE_PATH.read_text())

MODELS = {"gpu": (GPUModel, GPUConfig), "cpu": (CPUModel, CPUConfig)}


def write_table() -> None:
    """Regenerate the shipped table by simulating every entry afresh."""
    table = {}
    for model, (model_type, config_type) in MODELS.items():
        config, tile = config_type(), model_type.DEFAULT_TILE_ELEMENTS
        table[model] = {
            "config": {f: getattr(config, f) for f in LOCALITY_FIELDS},
            "tiles": {str(tile): {
                name: list(simulate_locality(
                    config, workload_by_name(name).profile(), tile
                ))
                for name in workload_names()
            }},
        }
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")


def _pinned(model: str) -> dict:
    tile = MODELS[model][0].DEFAULT_TILE_ELEMENTS
    return TABLE[model]["tiles"][str(tile)]


def test_golden_covers_every_workload():
    for model, (model_type, config_type) in MODELS.items():
        config = config_type()
        assert TABLE[model]["config"] == {
            f: getattr(config, f) for f in LOCALITY_FIELDS
        }
        assert list(TABLE[model]["tiles"]) == [
            str(model_type.DEFAULT_TILE_ELEMENTS)
        ]
        assert sorted(_pinned(model)) == sorted(workload_names())


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("name", workload_names())
def test_locality_fractions_exact(model, name, cold_memos):
    """With the memo (and so the table's seed) emptied, the simulator
    reproduces the table bit for bit."""
    fractions = MODELS[model][0]().measure_locality(
        workload_by_name(name).profile()
    )
    assert list(fractions) == _pinned(model)[name]


def _count_hierarchies(monkeypatch) -> list:
    built = []
    original = gpu_module.CacheHierarchy

    def hierarchy(*levels):
        built.append(levels)
        return original(*levels)

    monkeypatch.setattr(gpu_module, "CacheHierarchy", hierarchy)
    return built


def _table_only_memo(monkeypatch) -> dict:
    """Swap in a locality memo holding just the shipped table's entries."""
    memo = {}
    monkeypatch.setattr(gpu_module, "_LOCALITY_MEMO", memo)
    for model, (_, config_type) in MODELS.items():
        seed_locality(config_type(), model)
    return memo


def test_default_config_served_from_table(monkeypatch):
    """At the default config every lookup is a table hit: no cache
    hierarchy is built and no cold work is recorded."""
    _table_only_memo(monkeypatch)
    built = _count_hierarchies(monkeypatch)
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        for model in MODELS:
            fractions = MODELS[model][0]().measure_locality(
                workload_by_name("Sobel").profile()
            )
            assert list(fractions) == _pinned(model)["Sobel"]
    finally:
        set_default_registry(previous)
    assert built == []
    for name in ("repro_pricing_cold_work_total",
                 "repro_pricing_cold_work_seconds"):
        family = registry.get(name)
        assert family is None or family.samples() == []


def test_non_default_config_misses_table(monkeypatch):
    """Another cache geometry is never seeded, so it simulates."""
    memo = _table_only_memo(monkeypatch)
    seeded = len(memo)
    config = GPUConfig(l2_bytes=2 << 20)
    seed_locality(config, "gpu")
    assert len(memo) == seeded
    built = _count_hierarchies(monkeypatch)
    GPUModel(config).measure_locality(workload_by_name("Sobel").profile())
    assert len(built) == 1


def test_fresh_interpreter_prices_without_simulating():
    """Pricing all registered profiles on both baselines at the default
    tile in a new process builds no cache hierarchy at all."""
    script = """
from repro.baselines import gpu
from repro.baselines.cpu import CPUModel
from repro.baselines.gpu import GPUModel
from repro.workloads import workload_by_name, workload_names

built = []
original = gpu.CacheHierarchy
gpu.CacheHierarchy = lambda *levels: built.append(levels) or original(*levels)
names = workload_names()
for name in names:
    profile = workload_by_name(name).profile()
    GPUModel().estimate(profile, 1 << 30)
    CPUModel().estimate(profile, 1 << 30)
print(len(names), len(built))
"""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True,
        capture_output=True, text=True,
    ).stdout.split()
    assert out == ["10", "0"]
