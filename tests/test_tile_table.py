"""Golden pin of the APIM tiles a serving process starts from: the shipped
tile table.

``repro/runtime/tile_table.json`` (package data) holds the tile of every
registered workload at every relax level 0-64 that executes, for the
default APIM config at the serving defaults' tile and seed.  A harness of
that identity pre-fills the process-wide tile memo from it when the
identity is first interned, so serving processes and subprocess workers
price without executing.  The executor must reproduce the table bit for
bit: a changed kernel, cost formula, quality metric or default config
fails here until the table is regenerated with ``PYTHONPATH=src python -c
"import tests.test_tile_table as t; t.write_table()"`` (review the diff).
``check_table()`` re-executes every level, the CI's full check.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from dataclasses import astuple, fields
from importlib import resources

import pytest

from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import default_config
from repro.errors import ReproError
from repro.runtime import comparison
from repro.runtime.campaign import run_point
from repro.runtime.comparison import (
    TILE_TABLE,
    ComparisonHarness,
    TileFailure,
    seed_tiles,
)
from repro.serving import Client, CrossbarPool
from repro.units import MIB
from repro.workloads import workload_by_name, workload_names
from tests.conftest import emptied_memos
from tests.test_tile_memo import _count_runs

TABLE_PATH = resources.files("repro.runtime").joinpath(TILE_TABLE)
TABLE = json.loads(TABLE_PATH.read_text())

#: The serving defaults the table is generated for.
_POOL_DEFAULTS = inspect.signature(CrossbarPool).parameters
TILE = _POOL_DEFAULTS["tile_elements"].default
SEED = _POOL_DEFAULTS["seed"].default
RELAX_LEVELS = range(65)
#: The levels tier-1 re-executes per workload, besides its top levels.
SAMPLED = (0, 4, 8, 16, 24, 32)
#: The six paper workloads plus GEMM at three relax levels.
SERVED = [(name, relax)
          for name in ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen",
                       "QuasiR", "GEMM")
          for relax in (0, 8, 32)]


def _spec(relax: int) -> ApproxSpec:
    return ApproxSpec.last_stage(relax) if relax else EXACT


def _row(tile) -> list:
    return [tile.elements, *astuple(tile.cost), tile.qol_percent, tile.qos_ok]


def generate_table() -> dict:
    """The table, every level executed afresh (a level that raises is
    left out)."""
    config = default_config()
    entries = {}
    with emptied_memos():
        harness = ComparisonHarness(config, tile_elements=TILE,
                                    rng_seed=SEED)
        for name in workload_names():
            workload = workload_by_name(name)
            tiles = {relax: harness._execute(workload, _spec(relax))
                     for relax in RELAX_LEVELS}
            entries[name] = {str(relax): _row(tile) for relax, tile in
                             tiles.items() if type(tile) is not TileFailure}
    return {
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
        "tile": TILE,
        "seed": SEED,
        "entries": entries,
    }


def write_table() -> None:
    """Regenerate the shipped table, one entry per line."""
    table = generate_table()
    blocks = []
    for name, levels in table.pop("entries").items():
        lines = ",\n".join(f'   "{relax}": {json.dumps(row)}'
                           for relax, row in levels.items())
        blocks.append(f'  "{name}": {{\n{lines}\n  }}')
    head = ",\n".join(f' "{key}": {json.dumps(value)}'
                      for key, value in table.items())
    body = ",\n".join(blocks)
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n{head},\n "entries": {{\n{body}\n }}\n}}\n')


def check_table() -> None:
    """Re-execute all 65 levels of every workload and compare with the
    shipped table (about 12 s)."""
    assert generate_table() == TABLE, "tile table is stale: write_table()"


def _levels(name: str) -> list[int]:
    return sorted(int(relax) for relax in TABLE["entries"][name])


def _top(name: str) -> int:
    """The top ``L`` of the contiguous run ``0..L`` of executing levels."""
    levels = _levels(name)
    return next(
        (index - 1 for index, level in enumerate(levels) if level != index),
        levels[-1],
    )


def test_table_identity():
    """The table is generated for the serving defaults: the default APIM
    config, ``CrossbarPool``'s and ``repro serve``'s tile, the pool seed
    and every registered workload."""
    from repro.cli import build_parser

    config = default_config()
    assert TABLE["config"] == {
        f.name: getattr(config, f.name) for f in fields(config)
    }
    assert TABLE["tile"] == TILE == build_parser().parse_args(["serve"]).tile
    assert TABLE["seed"] == SEED
    assert sorted(TABLE["entries"]) == sorted(workload_names())
    assert sum(len(levels) for levels in TABLE["entries"].values()) == 519


@pytest.mark.parametrize("name", workload_names())
def test_levels_execute_up_to_an_overflow(name):
    """Each workload's levels are ``0..L`` and, above a range overflow at
    ``L + 1``, only 64, where every product bit is relaxed.  The table
    holds only levels that execute, so a level that raises still raises
    (and degrades or falls back as before)."""
    top = _top(name)
    assert _levels(name) == list(range(top + 1)) + [64] * (top < 64)
    if top < 63:
        with emptied_memos():
            harness = ComparisonHarness(tile_elements=TILE, rng_seed=SEED)
            with pytest.raises(ReproError):
                harness._tile_result(workload_by_name(name), _spec(top + 1))


@pytest.mark.parametrize("name", workload_names())
def test_entries_exact(name):
    """With the memos emptied (and table seeding off), the executor
    reproduces sampled entries bit for bit."""
    pinned = TABLE["entries"][name]
    levels = sorted({*SAMPLED, _top(name), _levels(name)[-1]})
    with emptied_memos():
        harness = ComparisonHarness(tile_elements=TILE, rng_seed=SEED)
        workload = workload_by_name(name)
        for relax in levels:
            tile = harness._tile_result(workload, _spec(relax))
            assert _row(tile) == pinned[str(relax)], relax


def test_default_identity_served_from_table(monkeypatch):
    """Seeded from the table, a default harness prices table keys without
    executing; a key outside the table still executes."""
    monkeypatch.setattr(comparison, "_TILE_MEMO", {})
    harness = ComparisonHarness(tile_elements=TILE, rng_seed=SEED)
    seed_tiles(harness._identity, default_config(), TILE, SEED)
    assert len(comparison._TILE_MEMO) == 519
    runs = _count_runs(monkeypatch)
    for name, relax in SERVED:
        tile = harness._tile_result(workload_by_name(name), _spec(relax))
        assert _row(tile) == TABLE["entries"][name][str(relax)]
    assert runs == Counter()
    with pytest.raises(ReproError):
        harness._tile_result(workload_by_name("FFT"), _spec(50))
    assert runs == Counter({("FFT", 50): 1})


@pytest.mark.parametrize("identity", [
    {"tile_elements": TILE // 2, "rng_seed": SEED},
    {"tile_elements": TILE, "rng_seed": SEED + 1},
    {"tile_elements": TILE, "rng_seed": SEED,
     "config": default_config().with_overrides(e_nor=9e-15)},
])
def test_other_identities_are_not_seeded(monkeypatch, identity):
    """The table's header rules another identity out before its entries
    are decoded, and the tile memo is left exactly as it was."""
    kept = {(0, "Sobel", EXACT): "kept"}
    monkeypatch.setattr(comparison, "_TILE_MEMO", dict(kept))
    decoded = []
    loads = json.loads
    monkeypatch.setattr(
        json, "loads", lambda text: decoded.append(text) or loads(text)
    )
    config = identity.get("config", default_config())
    seed_tiles(0, config, identity["tile_elements"], identity["rng_seed"])
    assert comparison._TILE_MEMO == kept
    assert len(decoded) == 1 and '"entries"' not in decoded[0]
    assert list(TABLE)[-1] == "entries"


def test_subprocess_worker_starts_from_the_table():
    """A worker at the defaults prices its first request from the table:
    the request's trace holds no tile execution, and the point equals
    direct, executed pricing."""
    with CrossbarPool(shards=1, runtime="subprocess") as pool:
        result = Client(pool).call("Sobel", relax_bits=8,
                                   dataset_bytes=64 * MIB)
        record = pool.traces.get(result.trace_id)
    assert result.status == "ok"
    layers = {(event.layer, event.kind) for event in record.events}
    assert ("comparison", "tile") not in layers
    assert ("executor", "run") not in layers
    with emptied_memos():
        direct = run_point(workload_by_name("Sobel"), 8, 64 * MIB,
                           ComparisonHarness(tile_elements=TILE,
                                             rng_seed=SEED))
    assert result.point == direct
