"""Behaviour goldens for the declared metric families.

Two files under ``tests/data`` pin what the instrumentation layer
exposes, independently of how it is written:

- ``instrument_families.json`` — every family a fresh registry holds
  after its first instrumented write: ``(name, kind, help, labelnames,
  buckets)``;
- ``instrument_series.json`` — the sorted ``(family, labels)`` keys (no
  values) that one fixed scenario materialises: a seeded supervised
  campaign under chaos (retries plus a tripping breaker, journaled),
  then an inline pool session (submit, keyed duplicate, 409 conflict,
  ``/search``).

If a family is added or changed on purpose, regenerate both with
``PYTHONPATH=src python -c "import tests.test_metric_families as t;
t.write_goldens()"`` and review the diff.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.errors import DuplicateRequestError, ObservabilityError
from repro.observability import MetricsRegistry, set_default_registry
from repro.observability.instruments import set_build_info
from repro.runtime.campaign import run_campaign
from repro.runtime.chaos import ChaosInjector, ChaosPolicy
from repro.runtime.supervisor import (
    CircuitBreaker,
    ManualClock,
    RetryPolicy,
    Supervisor,
)
from repro.serving import CrossbarPool
from tests.conftest import emptied_memos

DATA = os.path.join(os.path.dirname(__file__), "data")
FAMILIES_GOLDEN = os.path.join(DATA, "instrument_families.json")
SERIES_GOLDEN = os.path.join(DATA, "instrument_series.json")
DOCS = os.path.join(
    os.path.dirname(__file__), os.pardir, "docs", "observability.md"
)


def _with_fresh_registry(scenario) -> MetricsRegistry:
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    try:
        scenario()
    finally:
        set_default_registry(previous)
    return registry


def family_schema() -> list[dict]:
    """Every family a fresh registry holds after one instrumented write."""
    registry = _with_fresh_registry(
        lambda: set_build_info(version="v", python="p", config_hash="c")
    )
    return [
        {
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "labelnames": list(family.labelnames),
            "buckets": (
                list(family.buckets) if family.kind == "histogram" else None
            ),
        }
        for family in registry.families()
    ]


def _scenario(journal_dir: str) -> None:
    clock = ManualClock()
    chaos = ChaosInjector(ChaosPolicy(transient_rate=0.5, seed=4), clock=clock)
    supervisor = Supervisor(
        retry=RetryPolicy(max_attempts=2, base_delay=0.01, jitter_seed=4),
        breaker=CircuitBreaker(failure_threshold=1, cooldown_s=0.0, clock=clock),
        clock=clock,
    )
    run_campaign(
        ["Robert", "Sobel"], [0, 16],
        tile_elements=1 << 9,
        supervisor=supervisor,
        chaos=chaos,
        seed=4,
        checkpoint=os.path.join(journal_dir, "grid.jsonl"),
    )
    with CrossbarPool(
        shards=1, tile_elements=1 << 9, runtime="inline",
        journal=os.path.join(journal_dir, "serve.jsonl"),
    ) as pool:
        first = pool.submit("Robert", relax_bits=8)
        keyed, _ = pool.admit("Robert", relax_bits=16, idempotency_key="k")
        again, duplicate = pool.admit(
            "Robert", relax_bits=16, idempotency_key="k"
        )
        assert again == keyed and duplicate
        with pytest.raises(DuplicateRequestError):
            pool.admit("Sobel", relax_bits=16, idempotency_key="k")
        query = np.random.default_rng(7).integers(
            0, 2, pool.search_index().dim, dtype=np.uint8
        )
        searched, _ = pool.admit_search(query, k=5, relax_bits=8)
        for request_id in (first, keyed, searched):
            assert pool.result(request_id, timeout=30.0) is not None


def series_keys(journal_dir: str) -> list[list]:
    """Sorted ``[family, [[label, value], ...]]`` keys of the scenario.

    The process-wide locality and tile memos are emptied for the run:
    each miss's ``source`` and the executor series depend on them.
    """
    with emptied_memos():
        registry = _with_fresh_registry(lambda: _scenario(journal_dir))
    return sorted(
        [family.name, sorted([k, v] for k, v in labels.items())]
        for family in registry.families()
        for labels, _ in family.samples()
    )


def write_goldens() -> None:
    """Regenerate both golden files (see the module docstring)."""
    import tempfile

    with open(FAMILIES_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(family_schema(), handle, indent=1)
        handle.write("\n")
    with tempfile.TemporaryDirectory() as scratch:
        keys = series_keys(scratch)
    with open(SERIES_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(keys, handle, indent=1)
        handle.write("\n")


def _load(path: str):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def test_family_schema_matches_golden():
    assert family_schema() == _load(FAMILIES_GOLDEN)


def test_scenario_series_set_matches_golden(tmp_path):
    assert series_keys(str(tmp_path)) == _load(SERIES_GOLDEN)


def test_every_declared_family_is_documented():
    from repro.observability.instruments import FAMILIES

    with open(DOCS, encoding="utf-8") as handle:
        docs = handle.read()
    missing = [f.name for f in FAMILIES if f"`{f.name}`" not in docs]
    assert not missing, f"undocumented in docs/observability.md: {missing}"


def test_conflicting_reregistration_still_raises():
    registry = _with_fresh_registry(
        lambda: set_build_info(version="v", python="p", config_hash="c")
    )
    with pytest.raises(ObservabilityError):
        registry.counter("repro_serving_admission_total", "", ("other",))
    with pytest.raises(ObservabilityError):
        registry.gauge("repro_executor_runs_total", "")
    with pytest.raises(ObservabilityError):
        registry.histogram(
            "repro_serving_batch_size", "", (), buckets=(1.0, 3.0)
        )
