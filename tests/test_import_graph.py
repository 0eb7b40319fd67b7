"""A serving process loads only the code pricing and serving run.

The packages resolve their re-exports on first use (``repro._lazy``), so
a thread-runtime server never compiles the structural crossbar simulator,
the device models, the adaptive tuner, the telemetry pipeline, the
prior-adder baselines, the subprocess runtime or the chaos injector, and
never imports ``numpy.ma``.  A default pool that serves no search prices
from the shipped tile table, so it executes no tile and never imports
``numpy.random`` or ``numpy.fft``.  Every public name still resolves
where it always did.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

SCRIPT = """
import json, os, sys, tempfile
from repro.serving import CrossbarPool

with tempfile.TemporaryDirectory() as tmp:
    journal = os.path.join(tmp, "requests.jsonl")
    with CrossbarPool(shards=1, tile_elements=512, runtime="thread",
                      journal=journal) as pool:
        priced = pool.submit("Sobel", relax_bits=8, dataset_bytes=64 << 20)
        searched, _, _ = pool.admit_search([0, 1] * 128, k=5)
        for request_id in (priced, searched):
            assert pool.result(request_id, timeout=60.0).status == "ok"
import repro.serving.frontend
print(json.dumps(sorted(sys.modules)))
"""

#: Modules (and their submodules) a serving process must not load.
NOT_LOADED = (
    "numpy.ma",
    "repro.crossbar",
    "repro.device",
    "repro.runtime.tuner",
    "repro.observability.timeseries",
    "repro.baselines.pc_adder",
    "repro.serving.runtime.subprocess",
    "repro.serving.runtime.protocol",
    "repro.runtime.chaos",
)

#: A default-config inline pool without search: the six paper workloads and
#: GEMM at three relax levels, then the modules loaded and the tile runs.
TABLE_SCRIPT = """
import json, sys
from repro.observability.registry import default_registry
from repro.serving import Client, CrossbarPool

with CrossbarPool(shards=1, runtime="inline") as pool:
    client = Client(pool)
    for name in ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen",
                 "QuasiR", "GEMM"):
        for relax in (0, 8, 32):
            assert client.call(name, relax_bits=relax).status == "ok"
family = default_registry().get("repro_pricing_cold_work_total")
executed = [child.value for labels, child in family.samples()
            if labels["source"] == "executed"] if family else []
print(json.dumps([sorted(sys.modules), sum(executed)]))
"""

PACKAGES = (
    "repro",
    "repro.runtime",
    "repro.baselines",
    "repro.observability",
    "repro.search",
    "repro.serving",
    "repro.serving.runtime",
    "repro.crossbar",
    "repro.device",
)


def test_serving_process_loads_no_unused_code():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout
    loaded = json.loads(out)
    assert {"repro.serving.frontend", "repro.search.index"} <= set(loaded)
    assert [
        name for name in loaded
        if name in NOT_LOADED or name.startswith(
            tuple(f"{module}." for module in NOT_LOADED))
    ] == []


def test_default_pool_prices_from_the_tile_table():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, "-c", TABLE_SCRIPT], env=env, check=True,
        capture_output=True, text=True, timeout=120,
    ).stdout
    loaded, executed = json.loads(out)
    assert "repro.serving.pool" in loaded
    assert [name for name in loaded
            if name.startswith(("numpy.random", "numpy.fft"))] == []
    assert executed == 0


def test_public_names_still_resolve():
    import repro
    from repro.baselines import PCAdderModel
    from repro.core.engine import APIMEngine
    from repro.runtime.tuner import AdaptiveTuner
    from repro.search import MagicHammingKernel

    assert repro.APIMEngine is APIMEngine
    assert repro.AdaptiveTuner is AdaptiveTuner
    assert MagicHammingKernel.__module__ == "repro.search.kernel"
    assert PCAdderModel.__module__ == "repro.baselines.pc_adder"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= set(namespace) & set(dir(module))
    with pytest.raises(AttributeError):
        module.no_such_name
