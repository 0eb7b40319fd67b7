"""The process-wide memo of priced points in front of the tile memo.

A priced point is a pure function of the harness identity (APIM config,
GPU config, tile elements, rng seed) and ``(workload name, spec,
dataset_bytes)``, so :meth:`ComparisonHarness.compare` answers a repeat
from one memo shared by every harness in the process.  Pinned here: a
memo hit is the stored instance and equals pricing with the memos
emptied bit for bit (int and float twins of a size included), harnesses
of equal identity share points and tiles while harnesses that differ in
one identity field share neither, the memo stays within
:data:`PRICED_CAPACITY` and evicts oldest first without touching the
tile memo, concurrent callers all get the one stored instance, and the
shared result cannot be mutated.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import gpu as gpu_module
from repro.baselines.gpu import GPUConfig, GPUModel
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import default_config
from repro.runtime import comparison
from repro.runtime.comparison import ComparisonHarness, ComparisonResult
from repro.units import GIB, MIB
from repro.workloads import workload_by_name
from tests.conftest import emptied_memos

TILE = 1 << 9
WORKLOADS = ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen", "QuasiR", "GEMM")
FIELDS = [field.name for field in dataclasses.fields(ComparisonResult)]

#: One harness for every example, so hits accumulate across them.
_MEMOISED = ComparisonHarness(tile_elements=TILE)

#: Harness arguments that differ from the default identity in exactly
#: one field each.
VARIANTS = {
    "apim_config": {"config": default_config().with_overrides(
        mult_rows_per_lane=96)},
    "gpu_config": {"gpu": GPUModel(GPUConfig(static_power=80.0))},
    "tile_elements": {"tile_elements": 2 * TILE},
    "rng_seed": {"rng_seed": 7},
}


def _spec(relax: int) -> ApproxSpec:
    return ApproxSpec.last_stage(relax) if relax else EXACT


def _fields(result: ComparisonResult) -> list[str]:
    """Every field as its ``repr``: floats must match to the last bit."""
    return [repr(getattr(result, name)) for name in FIELDS]


def _fresh(workload, size, spec, **harness) -> ComparisonResult:
    """Price on a new harness under :func:`emptied_memos`, so nothing is
    read back from the priced or tile memo under test.  The locality memo
    comes back as a copy: its entries are the shipped table (or earlier
    simulations, bit-identical per tests/test_locality_golden.py), and
    simulating them again would cost ~0.4 s per workload and test nothing
    here."""
    locality = dict(gpu_module._LOCALITY_MEMO)
    with emptied_memos():
        gpu_module._LOCALITY_MEMO = locality
        return ComparisonHarness(**{"tile_elements": TILE, **harness}).compare(
            workload, size, spec
        )


@given(
    name=st.sampled_from(WORKLOADS),
    relax=st.integers(0, 32),
    size=st.integers(1 * MIB, 2 * GIB),
    float_first=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_a_hit_equals_fresh_pricing(name, relax, size, float_first):
    """Price a size, then hit it with its int/float twin: the hit is the
    stored instance and equals fresh pricing of the twin."""
    workload, spec = workload_by_name(name), _spec(relax)
    first, twin = (float(size), size) if float_first else (size, float(size))
    stored = _MEMOISED.compare(workload, first, spec)
    hit = _MEMOISED.compare(workload, twin, spec)
    assert hit is stored
    assert _fields(hit) == _fields(_fresh(workload, twin, spec))


@given(
    name=st.sampled_from(WORKLOADS),
    relax=st.integers(0, 32),
    size=st.integers(1 * MIB, 2 * GIB),
)
@settings(max_examples=25, deadline=None)
def test_the_key_is_the_whole_identity(name, relax, size):
    """Harnesses of equal identity share one point and one tile; a
    harness that differs in one identity field shares neither; every
    answer equals fresh pricing."""
    workload, spec = workload_by_name(name), _spec(relax)
    base = ComparisonHarness(tile_elements=TILE)
    twin = ComparisonHarness(
        config=default_config(), gpu=GPUModel(GPUConfig()),
        tile_elements=TILE, rng_seed=2017,
    )
    point = base.compare(workload, size, spec)
    assert twin.compare(workload, size, spec) is point
    tile = base._tile_result(workload, spec)
    assert twin._tile_result(workload, spec) is tile
    assert _fields(point) == _fields(_fresh(workload, size, spec))
    for field, harness in VARIANTS.items():
        other = ComparisonHarness(**{"tile_elements": TILE, **harness})
        assert other.compare(workload, size, spec) is not point, field
        assert other._tile_result(workload, spec) is not tile, field
        assert _fields(other.compare(workload, size, spec)) == _fields(
            _fresh(workload, size, spec, **harness)
        ), field


def test_memo_is_bounded_oldest_first(cold_memos):
    """Capacity + 100 distinct sizes: the oldest 100 are evicted, every
    answer stays exact, and the tile memo holds one entry per key."""
    capacity = comparison.PRICED_CAPACITY
    harness = ComparisonHarness(tile_elements=TILE)
    identity = harness._identity
    workload = workload_by_name("Robert")
    sizes = [64 * MIB + index for index in range(capacity + 100)]
    priced = [harness.compare(workload, size) for size in sizes]
    memo = comparison._PRICED
    assert len(memo) == capacity
    assert list(memo) == [
        (identity, "Robert", EXACT, size) for size in sizes[100:]
    ]
    assert list(comparison._TILE_MEMO) == [(identity, "Robert", EXACT)]
    for index in (0, 99, 100, capacity // 2, len(sizes) - 1):
        again = harness.compare(workload, sizes[index])
        assert _fields(again) == _fields(priced[index])
        assert _fields(again) == _fields(_fresh(workload, sizes[index], EXACT))
    assert len(memo) <= capacity
    assert list(comparison._TILE_MEMO) == [(identity, "Robert", EXACT)]


def test_concurrent_callers_share_one_result_per_point(cold_memos):
    """Eight threads price three sizes on eight cold harnesses of one
    identity at once: every caller of a size gets the one instance the
    memo kept."""
    threads_n, rounds = 8, 50
    harnesses = [ComparisonHarness(tile_elements=TILE)
                 for _ in range(threads_n)]
    workload = workload_by_name("Sobel")
    spec = _spec(8)
    sizes = (64 * MIB, 256 * MIB, GIB)
    barrier = threading.Barrier(threads_n)
    seen: list[list[ComparisonResult]] = [[] for _ in range(threads_n)]

    def hammer(index):
        barrier.wait(timeout=10.0)
        for round_ in range(rounds):
            size = sizes[(index + round_) % len(sizes)]
            seen[index].append(harnesses[index].compare(workload, size, spec))

    threads = [threading.Thread(target=hammer, args=(i,))
               for i in range(threads_n)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    harness = harnesses[0]
    kept = {size: harness.compare(workload, size, spec) for size in sizes}
    for results in seen:
        assert len(results) == rounds
        for result in results:
            assert result is kept[result.dataset_bytes]
    for size, result in kept.items():
        assert _fields(result) == _fields(_fresh(workload, size, spec))
    assert list(comparison._TILE_MEMO) == [(harness._identity, "Sobel", spec)]


def test_a_shared_result_is_frozen():
    result = ComparisonHarness(tile_elements=TILE).compare(
        workload_by_name("Robert"), 64 * MIB
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.apim_time = 0.0
