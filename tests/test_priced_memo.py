"""The per-harness memo of priced points in front of the tile cache.

A priced point is a pure function of ``(workload name, spec,
dataset_bytes)``, so :meth:`ComparisonHarness.compare` answers a repeat
from its memo.  Pinned here: a memo hit equals a fresh harness's pricing
bit for bit (int and float twins of a size included), the memo stays
within :data:`PRICED_CAPACITY` and evicts oldest first without touching
the tile cache, concurrent callers all get the one stored instance, and
the shared result cannot be mutated.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.approximation import EXACT, ApproxSpec
from repro.runtime import comparison
from repro.runtime.comparison import ComparisonHarness, ComparisonResult
from repro.units import GIB, MIB
from repro.workloads import workload_by_name

TILE = 1 << 9
WORKLOADS = ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen", "QuasiR", "GEMM")
FIELDS = [field.name for field in dataclasses.fields(ComparisonResult)]

#: One harness for every example, so hits accumulate across them.
_MEMOISED = ComparisonHarness(tile_elements=TILE)


def _spec(relax: int) -> ApproxSpec:
    return ApproxSpec.last_stage(relax) if relax else EXACT


def _fields(result: ComparisonResult) -> list[str]:
    """Every field as its ``repr``: floats must match to the last bit."""
    return [repr(getattr(result, name)) for name in FIELDS]


@given(
    name=st.sampled_from(WORKLOADS),
    relax=st.integers(0, 32),
    size=st.integers(1 * MIB, 2 * GIB),
    float_first=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_a_hit_equals_fresh_pricing(name, relax, size, float_first):
    """Price a size, then hit it with its int/float twin: the hit is the
    stored instance and equals a fresh harness pricing the twin."""
    workload, spec = workload_by_name(name), _spec(relax)
    first, twin = (float(size), size) if float_first else (size, float(size))
    stored = _MEMOISED.compare(workload, first, spec)
    hit = _MEMOISED.compare(workload, twin, spec)
    assert hit is stored
    fresh = ComparisonHarness(tile_elements=TILE).compare(workload, twin, spec)
    assert _fields(hit) == _fields(fresh)


def test_memo_is_bounded_oldest_first():
    """Capacity + 100 distinct sizes: the oldest 100 are evicted, every
    answer stays exact, and the tile cache holds one entry per key."""
    capacity = comparison.PRICED_CAPACITY
    harness = ComparisonHarness(tile_elements=TILE)
    workload = workload_by_name("Robert")
    sizes = [64 * MIB + index for index in range(capacity + 100)]
    priced = [harness.compare(workload, size) for size in sizes]
    memo = harness._priced
    assert len(memo) == capacity
    assert list(memo) == [("Robert", EXACT, size) for size in sizes[100:]]
    assert list(harness._tile_cache) == [("Robert", EXACT)]
    fresh = ComparisonHarness(tile_elements=TILE)
    for index in (0, 99, 100, capacity // 2, len(sizes) - 1):
        again = harness.compare(workload, sizes[index])
        assert _fields(again) == _fields(priced[index])
        assert _fields(again) == _fields(fresh.compare(workload, sizes[index]))
    assert len(memo) <= capacity
    assert list(harness._tile_cache) == [("Robert", EXACT)]


def test_concurrent_callers_share_one_result_per_point():
    """Eight threads price three sizes on one cold harness at once: every
    caller of a size gets the one instance the memo kept."""
    harness = ComparisonHarness(tile_elements=TILE)
    workload = workload_by_name("Sobel")
    spec = _spec(8)
    sizes = (64 * MIB, 256 * MIB, GIB)
    threads_n, rounds = 8, 50
    barrier = threading.Barrier(threads_n)
    seen: list[list[ComparisonResult]] = [[] for _ in range(threads_n)]

    def hammer(index):
        barrier.wait(timeout=10.0)
        for round_ in range(rounds):
            size = sizes[(index + round_) % len(sizes)]
            seen[index].append(harness.compare(workload, size, spec))

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
    kept = {size: harness.compare(workload, size, spec) for size in sizes}
    for results in seen:
        assert len(results) == rounds
        for result in results:
            assert result is kept[result.dataset_bytes]
    fresh = ComparisonHarness(tile_elements=TILE)
    for size, result in kept.items():
        assert _fields(result) == _fields(fresh.compare(workload, size, spec))
    assert list(harness._tile_cache) == [("Sobel", spec)]


def test_a_shared_result_is_frozen():
    result = ComparisonHarness(tile_elements=TILE).compare(
        workload_by_name("Robert"), 64 * MIB
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.apim_time = 0.0
