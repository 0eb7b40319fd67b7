"""Reference-model property test for the cache simulator.

The set-associative LRU cache is validated against an independent
brute-force implementation (dict of lists, linear scans) on random access
traces — the strongest form of correctness evidence for stateful
simulators: two implementations, one specification, arbitrary inputs.
The chunked batch path (:meth:`CacheHierarchy.run`) is held to both: the
per-access :meth:`Cache.access` hierarchy and a brute-force one.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import cache as cache_module
from repro.baselines.cache import Cache, CacheHierarchy
from repro.errors import ConfigurationError


class BruteForceLRU:
    """An obviously-correct set-associative LRU cache."""

    def __init__(self, size_bytes: int, line_bytes: int, ways: int) -> None:
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        # Per set: list of (tag, dirty), most-recently-used LAST.
        self.sets: dict[int, list[list]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0

    def access(self, addr: int, write: bool = False) -> bool:
        line = addr // self.line_bytes
        index = line % self.num_sets
        tag = line // self.num_sets
        entries = self.sets.setdefault(index, [])
        for position, entry in enumerate(entries):
            if entry[0] == tag:
                self.hits += 1
                entries.append(entries.pop(position))  # touch
                if write:
                    entry[1] = True
                return True
        self.misses += 1
        if len(entries) >= self.ways:
            victim = entries.pop(0)  # least recently used
            self.evictions += 1
            if victim[1]:
                self.writebacks += 1
        entries.append([tag, write])
        return False


TRACE = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4095),  # addresses
        st.booleans(),                             # write flag
    ),
    min_size=1,
    max_size=300,
)

GEOMETRY = st.sampled_from(
    [
        (256, 32, 2),
        (512, 64, 2),
        (1024, 64, 4),
        (2048, 32, 8),
    ]
)


class TestAgainstReferenceModel:
    @settings(max_examples=150, deadline=None)
    @given(GEOMETRY, TRACE)
    def test_hit_miss_sequences_identical(self, geometry, trace):
        size, line, ways = geometry
        cache = Cache(size, line_bytes=line, ways=ways)
        reference = BruteForceLRU(size, line, ways)
        for addr, write in trace:
            assert cache.access(addr, write) == reference.access(addr, write)
        assert cache.stats.hits == reference.hits
        assert cache.stats.misses == reference.misses
        assert cache.stats.writebacks == reference.writebacks

    @settings(max_examples=60, deadline=None)
    @given(GEOMETRY, TRACE)
    def test_stats_accounting_consistent(self, geometry, trace):
        size, line, ways = geometry
        cache = Cache(size, line_bytes=line, ways=ways)
        for addr, write in trace:
            cache.access(addr, write)
        assert cache.stats.accesses == len(trace)
        assert cache.stats.misses <= cache.stats.accesses
        assert cache.stats.writebacks <= cache.stats.evictions


#: Small geometries (1-4 sets, 1-4 ways) so evictions and dirty
#: writebacks are dense: (line bytes, sets, ways).
LEVEL = st.tuples(
    st.sampled_from([16, 32, 64]),
    st.sampled_from([1, 2, 4]),
    st.integers(min_value=1, max_value=4),
)


def _cache(line, sets, ways, name):
    return Cache(line * sets * ways, line_bytes=line, ways=ways, name=name)


def _stats(cache):
    s = cache.stats
    return s.hits, s.misses, s.evictions, s.writebacks


def _dirty(cache):
    """Dirty lines resident in ``cache``."""
    return sum(dirty for ways in cache._sets for dirty in ways.values())


class TestBatchPath:
    @settings(max_examples=200, deadline=None)
    @given(LEVEL, LEVEL, TRACE, st.data())
    def test_run_matches_per_access_and_brute_force(
        self, l1_geometry, l2_geometry, trace, data
    ):
        """Per-level counts, final stats and a following flush agree
        whatever the chunk size and however the trace is split into
        :meth:`run` calls (state carries across both kinds of boundary)."""
        # Both levels share a line size, as every modelled stack does.
        line = l1_geometry[0]
        l2_geometry = (line,) + l2_geometry[1:]
        batch = CacheHierarchy(
            _cache(*l1_geometry, "l1"), _cache(*l2_geometry, "l2")
        )
        stepped = CacheHierarchy(
            _cache(*l1_geometry, "l1"), _cache(*l2_geometry, "l2")
        )
        brute = [
            BruteForceLRU(line * sets * ways, line, ways)
            for line, sets, ways in (l1_geometry, l2_geometry)
        ]

        expected = {"l1": 0, "l2": 0, "dram": 0}
        brute_served = [0, 0, 0]
        for addr, write in trace:
            expected[stepped.access(addr, write)] += 1
            level = next(
                (i for i, cache in enumerate(brute)
                 if cache.access(addr, write)),
                2,
            )
            brute_served[level] += 1

        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(trace)), max_size=4), label="cuts"
        ))
        served = [0, 0, 0]
        chunk = data.draw(st.integers(1, 64), label="chunk")
        with mock.patch.object(cache_module, "CHUNK_ACCESSES", chunk):
            for low, high in zip([0, *cuts], [*cuts, len(trace)]):
                counts = batch.run(iter(trace[low:high]))
                served = [a + b for a, b in zip(served, counts)]

        assert served == [expected["l1"], expected["l2"], expected["dram"]]
        assert served == brute_served
        assert batch.dram_accesses == stepped.dram_accesses
        for mine, theirs, oracle in zip(
            (batch.l1, batch.l2), (stepped.l1, stepped.l2), brute
        ):
            assert _stats(mine) == _stats(theirs) == (
                oracle.hits, oracle.misses, oracle.evictions,
                oracle.writebacks,
            )
            dirty = sum(
                entry[1] for entries in oracle.sets.values()
                for entry in entries
            )
            assert _dirty(mine) == _dirty(theirs) == dirty

    def test_negative_address_rejected(self):
        stack = CacheHierarchy(_cache(64, 2, 2, "l1"), _cache(64, 4, 2, "l2"))
        with pytest.raises(ConfigurationError):
            stack.run([(0, False), (-64, True)])
