"""Unit tests for the cache and TLB simulators (repro.baselines.cache)."""

from __future__ import annotations

import pytest

from repro.baselines.cache import Cache, CacheHierarchy, TLB
from repro.errors import ConfigurationError


class TestCacheBasics:
    def test_first_access_misses_second_hits(self):
        cache = Cache(1024, line_bytes=64, ways=2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_same_line_hits(self):
        cache = Cache(1024, line_bytes=64, ways=2)
        cache.access(0)
        assert cache.access(63)
        assert not cache.access(64)

    def test_miss_rate(self):
        cache = Cache(1024, line_bytes=64, ways=2)
        for addr in range(0, 64 * 8, 64):
            cache.access(addr)
        assert cache.stats.misses == cache.stats.accesses == 8

    def test_negative_address_rejected(self):
        with pytest.raises(ConfigurationError):
            Cache(1024).access(-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"size_bytes": 1000, "line_bytes": 64, "ways": 2},  # not divisible
            {"size_bytes": 1024, "line_bytes": 60},  # non-pow2 line
            {"size_bytes": 1024, "line_bytes": 64, "ways": 0},
            {"size_bytes": 0},
            {"size_bytes": 64 * 2 * 3, "line_bytes": 64, "ways": 2},  # 3 sets
        ],
    )
    def test_invalid_geometry_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            Cache(**kwargs)


class TestLruReplacement:
    def test_lru_victim_selection(self):
        # 2-way, 1 set: after A, B, touching A makes B the victim of C.
        cache = Cache(128, line_bytes=64, ways=2)
        cache.access(0)      # A
        cache.access(64)     # B
        cache.access(0)      # touch A
        cache.access(128)    # C evicts B
        assert cache.access(0)        # A survived
        assert not cache.access(64)   # B was evicted

    def test_eviction_counted(self):
        cache = Cache(128, line_bytes=64, ways=2)
        for addr in (0, 64, 128):
            cache.access(addr)
        assert cache.stats.evictions == 1

    def test_dirty_eviction_writes_back(self):
        cache = Cache(128, line_bytes=64, ways=2)
        cache.access(0, write=True)
        cache.access(64)
        cache.access(128)  # evicts dirty line 0
        assert cache.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        cache = Cache(128, line_bytes=64, ways=2)
        for addr in (0, 64, 128):
            cache.access(addr)
        assert cache.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        cache = Cache(128, line_bytes=64, ways=2)
        cache.access(0)
        cache.access(0, write=True)
        cache.access(64)
        cache.access(128)  # evicts line 0, dirtied by the write hit
        assert cache.stats.writebacks == 1

    def test_working_set_within_capacity_all_hits(self):
        cache = Cache(4096, line_bytes=64, ways=4)
        addresses = list(range(0, 4096, 64))
        for addr in addresses:
            cache.access(addr)
        for _ in range(3):
            for addr in addresses:
                assert cache.access(addr)

    def test_working_set_beyond_capacity_thrashes(self):
        cache = Cache(1024, line_bytes=64, ways=2)
        addresses = list(range(0, 8192, 64))
        for _ in range(3):
            for addr in addresses:
                cache.access(addr)
        assert cache.stats.misses > 0.9 * cache.stats.accesses


class TestHierarchy:
    def _stack(self):
        return CacheHierarchy(
            Cache(512, line_bytes=64, ways=2, name="l1"),
            Cache(4096, line_bytes=64, ways=4, name="l2"),
        )

    def test_first_touch_goes_to_dram(self):
        stack = self._stack()
        assert stack.access(0) == "dram"
        assert stack.dram_accesses == 1

    def test_second_touch_hits_l1(self):
        stack = self._stack()
        stack.access(0)
        assert stack.access(0) == "l1"

    def test_l1_victim_found_in_l2(self):
        stack = self._stack()
        addresses = list(range(0, 2048, 64))
        for addr in addresses:
            stack.access(addr)
        # 0 has long left L1 (512 B) but still fits L2 (4096 B).
        assert stack.access(0) == "l2"


class TestTLB:
    def test_page_locality(self):
        tlb = TLB(entries=4)
        assert not tlb.access(0)
        assert tlb.access(4095)
        assert not tlb.access(4096)

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.access(0)
        tlb.access(4096)
        tlb.access(0)          # touch page 0
        tlb.access(2 * 4096)   # evicts page 1
        assert tlb.access(0)
        assert not tlb.access(4096)

    def test_miss_rate(self):
        tlb = TLB(entries=2)
        tlb.access(0)
        tlb.access(0)
        assert (tlb.hits, tlb.misses) == (1, 1)

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            TLB(entries=0)
        with pytest.raises(ConfigurationError):
            TLB(page_bytes=1000)

    def test_walk_references_grow_with_footprint(self):
        small = TLB.walk_references(1 << 20)   # 1 MB
        large = TLB.walk_references(1 << 34)   # 16 GB
        assert 1 <= small <= large <= 4

    def test_walk_references_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            TLB.walk_references(0)
