"""Trace-driven cache and TLB simulators.

The paper obtains its GPU-side numbers from multi2sim, a cycle-accurate
CPU-GPU simulator.  We replace it with an analytic GPU model
(:mod:`repro.baselines.gpu`) whose *memory behaviour* is measured by these
simulators: workloads emit address traces over a scaled tile, the hierarchy
counts hits/misses per level, and the GPU model extrapolates per-element
statistics to the full dataset.

Components:

- :class:`Cache` — set-associative, true-LRU, write-back/write-allocate.
- :class:`CacheHierarchy` — an inclusive two-level stack over DRAM;
  returns, per access, the level that served it.  :meth:`CacheHierarchy.run`
  serves a whole trace in fixed chunks with a vectorised lockstep LRU whose
  counts and final contents equal the per-access path's exactly.
- :class:`TLB` — a fully-associative LRU translation buffer; misses model
  the page-walk cost that grows with dataset footprint (one of the two
  mechanisms behind Figure 5's widening GPU gap).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Cache", "CacheHierarchy", "CacheStats", "TLB"]

#: Accesses :meth:`CacheHierarchy.run` materialises at a time: bounds the
#: batch path's transient memory whatever the trace length.
CHUNK_ACCESSES = 1 << 14

_ACCESS = np.dtype([("addr", np.int64), ("write", np.bool_)])


def _is_power_of_two(value: int) -> bool:
    return value > 0 and value & (value - 1) == 0


@dataclass
class CacheStats:
    """Hit/miss counters of one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        """Total accesses observed."""
        return self.hits + self.misses


class Cache:
    """A set-associative LRU cache.

    Parameters
    ----------
    size_bytes:
        Total capacity; must be ``line_bytes * ways * sets``.
    line_bytes:
        Cache-line size (power of two).
    ways:
        Associativity.
    name:
        Label for reports.
    """

    def __init__(
        self,
        size_bytes: int,
        line_bytes: int = 64,
        ways: int = 8,
        name: str = "cache",
    ) -> None:
        if not _is_power_of_two(line_bytes):
            raise ConfigurationError(f"line size {line_bytes} not a power of two")
        if ways <= 0:
            raise ConfigurationError(f"ways must be positive: {ways}")
        if size_bytes <= 0 or size_bytes % (line_bytes * ways):
            raise ConfigurationError(
                f"capacity {size_bytes} not divisible by line*ways "
                f"({line_bytes}*{ways})"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = size_bytes // (line_bytes * ways)
        if not _is_power_of_two(self.num_sets):
            raise ConfigurationError(
                f"set count {self.num_sets} not a power of two"
            )
        self.name = name
        self.stats = CacheStats()
        # sets[i] maps tag -> dirty flag, ordered LRU-first.
        self._sets: list[OrderedDict[int, bool]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]

    def _locate(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def access(self, addr: int, write: bool = False) -> bool:
        """Access one address; returns True on hit.

        On a miss the line is allocated (write-allocate) and the LRU victim
        evicted, counting a writeback when dirty.
        """
        if addr < 0:
            raise ConfigurationError(f"negative address {addr}")
        index, tag = self._locate(addr)
        ways = self._sets[index]
        if tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            if write:
                ways[tag] = True
            return True
        self.stats.misses += 1
        if len(ways) >= self.ways:
            _victim, dirty = ways.popitem(last=False)
            self.stats.evictions += 1
            if dirty:
                self.stats.writebacks += 1
        ways[tag] = write
        return False


class _LockstepLRU:
    """A :class:`Cache`'s contents as ``[sets, ways]`` arrays, for batches.

    Sets are independent, so a batch is replayed in rounds: in each round
    every set with work left takes its next access, and all of them are
    updated at once with array operations.  Empty ways hold tag ``-1`` and
    last use ``-1``, so the least-recently-used way (``argmin`` of last
    use) is an empty one whenever the set is not full, exactly like the
    reference's append.  Last uses are a running access clock, compared
    only within a set.
    """

    def __init__(self, cache: Cache) -> None:
        self.cache = cache
        self.line_shift = cache.line_bytes.bit_length() - 1
        self.set_shift = cache.num_sets.bit_length() - 1
        shape = (cache.num_sets, cache.ways)
        self.tags = np.full(shape, -1, dtype=np.int64)
        self.last = np.full(shape, -1, dtype=np.int64)
        self.dirty = np.zeros(shape, dtype=np.bool_)
        for index, ways in enumerate(cache._sets):
            if ways:  # resident lines, LRU-first
                count = len(ways)
                self.tags[index, :count] = list(ways)
                self.dirty[index, :count] = list(ways.values())
                self.last[index, :count] = np.arange(count)
        self.clock = cache.ways

    def access(self, addrs: np.ndarray, writes: np.ndarray) -> np.ndarray:
        """Serve a batch in order; returns its miss mask.

        Updates the cache's stats exactly as per-access :meth:`Cache.access`
        calls would.
        """
        count = len(addrs)
        if not count:
            return np.zeros(0, dtype=np.bool_)
        lines = addrs >> self.line_shift
        sets = lines & (self.cache.num_sets - 1)
        # Per set, in access order (a stable sort keeps order within a set).
        order = np.argsort(sets, kind="stable")
        sets = sets[order]
        tags = lines[order] >> self.set_shift
        writes = writes[order]
        # An access to the line its set touched last is a hit on that set's
        # MRU line and leaves the LRU order as it was: only the first access
        # of each such run needs simulating, with the run's writes OR-ed in.
        head = np.ones(count, dtype=np.bool_)
        head[1:] = (sets[1:] != sets[:-1]) | (tags[1:] != tags[:-1])
        starts = np.flatnonzero(head)
        run_dirty = np.logical_or.reduceat(writes, starts)
        sets, tags, position = sets[starts], tags[starts], order[starts]
        # Round r serves every set's r-th remaining access; order the runs
        # round-major so each round is one contiguous slice.
        rank = np.arange(len(starts)) - np.searchsorted(sets, sets)
        by_round = np.argsort(rank, kind="stable")
        sets, tags = sets[by_round], tags[by_round]
        run_dirty, position = run_dirty[by_round], position[by_round]
        stamp = position + self.clock
        ways = self.cache.ways
        tag_of = self.tags.reshape(-1)  # flat views, indexed by set*ways+way
        last_of = self.last.reshape(-1)
        dirty_of = self.dirty.reshape(-1)
        # What the chosen way held before each access: the line itself on a
        # hit, else the LRU victim (tag -1 when the way was empty).
        before = np.empty_like(tags)
        before_dirty = np.empty(len(tags), dtype=np.bool_)
        low = 0
        for high in np.cumsum(np.bincount(rank)).tolist():
            s, t = sets[low:high], tags[low:high]
            match = self.tags[s] == t[:, None]
            hit = match.any(axis=1)
            slot = s * ways + np.where(
                hit, match.argmax(axis=1), self.last[s].argmin(axis=1)
            )
            before[low:high] = tag_of[slot]
            was_dirty = before_dirty[low:high] = dirty_of[slot]
            dirty_of[slot] = run_dirty[low:high] | (hit & was_dirty)
            tag_of[slot] = t
            last_of[slot] = stamp[low:high]
            low = high
        self.clock += count
        missed = before != tags
        evicted = missed & (before >= 0)
        misses = int(np.count_nonzero(missed))
        stats = self.cache.stats
        stats.hits += count - misses
        stats.misses += misses
        stats.evictions += int(np.count_nonzero(evicted))
        stats.writebacks += int(np.count_nonzero(evicted & before_dirty))
        miss_mask = np.zeros(count, dtype=np.bool_)
        miss_mask[position[missed]] = True
        return miss_mask

    def store(self) -> None:
        """Write the arrays back into the cache's per-set LRU dicts."""
        order = np.argsort(self.last, axis=1)  # LRU-first; empty ways lead
        tags = np.take_along_axis(self.tags, order, axis=1).tolist()
        dirty = np.take_along_axis(self.dirty, order, axis=1).tolist()
        self.cache._sets = [
            OrderedDict((tag, flag) for tag, flag in zip(row, flags)
                        if tag >= 0)
            for row, flags in zip(tags, dirty)
        ]


class CacheHierarchy:
    """A two-level cache stack over DRAM.

    :meth:`access` walks L1 then L2; the return value names the level that
    served the request (``"l1"``, ``"l2"`` or ``"dram"``), which the GPU
    model converts into latency and energy.  :meth:`run` serves a whole
    trace at once with the same result.
    """

    def __init__(self, l1: Cache, l2: Cache) -> None:
        self.l1 = l1
        self.l2 = l2
        self.dram_accesses = 0

    def access(self, addr: int, write: bool = False) -> str:
        """Access the stack; returns the serving level."""
        if self.l1.access(addr, write):
            return "l1"
        if self.l2.access(addr, write):
            return "l2"
        self.dram_accesses += 1
        return "dram"

    def run(self, trace: Iterable[tuple[int, bool]]) -> tuple[int, int, int]:
        """Serve a trace of ``(addr, is_write)``; returns the accesses
        served by ``(l1, l2, dram)``.

        Equivalent to :meth:`access` per element — counts, cache stats and
        final contents are identical — but consumes the trace
        :data:`CHUNK_ACCESSES` accesses at a time and simulates each chunk
        with array operations.  L1 misses feed L2 in trace order.  A
        negative address raises :class:`ConfigurationError` before its
        chunk is simulated.
        """
        l1, l2 = _LockstepLRU(self.l1), _LockstepLRU(self.l2)
        served = [0, 0, 0]
        accesses = iter(trace)
        try:
            while True:
                batch = np.fromiter(
                    islice(accesses, CHUNK_ACCESSES), dtype=_ACCESS
                )
                if not len(batch):
                    break
                addrs, writes = batch["addr"], batch["write"]
                if addrs.min() < 0:
                    raise ConfigurationError(
                        f"negative address {int(addrs.min())}"
                    )
                to_l2 = l1.access(addrs, writes)
                to_dram = l2.access(addrs[to_l2], writes[to_l2])
                dram = int(np.count_nonzero(to_dram))
                served[0] += len(batch) - len(to_dram)
                served[1] += len(to_dram) - dram
                served[2] += dram
        finally:
            l1.store()
            l2.store()
            self.dram_accesses += served[2]
        return served[0], served[1], served[2]


class TLB:
    """Fully-associative LRU translation look-aside buffer.

    Coverage is ``entries * page_bytes``; working sets beyond it miss on
    (almost) every new page, and each miss costs a multi-level page walk
    whose own memory references degrade with page-table footprint — the GPU
    model prices that via :meth:`walk_references`.
    """

    def __init__(self, entries: int = 1024, page_bytes: int = 4096) -> None:
        if entries <= 0:
            raise ConfigurationError(f"entries must be positive: {entries}")
        if not _is_power_of_two(page_bytes):
            raise ConfigurationError(f"page size {page_bytes} not a power of two")
        self.entries = entries
        self.page_bytes = page_bytes
        self.hits = 0
        self.misses = 0
        self._pages: OrderedDict[int, None] = OrderedDict()

    def access(self, addr: int) -> bool:
        """Translate one address; returns True on TLB hit."""
        if addr < 0:
            raise ConfigurationError(f"negative address {addr}")
        page = addr // self.page_bytes
        if page in self._pages:
            self.hits += 1
            self._pages.move_to_end(page)
            return True
        self.misses += 1
        if len(self._pages) >= self.entries:
            self._pages.popitem(last=False)
        self._pages[page] = None
        return False

    @staticmethod
    def walk_references(footprint_bytes: float, page_bytes: int = 4096) -> int:
        """Radix page-walk references needed for a footprint.

        A 4-level x86-style walk touches one entry per level; levels whose
        table spans a single page are effectively free (always cached), so
        small footprints walk cheaply and gigabyte footprints pay the full
        four references.
        """
        if footprint_bytes <= 0:
            raise ConfigurationError("footprint must be positive")
        pages = max(1, int(footprint_bytes // page_bytes))
        entries_per_level = page_bytes // 8  # 8-byte PTEs
        levels = 1
        while pages > entries_per_level**levels and levels < 4:
            levels += 1
        return levels
