"""Endurance and wear modelling for the APIM crossbar.

MAGIC computation writes cells constantly — every NOR output, every copy,
every carry write-back — and RRAM endurance is finite (10^6-10^12
switching events depending on technology).  The paper notes its fast adder
trades "increased energy consumption and number of writes in memory" for
latency; this module quantifies the consequence:

- :class:`EnduranceModel` — lifetime estimation from a per-cell write
  budget and the writes each operation costs.
- :class:`WearTracker` — per-row write accounting over a block.
- :class:`RotatingAllocator` — a round-robin row allocator that takes
  worn-out or faulty rows out of its rotation for good.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError

__all__ = ["EnduranceModel", "WearTracker", "RotatingAllocator"]


@dataclass(frozen=True)
class EnduranceModel:
    """Technology endurance figures and lifetime arithmetic.

    Attributes
    ----------
    write_budget:
        Switching events a cell tolerates before failure (HfOx RRAM is
        commonly quoted at 10^6-10^10; default 1e9).
    """

    write_budget: float = 1e9

    def __post_init__(self) -> None:
        if self.write_budget <= 0:
            raise DeviceError("write_budget must be positive")

    def lifetime_operations(self, writes_per_operation: float) -> float:
        """Operations (e.g. multiplications) until the hottest cell dies."""
        if writes_per_operation < 0:
            raise DeviceError("writes per operation must be non-negative")
        if writes_per_operation == 0:
            return float("inf")
        return self.write_budget / writes_per_operation


class WearTracker:
    """Per-row write counters for one crossbar block."""

    def __init__(self, rows: int) -> None:
        if rows <= 0:
            raise DeviceError(f"rows must be positive: {rows}")
        self.rows = rows
        self._writes = np.zeros(rows, dtype=np.int64)

    def record(self, row: int, writes: int = 1) -> None:
        """Charge ``writes`` cell writes to ``row``."""
        if not 0 <= row < self.rows:
            raise DeviceError(f"row {row} outside [0, {self.rows})")
        if writes < 0:
            raise DeviceError("writes must be non-negative")
        self._writes[row] += writes

    @property
    def total_writes(self) -> int:
        """All writes recorded."""
        return int(self._writes.sum())


class RotatingAllocator:
    """Round-robin row allocator.

    Allocations walk the row space from a rotation cursor, skipping rows
    already taken; :meth:`retire` removes a dead row from the rotation.
    The resilience layer draws each block's element slots and relocation
    rows from one.
    """

    def __init__(self, rows: int, reserved: tuple[int, ...] = ()) -> None:
        if rows <= 0:
            raise DeviceError(f"rows must be positive: {rows}")
        self.rows = rows
        self._eligible = [r for r in range(rows) if r not in set(reserved)]
        if not self._eligible:
            raise DeviceError("no allocatable rows after reservations")
        self._free = set(self._eligible)
        self._cursor = 0
        self._retired: set[int] = set()

    def alloc(self, count: int = 1) -> list[int]:
        """Take ``count`` rows, continuing from the rotation cursor."""
        if count > len(self._free):
            raise DeviceError(
                f"block out of scratch rows (need {count}, "
                f"have {len(self._free)})"
            )
        taken: list[int] = []
        probes = 0
        n = len(self._eligible)
        while len(taken) < count:
            row = self._eligible[self._cursor % n]
            self._cursor += 1
            probes += 1
            if row in self._free:
                self._free.discard(row)
                taken.append(row)
            if probes > 2 * n + count:  # pragma: no cover - defensive
                raise DeviceError("allocator cursor failed to progress")
        return taken

    def retire(self, row: int) -> None:
        """Permanently remove a worn-out or faulty row from the rotation.

        The resilience layer calls this after a BIST scan condemns a row:
        wear levelling must stop cycling allocations through dead rows.
        Retiring a row that was never allocatable is an error; retiring the
        same row twice is idempotent.
        """
        if row not in set(self._eligible) and row not in self._retired:
            raise DeviceError(f"row {row} was never allocatable")
        self._eligible = [r for r in self._eligible if r != row]
        self._free.discard(row)
        self._retired.add(row)
        if not self._eligible:
            raise DeviceError("all allocatable rows are retired")

    @property
    def retired(self) -> frozenset[int]:
        """Rows permanently removed from the rotation."""
        return frozenset(self._retired)
