"""Unit tests for endurance/wear modelling (repro.device.endurance)."""

from __future__ import annotations

import pytest

from repro.device.endurance import (
    EnduranceModel,
    RotatingAllocator,
    WearTracker,
)
from repro.errors import DeviceError


def _imbalance(tracker: WearTracker) -> float:
    """Hottest-row writes over the per-row mean (1.0 = perfectly flat)."""
    return float(tracker._writes.max() / tracker._writes.mean())


class TestEnduranceModel:
    def test_lifetime_operations(self):
        model = EnduranceModel(write_budget=1e6)
        assert model.lifetime_operations(100) == pytest.approx(1e4)

    def test_validation(self):
        with pytest.raises(DeviceError):
            EnduranceModel(write_budget=0)
        with pytest.raises(DeviceError):
            EnduranceModel().lifetime_operations(-1)


class TestWearTracker:
    def test_records_and_totals(self):
        tracker = WearTracker(8)
        tracker.record(0, 10)
        tracker.record(3, 5)
        tracker.record(0, 2)
        assert tracker.total_writes == 17

    def test_validation(self):
        with pytest.raises(DeviceError):
            WearTracker(0)
        tracker = WearTracker(4)
        with pytest.raises(DeviceError):
            tracker.record(4)
        with pytest.raises(DeviceError):
            tracker.record(0, -1)


class TestRotatingAllocator:
    def test_allocations_rotate(self):
        allocator = RotatingAllocator(8)
        first = allocator.alloc(2)
        allocator.free(first)
        second = allocator.alloc(2)
        assert first != second  # rotation moved on despite the free

    def test_wraps_around(self):
        allocator = RotatingAllocator(4)
        seen = set()
        for _ in range(4):
            rows = allocator.alloc(1)
            seen.update(rows)
            allocator.free(rows)
        assert seen == {0, 1, 2, 3}

    def test_respects_reservations(self):
        allocator = RotatingAllocator(8, reserved=(0, 1))
        rows = allocator.alloc(6)
        assert 0 not in rows and 1 not in rows

    def test_exhaustion(self):
        allocator = RotatingAllocator(4)
        allocator.alloc(4)
        with pytest.raises(DeviceError):
            allocator.alloc(1)

    def test_free_of_foreign_row_rejected(self):
        allocator = RotatingAllocator(4, reserved=(3,))
        with pytest.raises(DeviceError):
            allocator.free([3])

    def test_flattens_wear_vs_stack_allocator(self):
        """The levelling claim, measured: repeated alloc/free cycles leave
        the rotating allocator with near-flat per-row wear while a fixed
        stack-style scratch allocator (always the lowest-numbered free
        rows, the naive controller policy) hammers the same rows."""
        rotating = RotatingAllocator(32)
        wear_rot = WearTracker(32)
        wear_stack = WearTracker(32)
        stack_free = set(range(32))
        for _ in range(200):
            rows = rotating.alloc(4)
            for row in rows:
                wear_rot.record(row)
            rotating.free(rows)

            rows = sorted(stack_free)[:4]
            for row in rows:
                stack_free.discard(row)
                wear_stack.record(row)
            stack_free.update(rows)
        assert _imbalance(wear_rot) < 1.2
        assert _imbalance(wear_stack) > 4.0

    def test_validation(self):
        with pytest.raises(DeviceError):
            RotatingAllocator(0)
        with pytest.raises(DeviceError):
            RotatingAllocator(2, reserved=(0, 1))
