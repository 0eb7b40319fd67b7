"""Unit tests for endurance/wear modelling (repro.device.endurance)."""

from __future__ import annotations

import pytest

from repro.device.endurance import (
    EnduranceModel,
    RotatingAllocator,
    WearTracker,
)
from repro.errors import DeviceError


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
        assert allocator.alloc(2) == [0, 1]
        assert allocator.alloc(2) == [2, 3]  # continues from the cursor

    def test_respects_reservations(self):
        allocator = RotatingAllocator(8, reserved=(0, 1))
        rows = allocator.alloc(6)
        assert 0 not in rows and 1 not in rows

    def test_exhaustion(self):
        allocator = RotatingAllocator(4)
        allocator.alloc(4)
        with pytest.raises(DeviceError):
            allocator.alloc(1)

    def test_validation(self):
        with pytest.raises(DeviceError):
            RotatingAllocator(0)
        with pytest.raises(DeviceError):
            RotatingAllocator(2, reserved=(0, 1))
