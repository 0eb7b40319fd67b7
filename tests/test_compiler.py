"""Unit tests for the kernel compiler (repro.compiler)."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.compiler import (
    KernelBuilder,
    ListScheduler,
    OpKind,
    evaluate,
    exact_reference,
    op_cycles,
)
from repro.core.approximation import ApproxSpec
from repro.core.config import APIMConfig
from repro.core.engine import APIMEngine
from repro.errors import ConfigurationError, WorkloadError


def saxpy_kernel():
    """out = (3.5 * x + y) in Q14."""
    b = KernelBuilder("saxpy")
    x = b.input("x")
    y = b.input("y")
    a = b.const(int(3.5 * (1 << 14)))
    ax = b.mul(a, x)
    y_scaled = b.shl(y, 14)
    total = b.add(ax, y_scaled, width=52)
    b.output("out", b.shr(total, 14))
    return b.build()


def diamond_kernel():
    """Two independent multiplies feeding one sum (a parallelism test)."""
    b = KernelBuilder("diamond")
    x = b.input("x")
    p1 = b.mul(x, b.const(3))
    p2 = b.mul(x, b.const(5))
    p3 = b.mul(x, b.const(7))
    b.output("out", b.sum([p1, p2, p3], width=52))
    return b.build()


def placements(schedule):
    """Each node's placement in ``schedule``, by node id."""
    return {item.node_id: item for item in schedule.placements}


class TestKernelBuilder:
    def test_builds_and_counts(self):
        kernel = saxpy_kernel()
        counts = Counter(node.kind for node in kernel.nodes)
        assert counts[OpKind.MUL] == 1
        assert counts[OpKind.ADD] == 1
        assert kernel.arithmetic_ops() == 2

    def test_inputs_and_outputs_registered(self):
        kernel = saxpy_kernel()
        assert set(kernel.inputs) == {"x", "y"}
        assert set(kernel.outputs) == {"out"}

    def test_node_list_is_topological(self):
        kernel = saxpy_kernel()
        for node in kernel.nodes:
            assert all(op < node.id for op in node.operands)

    def test_consumers_reverse_edges(self):
        kernel = diamond_kernel()
        consumers = kernel.consumers()
        x_id = kernel.inputs["x"]
        assert len(consumers[x_id]) == 3

    def test_duplicate_input_rejected(self):
        b = KernelBuilder("k")
        b.input("x")
        with pytest.raises(WorkloadError):
            b.input("x")

    def test_forward_reference_rejected(self):
        b = KernelBuilder("k")
        x = b.input("x")
        with pytest.raises(WorkloadError):
            b.add(x, 99)

    def test_no_outputs_rejected(self):
        b = KernelBuilder("k")
        b.input("x")
        with pytest.raises(WorkloadError):
            b.build()

    def test_dead_node_rejected(self):
        b = KernelBuilder("k")
        x = b.input("x")
        b.mul(x, x)  # dead: never feeds an output
        b.output("out", x)
        with pytest.raises(WorkloadError):
            b.build()

    def test_wrong_arity_rejected(self):
        b = KernelBuilder("k")
        with pytest.raises(WorkloadError):
            b.sum([])

    def test_negative_shift_rejected(self):
        b = KernelBuilder("k")
        x = b.input("x")
        with pytest.raises(WorkloadError):
            b.shr(x, -1)


class TestEvaluation:
    def test_exact_engine_matches_reference(self, rng):
        kernel = saxpy_kernel()
        inputs = {
            "x": rng.integers(0, 1 << 16, 500),
            "y": rng.integers(0, 1 << 16, 500),
        }
        engine = APIMEngine()
        got = evaluate(kernel, engine, inputs)
        want = exact_reference(kernel, inputs)
        assert np.array_equal(got["out"], want["out"])

    def test_reference_matches_formula(self, rng):
        kernel = saxpy_kernel()
        x = rng.integers(0, 1 << 16, 200)
        y = rng.integers(0, 1 << 16, 200)
        out = exact_reference(kernel, {"x": x, "y": y})["out"]
        expected = (int(3.5 * (1 << 14)) * x + (y << 14)) >> 14
        assert np.array_equal(out, expected)

    def test_engine_cost_charged(self, rng):
        kernel = diamond_kernel()
        engine = APIMEngine()
        evaluate(kernel, engine, {"x": rng.integers(0, 1 << 10, 100)})
        assert engine.mul_count == 300
        assert engine.total_cost.cycles > 0

    def test_approximate_evaluation(self, rng):
        kernel = saxpy_kernel()
        inputs = {
            "x": rng.integers(1 << 12, 1 << 16, 500),
            "y": rng.integers(1 << 12, 1 << 16, 500),
        }
        want = exact_reference(kernel, inputs)["out"].astype(np.float64)
        engine = APIMEngine(spec=ApproxSpec.last_stage(16))
        got = evaluate(kernel, engine, inputs)["out"].astype(np.float64)
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1)
        assert rel.mean() < 0.01

    def test_missing_input_rejected(self):
        with pytest.raises(WorkloadError):
            evaluate(saxpy_kernel(), APIMEngine(), {"x": np.arange(3)})

    def test_extra_input_rejected(self):
        with pytest.raises(WorkloadError):
            evaluate(
                saxpy_kernel(),
                APIMEngine(),
                {"x": np.arange(3), "y": np.arange(3), "z": np.arange(3)},
            )


class TestScheduler:
    def test_dependencies_respected(self):
        kernel = saxpy_kernel()
        placed = placements(ListScheduler(lanes=4).schedule(kernel))
        for node in kernel.nodes:
            end_of_ops = max((placed[i].end for i in node.operands), default=0)
            assert placed[node.id].start >= end_of_ops

    def test_makespan_at_least_critical_path(self):
        kernel = diamond_kernel()
        scheduler = ListScheduler(lanes=2)
        schedule = scheduler.schedule(kernel)
        assert schedule.makespan >= schedule.critical_path

    def test_single_lane_serialises(self):
        kernel = diamond_kernel()
        one = ListScheduler(lanes=1).schedule(kernel)
        busy = sum(p.end - p.start for p in one.placements)
        assert one.makespan == busy

    def test_more_lanes_never_slower(self):
        kernel = diamond_kernel()
        makespans = [
            ListScheduler(lanes=n).schedule(kernel).makespan for n in (1, 2, 4)
        ]
        assert makespans == sorted(makespans, reverse=True)

    def test_parallel_multiplies_overlap(self):
        kernel = diamond_kernel()
        placed = placements(ListScheduler(lanes=3).schedule(kernel))
        mul_ids = [n.id for n in kernel.nodes if n.kind is OpKind.MUL]
        starts = {placed[i].start for i in mul_ids}
        assert starts == {0}  # all three start together

    def test_utilization_bounds(self):
        schedule = ListScheduler(lanes=2).schedule(diamond_kernel())
        assert 0 < schedule.utilization <= 1.0

    def test_approximation_shrinks_makespan(self):
        kernel = diamond_kernel()
        exact = ListScheduler(lanes=1).schedule(kernel)
        approx = ListScheduler(
            lanes=1, spec=ApproxSpec.last_stage(32)
        ).schedule(kernel)
        assert approx.makespan < exact.makespan

    def test_free_nodes_take_no_lane_time(self):
        kernel = saxpy_kernel()
        placed = placements(ListScheduler(lanes=1).schedule(kernel))
        for node in kernel.nodes:
            if not node.kind.is_arithmetic:
                assert placed[node.id].start == placed[node.id].end

    def test_op_cycles_consistency(self):
        kernel = saxpy_kernel()
        config = APIMConfig()
        for node in kernel.nodes:
            cycles = op_cycles(node, config)
            assert cycles >= 0
            if node.kind.is_arithmetic:
                assert cycles > 0

    def test_invalid_lane_count(self):
        with pytest.raises(ConfigurationError):
            ListScheduler(lanes=0)
