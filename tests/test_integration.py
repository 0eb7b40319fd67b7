"""Cross-layer integration tests.

Each test exercises a realistic multi-subsystem path end to end — the
seams unit tests cannot see: workload -> engine -> executor -> comparison
-> tuner; kernel IR -> engine -> scheduler; microcode ->
controller -> structural fabric.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.approximation import ApproxSpec
from repro.core.engine import APIMEngine
from repro.runtime.comparison import ComparisonHarness
from repro.runtime.executor import APIMExecutor
from repro.runtime.tuner import AdaptiveTuner
from repro.units import GIB
from repro.workloads import workload_by_name


class TestTunedComparisonPath:
    """tuner selection -> harness pricing -> headline claims."""

    @pytest.fixture(scope="class")
    def tuned(self):
        executor = APIMExecutor()
        tuner = AdaptiveTuner(executor)
        workload = workload_by_name("Robert")
        tuning = tuner.tune(workload, elements=1 << 12)
        harness = ComparisonHarness(tile_elements=1 << 12)
        exact = harness.compare(workload, GIB)
        tuned = harness.compare(
            workload, GIB, ApproxSpec.last_stage(tuning.selected_relax_bits)
        )
        return tuning, exact, tuned

    def test_tuned_point_dominates_exact_on_edp(self, tuned):
        tuning, exact, tuned_point = tuned
        assert tuned_point.edp_improvement > exact.edp_improvement

    def test_tuned_point_keeps_qos(self, tuned):
        tuning, _, tuned_point = tuned
        assert tuning.selected_trial.qos_ok
        assert tuned_point.qos_ok

    def test_adaptive_gain_matches_trial_records(self, tuned):
        tuning, exact, tuned_point = tuned
        measured_gain = tuned_point.edp_improvement / exact.edp_improvement
        ledger_gain = (
            tuning.trials[-1].edp / tuning.selected_trial.edp
            if tuning.trials[-1].relax_bits == 0
            else None
        )
        assert measured_gain > 1.5
        if ledger_gain is not None:
            assert measured_gain == pytest.approx(ledger_gain, rel=0.2)


class TestCompilerToSchedulerPath:
    """IR -> engine execution -> lane schedule consistency."""

    def test_kernel_scheduled_and_executed(self, rng):
        from repro.compiler import (
            KernelBuilder,
            ListScheduler,
            evaluate,
            exact_reference,
        )

        b = KernelBuilder("pipeline")
        x = b.input("x")
        y = b.input("y")
        t1 = b.mul(x, b.const(4))
        t2 = b.mul(y, b.const(3 << 14))
        total = b.add(t1, b.shr(t2, 14), width=50)
        b.output("out", total)
        kernel = b.build()

        inputs = {
            "x": rng.integers(0, 1 << 16, 512),
            "y": rng.integers(0, 1 << 16, 512),
        }
        engine = APIMEngine()
        got = evaluate(kernel, engine, inputs)["out"]
        assert np.array_equal(got, exact_reference(kernel, inputs)["out"])

        schedule = ListScheduler(lanes=2).schedule(kernel)
        # The schedule prices multiplies at the random-operand average
        # (popcount N/2); this kernel multiplies by low-popcount constants
        # the engine charges far less for — so the a-priori estimate must
        # upper-bound the measured per-element cost, and both must be
        # dependence-consistent.
        busy = sum(p.end - p.start for p in schedule.placements)
        charged = engine.total_cost.cycles / 512
        assert busy >= charged > 0
        assert schedule.makespan >= schedule.critical_path


class TestMicrocodeOnFaultyFabric:
    """assembled microcode -> controller -> fabric with an injected fault."""

    # The carry of a 1-bit full addition (a=1, b=1, cin=0) by the paper's
    # Eq. 1a NOR schedule; cell (3, 0) holds NOR(a, b).
    PROGRAM = """
    WR b0 r0 0x1 w1
    WR b0 r1 0x1 w1
    WR b0 r2 0x0 w1
    INIT b0 3:0,4:0,5:0,6:0
    NOR b0 0:0,1:0 -> 3:0
    NOR b0 1:0,2:0 -> 4:0
    NOR b0 2:0,0:0 -> 5:0
    NOR b0 3:0,4:0,5:0 -> 6:0
    """

    def test_program_replays_and_faults_surface(self):
        from repro.crossbar.block import BlockedCrossbar
        from repro.crossbar.controller import MemoryController, assemble_program

        program = assemble_program(self.PROGRAM)
        clean = MemoryController(BlockedCrossbar(2, 16, 16))
        clean.run(program)
        assert clean.fabric.block(0).value(6, 0) == 1

        # Same program with NOR(a, b)'s cell stuck on: the controller
        # still runs every command, and the fault reaches the carry.
        faulty = MemoryController(BlockedCrossbar(2, 16, 16))
        faulty.fabric.block(0).pin_cell(3, 0, 1.0)
        faulty.run(program)
        assert faulty.cost.cycles == clean.cost.cycles
        assert faulty.fabric.block(0).value(6, 0) == 0
