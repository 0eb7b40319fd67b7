"""Tests for deterministic runtime fault injection (repro.runtime.chaos)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, FaultError, TransientError
from repro.runtime.campaign import TERMINAL_STATUSES
from repro.runtime.chaos import (
    ChaosInjector,
    ChaosPolicy,
    chaos_table,
    run_chaos_campaign,
)
from repro.runtime.supervisor import ManualClock
from repro.workloads.datagen import seeded_stream


def faulty_resilience_context(policy: ChaosPolicy, stuck_rate: float):
    """A :class:`~repro.resilience.engine.ResilienceContext` whose
    two-block fabric carries chaos-seeded stuck cells: corruption injected
    through :meth:`BlockedCrossbar.attach_fault_injector` rather than as an
    exception, so the full detect/repair loop chews on chaos-controlled
    faults."""
    from repro.crossbar.block import BlockedCrossbar
    from repro.device.variation import FaultInjector, VariationModel
    from repro.resilience.engine import ResilienceContext
    from repro.resilience.policy import ResiliencePolicy

    fabric = BlockedCrossbar(2, 64, 64)
    model = VariationModel(
        stuck_on_rate=stuck_rate / 2, stuck_off_rate=stuck_rate / 2
    )
    for block in range(2):
        block_seed = int(
            seeded_stream(policy.seed, "fabric", block).integers(0, 2**31)
        )
        fabric.attach_fault_injector(
            block, FaultInjector(model, seed=block_seed)
        )
    return ResilienceContext(fabric, ResiliencePolicy(spare_fraction=0.15))


class TestChaosPolicy:
    def test_rates_validated(self):
        with pytest.raises(ConfigurationError):
            ChaosPolicy(transient_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(transient_rate=0.7, latency_rate=0.4)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(latency_spike_s=-1.0)
        with pytest.raises(ConfigurationError):
            ChaosPolicy(seed=-1)


class TestChaosInjector:
    def test_decisions_are_deterministic(self):
        policy = ChaosPolicy(
            transient_rate=0.3, latency_rate=0.2, corrupt_rate=0.1, seed=11
        )
        a = ChaosInjector(policy)
        b = ChaosInjector(policy)
        decisions_a = [a._decide(f"k{i}", j) for i in range(20)
                       for j in range(3)]
        decisions_b = [b._decide(f"k{i}", j) for i in range(20)
                       for j in range(3)]
        assert decisions_a == decisions_b
        assert len(set(decisions_a)) > 1  # actually mixes fault kinds

    def test_zero_rates_never_inject(self):
        injector = ChaosInjector(ChaosPolicy())
        wrapped = injector.wrap("k", lambda: "clean")
        assert all(wrapped() == "clean" for _ in range(20))
        assert injector.total_injected == 0

    def test_transient_injection_raises_transient_error(self):
        injector = ChaosInjector(ChaosPolicy(transient_rate=1.0))
        with pytest.raises(TransientError):
            injector.wrap("k", lambda: "unreached")()
        assert injector.injected["transient"] == 1

    def test_corrupt_injection_raises_fault_error(self):
        """Corruption surfaces as the PR-1 residue-escalation type."""
        injector = ChaosInjector(ChaosPolicy(corrupt_rate=1.0))
        with pytest.raises(FaultError):
            injector.wrap("k", lambda: "unreached")()

    def test_latency_spike_advances_shared_clock(self):
        clock = ManualClock()
        injector = ChaosInjector(
            ChaosPolicy(latency_rate=1.0, latency_spike_s=7.0), clock=clock
        )
        assert injector.wrap("k", lambda: "slow but fine")() == "slow but fine"
        assert clock() == 7.0

    def test_call_index_advances_the_stream(self):
        # With a per-call draw, one key can fault then clear: find a key
        # whose first two draws differ to prove the index matters.
        policy = ChaosPolicy(transient_rate=0.5, seed=5)
        injector = ChaosInjector(policy)
        differing = [
            key for key in (f"k{i}" for i in range(40))
            if injector._decide(key, 0) != injector._decide(key, 1)
        ]
        assert differing


class TestFabricLevelChaos:
    def test_context_carries_seeded_stuck_cells(self):
        """Chaos-seeded corruption through the real PR-1 hooks: the
        resilience loop detects and repairs it during a guarded run."""
        import numpy as np

        from repro.runtime.executor import APIMExecutor
        from repro.workloads.gemm import GEMMWorkload

        policy = ChaosPolicy(seed=50)
        ctx = faulty_resilience_context(policy, stuck_rate=0.004)
        result = APIMExecutor().run(
            GEMMWorkload(), elements=64,
            rng=np.random.default_rng(11), resilience=ctx,
        )
        assert result.qol_percent == 0.0  # healed bit-exact
        assert result.repairs > 0
        assert result.status in ("ok", "retried", "degraded")

    def test_same_seed_same_fabric(self):
        a = faulty_resilience_context(ChaosPolicy(seed=50), stuck_rate=0.004)
        b = faulty_resilience_context(ChaosPolicy(seed=50), stuck_rate=0.004)
        pins_a = [blk.pinned_cells() for blk in a.fabric.blocks]
        pins_b = [blk.pinned_cells() for blk in b.fabric.blocks]
        assert pins_a == pins_b


class TestChaosCampaign:
    GRID = dict(
        workloads=["Robert"], relax_levels=[0, 16], tile_elements=1 << 9
    )

    def test_clean_run_all_ok(self):
        outcome = run_chaos_campaign(
            **self.GRID, policy=ChaosPolicy(seed=3)
        )
        assert outcome.status_counts["ok"] == 2
        assert outcome.completion_yield == 1.0
        assert outcome.total_injected == 0

    def test_faulty_run_loses_nothing(self):
        outcome = run_chaos_campaign(
            **self.GRID,
            policy=ChaosPolicy(
                transient_rate=0.4, latency_rate=0.1, corrupt_rate=0.2,
                seed=0,
            ),
            max_attempts=2,
        )
        assert len(outcome.result.points) == 2
        assert all(
            p.status in TERMINAL_STATUSES for p in outcome.result.points
        )
        assert outcome.status_counts["failed"] == 0

    def test_bit_for_bit_reproducible(self):
        policy = ChaosPolicy(
            transient_rate=0.4, latency_rate=0.1, corrupt_rate=0.2, seed=0
        )
        first = run_chaos_campaign(**self.GRID, policy=policy,
                                   max_attempts=2)
        second = run_chaos_campaign(**self.GRID, policy=policy,
                                    max_attempts=2)
        assert first.result.to_rows() == second.result.to_rows()
        assert first.injected == second.injected

    def test_trace_written_even_with_failures(self, tmp_path):
        trace = tmp_path / "supervision.json"
        run_chaos_campaign(
            **self.GRID,
            policy=ChaosPolicy(transient_rate=0.4, seed=0),
            max_attempts=2,
            trace_path=str(trace),
        )
        payload = json.loads(trace.read_text())
        kinds = {e["name"].split(":")[0] for e in payload["traceEvents"]}
        assert "attempt" in kinds and "success" in kinds

    def test_table_renders_every_outcome(self):
        outcomes = [
            run_chaos_campaign(**self.GRID, policy=ChaosPolicy(seed=3)),
            run_chaos_campaign(
                **self.GRID,
                policy=ChaosPolicy(transient_rate=0.4, seed=0),
                max_attempts=2,
            ),
        ]
        table = chaos_table(outcomes)
        assert "yield" in table
        assert len(table.splitlines()) == 2 + len(outcomes)
