"""Tests for the resilience subsystem: BIST, residue, spares, recovery."""

import numpy as np
import pytest

from repro.core.config import APIMConfig, default_config
from repro.crossbar.array import CrossbarArray
from repro.crossbar.block import BlockedCrossbar, RemapTable, SpareRowPool
from repro.crossbar.controller import (
    Command,
    MemoryController,
    assemble,
    format_command,
)
from repro.crossbar.structural_multiplier import StructuralMultiplier
from repro.device.endurance import RotatingAllocator
from repro.device.variation import FaultInjector, VariationModel
from repro.errors import (
    ConfigurationError,
    CrossbarError,
    DeviceError,
    FaultError,
    RecoveryError,
)
from repro.resilience import (
    MarchTester,
    ResilienceContext,
    ResilienceManager,
    ResiliencePolicy,
    product_residue_ok,
    residue3,
    residue_cost,
    run_fault_campaign,
    sum_residue_ok,
)
from repro.runtime.executor import APIMExecutor
from repro.workloads.gemm import GEMMWorkload


def _faulty_fabric(rate=0.003, seeds=(7, 8)):
    fabric = BlockedCrossbar(2, 64, 64)
    model = VariationModel(stuck_on_rate=rate / 2, stuck_off_rate=rate / 2)
    for block, seed in enumerate(seeds):
        fabric.attach_fault_injector(block, FaultInjector(model, seed=seed))
    return fabric


# -- cell pinning (the physical fault model) -------------------------------


class TestPinning:
    def test_pinned_cell_ignores_writes(self):
        array = CrossbarArray(8, 8)
        array.pin_cell(2, 3, 1.0)
        array.set_value(2, 3, 0)
        assert array.value(2, 3) == 1
        array.set_state(2, 3, 0.0)
        assert array.value(2, 3) == 1

    def test_bulk_operations_reassert_pins(self):
        array = CrossbarArray(8, 8)
        array.pin_cell(1, 1, 1.0)
        array.pin_cell(2, 2, 0.0)
        array.clear()
        assert array.value(1, 1) == 1
        array.fill_row(2, 1)
        assert array.value(2, 2) == 0

    def test_pin_level_validated(self):
        array = CrossbarArray(4, 4)
        with pytest.raises(CrossbarError):
            array.pin_cell(0, 0, 1.5)


class TestFaultInjector:
    def test_vectorised_inject_matches_scalar_reference(self):
        """Same RNG stream, same hits, same order as the per-cell loop."""
        model = VariationModel(stuck_on_rate=0.01, stuck_off_rate=0.02)
        array = CrossbarArray(32, 24)
        injector = FaultInjector(model, seed=123)
        hits = injector.inject(array)

        # Reference: the original per-cell double loop over one uniform
        # draw per cell in row-major order.
        rng = np.random.default_rng(123)
        u = rng.uniform(size=(32, 24))
        expected = []
        for row in range(32):
            for col in range(24):
                if u[row, col] < model.stuck_on_rate:
                    expected.append((row, col, "stuck_on"))
                elif u[row, col] < model.stuck_on_rate + model.stuck_off_rate:
                    expected.append((row, col, "stuck_off"))
        assert hits == expected
        assert len(hits) > 0

    def test_attached_faults_survive_magic_writes(self):
        """A pinned stuck-off cell defeats the MAGIC initialise-to-1."""
        fabric = BlockedCrossbar(2, 16, 16)
        injector = FaultInjector(
            VariationModel(stuck_off_rate=0.05), seed=3
        )
        fabric.attach_fault_injector(0, injector)
        assert injector.injected  # attach performed the draw
        row, col, kind = injector.injected[0]
        assert kind == "stuck_off"
        array = fabric.block(0)
        array.set_value(row, col, 1)  # driver write: silently ineffective
        assert array.value(row, col) == 0
        fabric.advance_clock(1)  # post-op hook re-asserts (no-op: pinned)
        assert array.value(row, col) == 0


# -- BIST ------------------------------------------------------------------


class TestMarchBIST:
    def test_scan_finds_exactly_injected_cells(self):
        """No false positives, no false negatives, over seeded patterns."""
        for seed in range(5):
            array = CrossbarArray(24, 16)
            injector = FaultInjector(
                VariationModel(stuck_on_rate=0.02, stuck_off_rate=0.02),
                seed=seed,
            )
            injector.inject(array, pin=True)
            result = MarchTester().scan_array(array)
            assert sorted(result.faults) == sorted(injector.injected)

    def test_clean_array_scans_clean(self):
        array = CrossbarArray(16, 16)
        result = MarchTester().scan_array(array)
        assert result.faults == ()

    def test_scan_restores_state(self):
        array = CrossbarArray(8, 8)
        rng = np.random.default_rng(5)
        for row in range(8):
            array.write_word(row, int(rng.integers(0, 256)), 8)
        before = array.snapshot().copy()
        MarchTester().scan_array(array)
        assert np.array_equal(array.snapshot(), before)

    def test_scan_cost_matches_march_length(self):
        array = CrossbarArray(10, 8)
        result = MarchTester().scan_array(array, rows=[1, 4])
        assert result.cost.cycles == 4 * 2  # w0;r0;w1;r1 over 2 rows
        assert result.cost.cell_writes == 2 * 2 * 8
        assert result.cost.sa_reads == 2 * 2 * 8

    def test_fabric_scan_charges_and_groups_by_block(self):
        fabric = _faulty_fabric(rate=0.01)
        before = fabric.total_cost.cycles
        result = MarchTester().scan_fabric(fabric)
        assert fabric.total_cost.cycles > before
        grouped = result.faulty_rows_by_block()
        assert set(grouped) <= {0, 1}
        assert sum(len(rows) for rows in grouped.values()) > 0

    def test_scan_validates_rows(self):
        array = CrossbarArray(4, 4)
        with pytest.raises(CrossbarError):
            MarchTester().scan_array(array, rows=[9])
        with pytest.raises(CrossbarError):
            MarchTester().scan_array(array, rows=[])


# -- residue code ----------------------------------------------------------


class TestResidue:
    def test_single_bit_corruption_always_detected(self):
        """2^k mod 3 is never 0, so one flipped bit always shifts residue."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            a = int(rng.integers(0, 1 << 16))
            b = int(rng.integers(0, 1 << 16))
            product = a * b
            bit = int(rng.integers(0, 32))
            corrupted = product ^ (1 << bit)
            assert product_residue_ok(a, b, product)
            assert not product_residue_ok(a, b, corrupted)

    def test_sum_residue_detects_single_bit(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            a = int(rng.integers(-(1 << 20), 1 << 20))
            b = int(rng.integers(-(1 << 20), 1 << 20))
            total = a + b
            assert sum_residue_ok(a, b, total)
            assert not sum_residue_ok(a, b, total ^ (1 << 7))

    def test_vectorised_masks(self):
        a = np.array([3, 5, 7])
        b = np.array([11, 13, 17])
        good = a * b
        bad = good.copy()
        bad[1] ^= 1 << 4
        assert product_residue_ok(a, b, good).all()
        mask = product_residue_ok(a, b, bad)
        assert list(mask) == [True, False, True]

    def test_residue3_values(self):
        assert residue3(6) == 0
        assert residue3(-7) == 1
        assert list(residue3(np.array([0, 1, 2, 3]))) == [0, 1, 2, 0]

    def test_residue_cost_scales(self):
        one = residue_cost()
        many = residue_cost(5)
        assert many.cycles == 5 * one.cycles
        assert many.sa_reads == 5 * one.sa_reads


# -- spares, remap, retirement ---------------------------------------------


class TestSpareRepair:
    def test_spare_pool_exhaustion(self):
        pool = SpareRowPool([10, 11])
        assert pool.take() == 10
        assert pool.take() == 11
        assert pool.used == 2
        with pytest.raises(RecoveryError):
            pool.take()

    def test_remap_defaults_to_identity(self):
        table = RemapTable()
        assert table.resolve(0, 5) == 5
        table.retire(0, 5, 60)
        assert table.resolve(0, 5) == 60
        assert table.resolve(1, 5) == 5
        assert len(table) == 1

    def test_retire_row_preserves_readable_data(self):
        fabric = BlockedCrossbar(2, 32, 32)
        fabric.reserve_spares(0.1)
        fabric.write_word(0, 3, 0xBEEF, 16)
        spare = fabric.retire_row(0, 3)
        assert spare >= fabric.data_rows
        assert fabric.resolve_row(0, 3) == spare
        # The logical address still reads the data, via the remap.
        assert fabric.read_word(0, 3, 16) == 0xBEEF

    def test_retire_row_exhaustion_raises(self):
        fabric = BlockedCrossbar(2, 16, 16)
        fabric.reserve_spares(0.07)  # ceil(16 * 0.07) = 2 spares
        fabric.retire_row(0, 0)
        fabric.retire_row(0, 1)
        with pytest.raises(RecoveryError):
            fabric.retire_row(0, 2)

    def test_reserve_spares_rules(self):
        fabric = BlockedCrossbar(2, 16, 16)
        assert fabric.reserve_spares(0.1) == 2
        assert fabric.reserve_spares(0.1) == 2  # same fraction: no-op
        assert fabric.data_rows == 14
        fabric.retire_row(0, 0)
        with pytest.raises(CrossbarError):
            fabric.reserve_spares(0.3)  # resize after retirement
        clean = BlockedCrossbar(2, 16, 16)
        with pytest.raises(CrossbarError):
            clean.reserve_spares(1.5)
        with pytest.raises(RecoveryError):
            clean.spare_pool(0)  # nothing reserved yet

    def test_rotating_allocator_retire(self):
        alloc = RotatingAllocator(8)
        alloc.retire(3)
        alloc.retire(3)  # idempotent
        assert 3 in alloc.retired
        rows = alloc.alloc(7)
        assert 3 not in rows
        with pytest.raises(DeviceError):
            alloc.retire(99)  # never allocatable

    def test_retire_opcode_round_trip_and_execution(self):
        command = Command("RETIRE", (0, 3))
        line = format_command(command)
        assert line == "RETIRE b0 r3"
        assert assemble(line) == command
        fabric = BlockedCrossbar(2, 32, 32)
        fabric.reserve_spares(0.1)
        fabric.write_word(0, 3, 77, 8)
        controller = MemoryController(fabric)
        controller.execute(command)
        assert fabric.resolve_row(0, 3) >= fabric.data_rows
        assert fabric.read_word(0, 3, 8) == 77


# -- structural recovery loop ----------------------------------------------


class TestStructuralRecovery:
    def test_guarded_multiply_heals_and_is_correct(self):
        mult = StructuralMultiplier(8)
        model = VariationModel(stuck_on_rate=0.002, stuck_off_rate=0.002)
        for block in range(3):
            mult.fabric.attach_fault_injector(
                block, FaultInjector(model, seed=40 + block)
            )
        manager = ResilienceManager(ResiliencePolicy(spare_fraction=0.15))
        manager.heal_multiplier(mult)
        assert manager.repairs > 0
        rng = np.random.default_rng(9)
        for _ in range(4):
            a, b = (int(v) for v in rng.integers(0, 256, size=2))
            guarded = manager.guarded_multiply(mult, a, b)
            assert guarded.product == a * b
        kinds = {event.kind for event in manager.events}
        assert "bist_scan" in kinds and "row_retired" in kinds

    def test_spare_budget_fail_policy(self):
        mult = StructuralMultiplier(8)
        model = VariationModel(stuck_on_rate=0.01, stuck_off_rate=0.01)
        for block in range(3):
            mult.fabric.attach_fault_injector(
                block, FaultInjector(model, seed=60 + block)
            )
        manager = ResilienceManager(
            ResiliencePolicy(spare_fraction=0.01, on_exhausted="fail")
        )
        with pytest.raises(RecoveryError):
            manager.heal_multiplier(mult)

    def test_disabled_policy_raises_on_detection(self):
        mult = StructuralMultiplier(8)
        model = VariationModel(stuck_on_rate=0.01, stuck_off_rate=0.01)
        for block in range(3):
            mult.fabric.attach_fault_injector(
                block, FaultInjector(model, seed=40 + block)
            )
        manager = ResilienceManager(ResiliencePolicy(enabled=False))
        rng = np.random.default_rng(1)
        with pytest.raises(FaultError):
            for _ in range(8):  # some operand pair will hit a stuck cell
                a, b = (int(v) for v in rng.integers(0, 256, size=2))
                manager.guarded_multiply(mult, a, b)

    def test_campaign_grid_shape_and_yield(self):
        points = run_fault_campaign(
            rates=[0.0, 0.004],
            spare_fractions=[0.1],
            trials=2,
            word_bits=6,
            ops_per_trial=2,
        )
        assert len(points) == 2
        clean, faulty = points
        assert clean.yield_fraction == 1.0
        assert clean.avg_repairs == 0.0
        assert faulty.avg_repairs > 0.0
        assert 0.0 <= faulty.recovered_fraction <= 1.0


# -- workload-scale recovery (the end-to-end demo) --------------------------


class TestEndToEndResilience:
    RATE = 0.003  # 0.3% stuck cells, well above the 0.1% demo floor

    def test_faulty_die_recovers_bit_exact(self):
        ctx = ResilienceContext(
            _faulty_fabric(self.RATE),
            ResiliencePolicy(spare_fraction=0.15),
        )
        result = APIMExecutor().run(
            GEMMWorkload(),
            elements=64,
            rng=np.random.default_rng(11),
            resilience=ctx,
        )
        assert np.array_equal(result.output, result.reference)
        assert result.qol_percent == 0.0
        assert result.repairs > 0
        assert result.faults_detected > 0

    def test_same_die_without_resilience_is_corrupted(self):
        ctx = ResilienceContext(
            _faulty_fabric(self.RATE),
            ResiliencePolicy(enabled=False, spare_fraction=0.15),
        )
        result = APIMExecutor().run(
            GEMMWorkload(),
            elements=64,
            rng=np.random.default_rng(11),
            resilience=ctx,
        )
        assert not np.array_equal(result.output, result.reference)
        assert result.qol_percent > 0.0
        assert result.repairs == 0

    def test_runtime_detection_without_power_on_scan(self):
        """Residue checks catch live corruption and heal it in-operation."""
        ctx = ResilienceContext(
            _faulty_fabric(self.RATE),
            ResiliencePolicy(spare_fraction=0.15, scan_on_start=False),
        )
        engine = ctx.make_engine()
        # Wide operands: the stored products span ~50+ columns, so the
        # injected stuck cells actually sit under live bits.
        a = np.arange(-20, 44, dtype=np.int64) * (2**22 + 12345)
        b = np.arange(1, 65, dtype=np.int64) * (2**21 + 6789)
        out = engine.mul(a, b)
        assert np.array_equal(out, a * b)
        assert engine.faults_detected > 0
        assert engine.retries > 0
        assert engine.repairs > 0

    def test_fault_free_overhead_is_small(self):
        executor = APIMExecutor()
        workload = GEMMWorkload()
        baseline = executor.run(
            workload, elements=64, rng=np.random.default_rng(11)
        )
        ctx = ResilienceContext(
            BlockedCrossbar(2, 64, 64),
            ResiliencePolicy(spare_fraction=0.05, scan_on_start=False),
        )
        guarded = executor.run(
            workload,
            elements=64,
            rng=np.random.default_rng(11),
            resilience=ctx,
        )
        assert np.array_equal(guarded.output, baseline.output)
        assert guarded.cost.cycles < 1.10 * baseline.cost.cycles

    def test_plain_run_reports_zero_reliability_activity(self):
        result = APIMExecutor().run(
            GEMMWorkload(), elements=16, rng=np.random.default_rng(1)
        )
        assert result.faults_detected == 0
        assert result.repairs == 0
        assert result.retries == 0


# -- policy and config plumbing --------------------------------------------


class TestPolicyAndConfig:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(spare_fraction=0.7)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(on_exhausted="panic")
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(on_unrecoverable="shrug")

    def test_policy_overrides(self):
        policy = ResiliencePolicy().with_overrides(max_retries=7)
        assert policy.max_retries == 7
        assert policy.enabled

    def test_config_spare_fraction(self):
        config = default_config()
        assert 0 < config.spare_row_fraction < 0.5
        assert config.spare_rows_per_block >= 1
        with pytest.raises(ConfigurationError):
            APIMConfig(spare_row_fraction=0.6)

    def test_area_model_charges_spares(self):
        from repro.analysis.area import AreaModel

        report = AreaModel().unit_area(num_blocks=8)
        assert report.spare_rows_mm2 > 0.0
        assert report.total_mm2 > report.spare_rows_mm2
        no_spares = default_config().with_overrides(spare_row_fraction=0.0)
        baseline = AreaModel(no_spares).unit_area(num_blocks=8)
        assert baseline.spare_rows_mm2 == 0.0
        assert report.total_mm2 > baseline.total_mm2
