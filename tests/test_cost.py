"""Unit tests for cost accounting (repro.core.cost)."""

from __future__ import annotations

import pytest

from repro.core.cost import Cost, CostLedger, ENERGY_CATEGORIES
from repro.errors import ConfigurationError


class TestCostAlgebra:
    def test_addition_merges_all_fields(self):
        a = Cost(cycles=1, nor_ops=2, cell_writes=3, sa_reads=4, maj_ops=5,
                 interconnect_bits=6)
        b = Cost(cycles=10, nor_ops=20, cell_writes=30, sa_reads=40,
                 maj_ops=50, interconnect_bits=60)
        total = a + b
        assert total == Cost(11, 22, 33, 44, 55, 66)

    def test_sum_builtin_with_zero_start(self):
        costs = [Cost(cycles=i) for i in range(5)]
        assert sum(costs, Cost()).cycles == 10

    def test_scaled(self):
        cost = Cost(cycles=3, nor_ops=7).scaled(4)
        assert cost.cycles == 12 and cost.nor_ops == 28

    def test_scaled_zero_is_zero(self):
        assert Cost(cycles=5, maj_ops=2).scaled(0) == Cost()

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            Cost(cycles=1).scaled(-1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Cost().cycles = 5  # type: ignore[misc]


class TestCostPricing:
    def test_time_divides_by_lanes(self, config):
        cost = Cost(cycles=1000)
        assert cost.time(config, lanes=10) == pytest.approx(
            cost.time(config, lanes=1) / 10
        )

    def test_time_uses_cycle_time(self, config):
        assert Cost(cycles=1).time(config) == pytest.approx(config.cycle_time)

    def test_zero_lanes_rejected(self, config):
        with pytest.raises(ConfigurationError):
            Cost(cycles=1).time(config, lanes=0)

    def test_energy_breakdown_categories(self, config):
        breakdown = Cost(cycles=1).energy_breakdown(config)
        assert set(breakdown) == set(ENERGY_CATEGORIES)

    def test_energy_prices_each_counter(self, config):
        cost = Cost(nor_ops=10, cell_writes=3, sa_reads=7, maj_ops=2,
                    interconnect_bits=5)
        breakdown = cost.energy_breakdown(config)
        assert breakdown["nor"] == pytest.approx(10 * config.e_nor)
        assert breakdown["write"] == pytest.approx(3 * config.e_write)
        assert breakdown["sa_read"] == pytest.approx(7 * config.e_sa_read)
        assert breakdown["maj"] == pytest.approx(2 * config.e_maj)
        assert breakdown["interconnect"] == pytest.approx(
            5 * config.e_interconnect
        )

    def test_peripheral_energy_scales_with_cycles(self, config):
        one = Cost(cycles=100).energy_breakdown(config)["peripheral"]
        two = Cost(cycles=200).energy_breakdown(config)["peripheral"]
        assert two == pytest.approx(2 * one)

    def test_static_energy_scales_with_blocks_and_time(self, config):
        cost = Cost(cycles=1000)
        e1 = cost.energy_breakdown(config, active_blocks=1)["static"]
        e4 = cost.energy_breakdown(config, active_blocks=4)["static"]
        assert e4 == pytest.approx(4 * e1)

    def test_edp_is_energy_times_time(self, config):
        cost = Cost(cycles=500, nor_ops=100)
        assert cost.edp(config) == pytest.approx(
            cost.energy(config) * cost.time(config)
        )

    def test_more_lanes_reduce_edp(self, config):
        cost = Cost(cycles=1000, nor_ops=100)
        assert cost.edp(config, lanes=16) < cost.edp(config, lanes=1)


class TestCostLedger:
    def test_charges_accumulate_by_label(self):
        ledger = CostLedger()
        ledger.charge("multiply", Cost(cycles=5))
        ledger.charge("multiply", Cost(cycles=7))
        assert ledger.entry("multiply").cycles == 12

    def test_total_sums_labels(self):
        ledger = CostLedger()
        ledger.charge("a", Cost(cycles=1))
        ledger.charge("b", Cost(cycles=2, nor_ops=3))
        assert ledger.total.cycles == 3
        assert ledger.total.nor_ops == 3

    def test_missing_label_is_zero(self):
        assert CostLedger().entry("nothing") == Cost()

    def test_labels_in_insertion_order(self):
        ledger = CostLedger()
        ledger.charge("z", Cost(cycles=1))
        ledger.charge("a", Cost(cycles=1))
        assert ledger.labels() == ("z", "a")

    def test_reset(self):
        ledger = CostLedger()
        ledger.charge("x", Cost(cycles=1))
        ledger.reset()
        assert ledger.total == Cost()
