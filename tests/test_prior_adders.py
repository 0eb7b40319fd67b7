"""Unit tests for the prior-work adder baselines (Figure 6's competitors)."""

from __future__ import annotations

import pytest

from repro.baselines.pc_adder import PCAdderModel
from repro.baselines.talati import TalatiAdderModel
from repro.core.cost import Cost
from repro.core.timing import fast_multi_add_cycles, serial_add_cycles
from repro.errors import ConfigurationError


class TestTalatiModel:
    def test_two_operand_matches_12n_plus_1(self):
        model = TalatiAdderModel()
        assert model.add_cost(32).cycles == serial_add_cycles(32)

    def test_multi_operand_grows_linearly(self):
        model = TalatiAdderModel()
        c8 = model.multi_add_cost(8, 32).cycles
        c16 = model.multi_add_cost(16, 32).cycles
        assert 1.8 < c16 / c8 < 2.5

    def test_width_growth_of_running_sum(self):
        model = TalatiAdderModel()
        # Second addition runs at width+1 (log2 of 2 completed operands).
        cost = model.multi_add_cost(3, 8)
        assert cost.cycles == serial_add_cycles(9) + serial_add_cycles(10)

    def test_shift_cost_flag_adds_latency(self):
        without = TalatiAdderModel().multi_add_cost(8, 16)
        with_shift = TalatiAdderModel(include_shift_cost=True).multi_add_cost(8, 16)
        assert with_shift.cycles > without.cycles

    def test_single_operand_free(self):
        assert TalatiAdderModel().multi_add_cost(1, 8) == Cost()

    def test_time_and_energy_positive(self):
        model = TalatiAdderModel()
        cost = model.multi_add_cost(4, 8)
        assert cost.time(model.config) > 0
        assert cost.energy(model.config) > 0

    @pytest.mark.parametrize("operands,width", [(0, 8), (4, 0)])
    def test_validation(self, operands, width):
        with pytest.raises(ConfigurationError):
            TalatiAdderModel().multi_add_cost(operands, width)


class TestPCAdderModel:
    def test_two_operand_steps(self):
        assert PCAdderModel().add_steps(16) == 36

    def test_tree_latency_sublinear_in_operands(self):
        model = PCAdderModel()
        c4 = model.multi_add_cost(4, 32).cycles
        c16 = model.multi_add_cost(16, 32).cycles
        assert c16 < 4 * c4  # log-depth, not linear

    def test_energy_counts_every_addition(self):
        model = PCAdderModel()
        e4 = model.multi_add_cost(4, 32).nor_ops
        e16 = model.multi_add_cost(16, 32).nor_ops
        assert e16 > 3 * e4

    def test_crs_factors_validated(self):
        with pytest.raises(ConfigurationError):
            PCAdderModel(crs_step_factor=0)

    def test_single_operand_free(self):
        assert PCAdderModel().multi_add_cost(1, 8) == Cost()


class TestFigure6Claims:
    """The paper's comparison claims, pinned as tests."""

    def test_pc_adder_beats_talati_everywhere(self):
        talati, pc = TalatiAdderModel(), PCAdderModel()
        for n in (8, 16, 32, 64):
            assert (
                pc.multi_add_cost(n, n).cycles
                < talati.multi_add_cost(n, n).cycles
            )

    def test_apim_at_least_2x_vs_best_prior_from_16_operands(self):
        talati, pc = TalatiAdderModel(), PCAdderModel()
        for n in (16, 32, 64):
            best_prior = min(
                talati.multi_add_cost(n, n).cycles,
                pc.multi_add_cost(n, n).cycles,
            )
            assert best_prior / fast_multi_add_cycles(n, n) >= 2.0

    def test_apim_advantage_grows_with_size(self):
        # "The difference increases linearly with the size of inputs."
        talati = TalatiAdderModel()
        ratios = [
            talati.multi_add_cost(n, n).cycles / fast_multi_add_cycles(n, n)
            for n in (8, 16, 32, 64)
        ]
        assert ratios == sorted(ratios)
