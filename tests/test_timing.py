"""Unit tests for the canonical latency formulas (repro.core.timing).

Every cycle count the paper states explicitly is pinned here, including
the worked examples of Sections 3.2-3.4.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.baselines.talati import TalatiAdderModel
from repro.core.cost import Cost
from repro.core.multiplier import _cost_matrix
from repro.core.timing import (
    FULL_ADDER_CYCLES,
    NOR_OPS_PER_FA,
    cost_copy,
    cost_csa_step,
    cost_hybrid_final_add,
    cost_multiply,
    cost_ppgen,
    cost_wallace_reduce,
    fast_multi_add_cycles,
    hybrid_final_add_cycles,
    reduction_sequence,
    reduction_stages,
    serial_add_cycles,
)
from repro.errors import ApproximationError, ConfigurationError


class TestSerialAdd:
    @pytest.mark.parametrize("n", [1, 4, 8, 16, 32, 64])
    def test_paper_formula_12n_plus_1(self, n):
        assert serial_add_cycles(n) == 12 * n + 1

    def test_one_bit_full_adder_is_13_cycles(self):
        # Paper Section 3.2: "the latency of ... a 1-bit addition
        # (i.e., 13 cycles)".
        assert FULL_ADDER_CYCLES == 13

    @pytest.mark.parametrize("bad", [0, -1, -32])
    def test_rejects_non_positive_width(self, bad):
        with pytest.raises(ConfigurationError):
            serial_add_cycles(bad)

    def test_cost_counts_12_nors_per_bit(self):
        cost = TalatiAdderModel().add_cost(8)
        assert cost.cycles == 97
        assert cost.nor_ops == NOR_OPS_PER_FA * 8

    def test_serial_of_three_operands_matches_paper_24n_minus_22_shape(self):
        # The paper contrasts the fast adder's 12N+14 against 24N-22 for a
        # serial 3-operand addition; with our (12N+1)-per-add convention two
        # chained additions cost 24N+14 (the 36-cycle offset is the paper's
        # own inconsistency between 12N+1 and 12(N-1)+1).
        n = 16
        two_adds = serial_add_cycles(n) + serial_add_cycles(n + 1)
        assert two_adds == 24 * n + 14


class TestReduction:
    def test_nine_operands_take_four_stages(self):
        # Paper Figure 2(b): 9:2 reduction in four stages.
        assert reduction_stages(9) == 4
        assert reduction_sequence(9) == [9, 6, 4, 3]

    @pytest.mark.parametrize(
        "operands,expected",
        [(0, 0), (1, 0), (2, 0), (3, 1), (4, 2), (6, 3), (27, 7), (32, 8)],
    )
    def test_stage_counts(self, operands, expected):
        assert reduction_stages(operands) == expected

    def test_sequence_strictly_decreasing(self):
        seq = reduction_sequence(100)
        assert all(a > b for a, b in zip(seq, seq[1:]))

    def test_sequence_follows_3_to_2_rule(self):
        seq = reduction_sequence(50) + [2]
        for before, after in zip(seq, seq[1:]):
            assert after == 2 * (before // 3) + before % 3

    def test_negative_operands_rejected(self):
        with pytest.raises(ConfigurationError):
            reduction_sequence(-1)


class TestFastMultiAdd:
    def test_three_operand_add_matches_paper_12n_plus_14(self):
        # Paper Section 3.2: "This totals to 12N + 14 cycles".
        for n in (4, 8, 16, 32):
            assert fast_multi_add_cycles(3, n) == 12 * n + 14

    def test_nine_operands_final_width_is_n_plus_3(self):
        # Paper: "we are left with two (N+3)-bit numbers".
        n = 8
        expected = 13 * 4 + serial_add_cycles(n + 3)
        assert fast_multi_add_cycles(9, n) == expected

    def test_single_operand_is_free(self):
        assert fast_multi_add_cycles(1, 32) == 0

    def test_two_operands_degenerate_to_serial(self):
        assert fast_multi_add_cycles(2, 16) == serial_add_cycles(16)

    def test_grows_logarithmically_with_operands(self):
        # Doubling the operand count adds only ~2 stages (26 cycles).
        base = fast_multi_add_cycles(16, 32)
        double = fast_multi_add_cycles(32, 32)
        assert double - base <= 3 * FULL_ADDER_CYCLES + 12 * 2

    def test_rejects_zero_operands(self):
        with pytest.raises(ConfigurationError):
            fast_multi_add_cycles(0, 8)


class TestHybridFinalAdd:
    def test_exact_mode_uses_13_cycles_per_bit(self):
        # Paper Section 3.4: "the conventional approach requires 13*2N
        # cycles".
        assert hybrid_final_add_cycles(64, 0) == 13 * 64 + 1

    @pytest.mark.parametrize("width,m", [(64, 4), (64, 32), (64, 64), (16, 7)])
    def test_formula_13k_2m_1(self, width, m):
        assert hybrid_final_add_cycles(width, m) == 13 * (width - m) + 2 * m + 1

    def test_fully_relaxed_is_2w_plus_1(self):
        # Paper: "reduces the latency from 13*2N ... to 2*2N + 1 cycles".
        assert hybrid_final_add_cycles(64, 64) == 2 * 64 + 1

    def test_monotone_in_relax_bits(self):
        widths = [hybrid_final_add_cycles(64, m) for m in range(0, 65, 4)]
        assert widths == sorted(widths, reverse=True)

    def test_rejects_relax_beyond_width(self):
        with pytest.raises(ApproximationError):
            hybrid_final_add_cycles(16, 17)

    def test_cost_micro_events(self):
        cost = cost_hybrid_final_add(64, 16)
        assert cost.maj_ops == 16
        assert cost.cell_writes == 16
        # 48 exact FAs plus one NOR per approximated sum bit (inversion).
        assert cost.nor_ops == NOR_OPS_PER_FA * 48 + 16

    def test_exact_cost_has_no_maj(self):
        cost = cost_hybrid_final_add(64, 0)
        assert cost.maj_ops == 0
        assert cost.cell_writes == 0


class TestPartialProductGeneration:
    def test_worst_case_n_plus_1(self):
        # Paper Section 3.3: "limiting the worst case delay of copying to
        # N + 1 cycles".
        assert cost_ppgen(32, 32).cycles == 33

    def test_zero_set_bits_is_free(self):
        assert cost_ppgen(32, 0).cycles == 0

    def test_first_copy_pays_shared_inversion(self):
        assert cost_ppgen(32, 1).cycles == 2
        assert cost_ppgen(32, 2).cycles == 3

    def test_cost_reads_all_multiplier_bits(self):
        cost = cost_ppgen(32, 5)
        assert cost.sa_reads == 32

    def test_cost_interconnect_traffic_per_copy(self):
        cost = cost_ppgen(16, 4)
        assert cost.interconnect_bits == 4 * 16

    def test_rejects_set_bits_beyond_width(self):
        with pytest.raises(ConfigurationError):
            cost_ppgen(8, 9)


class TestCsaAndWallaceCosts:
    def test_csa_step_is_13_cycles_any_width(self):
        for width in (4, 32, 64, 128):
            assert cost_csa_step(width).cycles == 13

    def test_csa_step_is_13_cycles_any_group_count(self):
        for groups in (1, 5, 10):
            assert cost_csa_step(64, groups).cycles == 13

    def test_csa_energy_scales_with_width_and_groups(self):
        assert (
            cost_csa_step(64, 3).nor_ops
            == 3 * cost_csa_step(64, 1).nor_ops
            == 3 * NOR_OPS_PER_FA * 64
        )

    def test_wallace_cycles_equal_stage_count_times_13(self):
        cost = cost_wallace_reduce(9, 32)
        assert cost.cycles == 4 * 13

    def test_wallace_max_width_caps_stage_growth(self):
        capped = cost_wallace_reduce(16, 64, max_width=64)
        uncapped = cost_wallace_reduce(16, 64)
        assert capped.cycles == uncapped.cycles  # latency unchanged
        assert capped.nor_ops <= uncapped.nor_ops

    def test_wallace_interconnect_counts_survivors(self):
        # 3 operands -> 1 stage, 2 survivors of `width` bits moved.
        cost = cost_wallace_reduce(3, 16)
        assert cost.interconnect_bits == 2 * 16


class TestCopyCost:
    def test_fresh_copy_is_two_cycles(self):
        assert cost_copy(32).cycles == 2

    def test_shared_copy_is_one_cycle(self):
        assert cost_copy(32, shared_not=True).cycles == 1

    def test_interconnect_traffic(self):
        assert cost_copy(24).interconnect_bits == 24


class TestMultiplyCost:
    def test_zero_multiplier_costs_only_reads(self):
        cost = cost_multiply(32, 0)
        assert cost.cycles == 0
        assert cost.sa_reads == 32
        assert cost.nor_ops == 0

    def test_single_set_bit_is_one_copy(self):
        cost = cost_multiply(32, 1)
        assert cost.cycles == 2  # one fresh copy

    def test_average_random_multiplier_cost(self):
        # With ~16 set bits (random 32-bit multiplier), the paper notes
        # "only 16 additions on average for 32x32 multiplication".
        cost = cost_multiply(32, 16)
        expected = (
            cost_ppgen(32, 16).cycles
            + reduction_stages(16) * 13
            + hybrid_final_add_cycles(64, 0)
        )
        assert cost.cycles == expected

    def test_relax_reduces_cycles(self):
        exact = cost_multiply(32, 16, 0).cycles
        relaxed = cost_multiply(32, 16, 32).cycles
        assert relaxed < exact
        assert exact - relaxed == 11 * 32  # 13k+2m swing per relaxed bit

    def test_rejects_relax_beyond_product(self):
        with pytest.raises(ApproximationError):
            cost_multiply(16, 8, 33)

    def test_cost_is_cost_instance(self):
        assert isinstance(cost_multiply(8, 3), Cost)


def _looped_ppgen(n: int, set_bits: int) -> Cost:
    """Partial-product generation as the sum of its copies, one
    :func:`cost_copy` per set bit."""
    cost = Cost(sa_reads=n)
    if set_bits == 0:
        return cost
    cost += cost_copy(n, shared_not=False)
    for _ in range(set_bits - 1):
        cost += cost_copy(n, shared_not=True)
    return cost


@pytest.mark.parametrize("n", range(1, 33))
def test_closed_forms_equal_the_copy_and_stage_loops(n):
    """``cost_ppgen`` equals the sum of its copies, field by field and
    type by type, and row ``c`` of the multiply cost matrix equals the
    three stages summed per multiply, for every set-bit count and every
    relax level of an ``n``-bit word."""
    width = 2 * n
    wallace = [
        cost_wallace_reduce(c, width, max_width=width) if c >= 2 else None
        for c in range(n + 1)
    ]
    for c in range(n + 1):
        closed, looped = astuple(cost_ppgen(n, c)), astuple(_looped_ppgen(n, c))
        assert closed == looped
        assert list(map(type, closed)) == list(map(type, looped))
    for relax in range(width + 1):
        final = cost_hybrid_final_add(width, relax)
        rows = [
            _looped_ppgen(n, c) + wallace[c] + final if c >= 2
            else _looped_ppgen(n, c)
            for c in range(n + 1)
        ]
        assert _cost_matrix(n, relax).tolist() == [
            list(astuple(row)) for row in rows
        ]
