"""Integration tests: the experiment drivers reproduce the paper's shapes.

These are the repository's reproduction claims, pinned as assertions.  See
EXPERIMENTS.md for the measured-vs-paper discussion; tolerances here encode
the "shape, not absolute numbers" contract.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analysis.experiments import (
    run_adaptive,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
)
from repro.analysis.tables import (
    render_adaptive,
    render_figure4,
    render_figure5,
    render_figure6,
    render_table1,
)
from repro.units import GIB, MIB
from repro.workloads import workload_by_name

TILE = 1 << 12
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "data", "experiments_golden.json"
)

#: Each driver at the reduced size this module pins; the keys are the
#: module fixtures' names.
DRIVERS = {
    "fig4": lambda: run_figure4(samples=4000),
    "fig5": lambda: run_figure5(
        workloads=[workload_by_name("Sobel"), workload_by_name("FFT")],
        sizes=(32 * MIB, 256 * MIB, GIB),
        tile_elements=TILE,
    ),
    "fig6": lambda: run_figure6(operand_counts=(4, 8, 16, 32)),
    "table1": lambda: run_table1(
        workloads=[workload_by_name("Sobel"), workload_by_name("Robert")],
        tile_elements=TILE,
    ),
    "adaptive": lambda: run_adaptive(
        workloads=[workload_by_name("Sobel"), workload_by_name("Robert")],
        tile_elements=TILE,
    ),
}


def _snapshot(result) -> dict:
    """A driver result in JSON-normal form (floats round-trip exactly)."""
    return json.loads(json.dumps(dataclasses.asdict(result)))


def write_golden() -> None:
    """Regenerate ``tests/data/experiments_golden.json`` from the drivers.

    Run ``PYTHONPATH=src python -c "import tests.test_experiments as t;
    t.write_golden()"`` only for an intended change to the paper's
    numbers, and review the diff.
    """
    golden = {name: _snapshot(run()) for name, run in DRIVERS.items()}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


@pytest.fixture(scope="module")
def fig4():
    return DRIVERS["fig4"]()


@pytest.fixture(scope="module")
def fig5():
    return DRIVERS["fig5"]()


@pytest.fixture(scope="module")
def fig6():
    return DRIVERS["fig6"]()


@pytest.fixture(scope="module")
def table1():
    return DRIVERS["table1"]()


@pytest.fixture(scope="module")
def adaptive():
    return DRIVERS["adaptive"]()


@pytest.mark.parametrize("name", sorted(DRIVERS))
def test_matches_golden_exactly(name, request):
    """Every number the drivers produce equals the pinned golden bit for
    bit: a refactor that moves any figure by one ulp fails here."""
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    assert _snapshot(request.getfixturevalue(name)) == golden[name]


class TestFigure4Shape:
    def test_both_modes_monotone_in_error(self, fig4):
        for points in (fig4.first_stage, fig4.last_stage):
            errors = [p.mean_relative_error for p in points]
            assert errors == sorted(errors)

    def test_edp_decreases_with_approximation(self, fig4):
        for points in (fig4.first_stage, fig4.last_stage):
            edps = [p.edp for p in points]
            assert edps == sorted(edps, reverse=True)

    def test_last_stage_wins_by_orders_of_magnitude(self, fig4):
        # Paper: ~5 orders of magnitude at EDP = 1.4e-16 J*s.
        assert fig4.error_gap_at_edp(1.4e-16) > 1e3

    def test_exact_points_have_zero_error(self, fig4):
        assert fig4.first_stage[0].mean_relative_error == 0.0
        assert fig4.last_stage[0].mean_relative_error == 0.0

    def test_renders(self, fig4):
        text = render_figure4(fig4)
        assert "Figure 4" in text and "last-stage" in text


class TestFigure5Shape:
    def test_speedup_grows_with_dataset_size(self, fig5):
        for points in fig5.curves.values():
            speedups = [p.speedup for p in points]
            assert speedups == sorted(speedups)

    def test_apim_wins_at_one_gib(self, fig5):
        for name in fig5.curves:
            point = fig5.at_one_gib(name)
            assert point.speedup > 1.0
            assert point.energy_improvement > 5.0

    def test_gpu_wins_small_datasets(self, fig5):
        # "for most applications using datasets larger than 200MB ... APIM
        # is much faster": the flip side is that 32 MB still favours the GPU.
        for points in fig5.curves.values():
            assert points[0].speedup < 1.0

    def test_crossover_in_paper_band(self, fig5):
        for name in fig5.curves:
            crossover = fig5.crossover_bytes(name)
            assert crossover is not None
            assert 64 * MIB <= crossover <= GIB

    def test_sobel_one_gib_anchor(self, fig5):
        # Paper: "With 1GB dataset ... 28x energy savings, 4.8x performance".
        point = fig5.at_one_gib("Sobel")
        assert 2.0 <= point.speedup <= 10.0
        assert 14.0 <= point.energy_improvement <= 60.0

    def test_renders(self, fig5):
        assert "Figure 5" in render_figure5(fig5)


class TestFigure6Shape:
    def test_apim_beats_both_priors_from_16_operands(self, fig6):
        for row in fig6.rows:
            if row.operands >= 16:
                assert row.speedup_vs_best_prior >= 2.0

    def test_approx_apim_at_least_6x_at_32_operands(self, fig6):
        # "APIM can be at least 6x faster with 99.9% accuracy" — reached at
        # the top of the paper's swept range.
        for row in fig6.rows:
            if row.operands >= 32:
                assert row.approx_speedup_vs_best_prior >= 6.0
            elif row.operands >= 16:
                assert row.approx_speedup_vs_best_prior >= 3.0

    def test_advantage_grows_with_n(self, fig6):
        ratios = [r.speedup_vs_best_prior for r in fig6.rows]
        assert ratios == sorted(ratios)

    def test_renders(self, fig6):
        assert "Figure 6" in render_figure6(fig6)


class TestTable1Shape:
    def test_edp_improvement_monotone_in_relax(self, table1):
        for row in table1.cells.values():
            edps = [c.edp_improvement for c in row]
            assert edps == sorted(edps)

    def test_qol_monotone_in_relax(self, table1):
        for row in table1.cells.values():
            qols = [c.qol_percent for c in row]
            assert all(a <= b + 1e-9 for a, b in zip(qols, qols[1:]))

    def test_exact_mode_zero_qol(self, table1):
        for name in table1.cells:
            assert table1.cell(name, 0).qol_percent == 0.0

    def test_exact_mode_edp_in_paper_band(self, table1):
        # Paper Table 1, 0-bit column: 69x .. 203x; allow a generous band.
        for name in ("Sobel", "Robert"):
            improvement = table1.cell(name, 0).edp_improvement
            assert 50 <= improvement <= 400

    def test_relax_32_gives_multiples_of_exact(self, table1):
        for name in table1.cells:
            gain = (
                table1.cell(name, 32).edp_improvement
                / table1.cell(name, 0).edp_improvement
            )
            assert 2.0 <= gain <= 8.0  # paper: ~4.7x

    def test_renders(self, table1):
        assert "Table 1" in render_table1(table1)


class TestAdaptiveHeadline:
    def test_all_selections_meet_qos(self, adaptive):
        for tuning in adaptive.tunings.values():
            assert tuning.selected_trial.qos_ok

    def test_edp_improvement_in_headline_range(self, adaptive):
        # Paper: "up to 480x energy-delay product improvement".
        assert adaptive.best_edp_improvement > 100

    def test_renders(self, adaptive):
        assert "Adaptive" in render_adaptive(adaptive)
