"""Tests for the analysis extensions: area, sensitivity, report, CLI."""

from __future__ import annotations

import inspect
import os
import re

import pytest

from repro.analysis.area import AreaModel
from repro.analysis.experiments import (
    run_adaptive,
    run_figure4,
    run_figure5,
    run_table1,
)
from repro.analysis.report import generate_report
from repro.analysis.sensitivity import SWEEPABLE, sweep_parameter
from repro.cli import build_parser, main
from repro.core.config import default_config
from repro.errors import ConfigurationError
from repro.units import GIB, MIB

EXPERIMENTS_MD = os.path.join(
    os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md"
)


def _experiments_md_block(test) -> list[str]:
    """The lines of the first EXPERIMENTS.md code block ``test`` accepts."""
    with open(EXPERIMENTS_MD, encoding="utf-8") as handle:
        blocks = handle.read().split("```")[1::2]
    return next(b for b in blocks if test(b)).strip().splitlines()


class TestAreaModel:
    @pytest.fixture(scope="class")
    def model(self):
        return AreaModel(default_config(), f_nm=45.0)

    def test_cells_dominate_a_large_unit(self, model):
        report = model.unit_area(64)
        assert report.cells_mm2 > report.decoders_mm2
        assert report.overhead_fraction < 0.5

    def test_shared_periphery_amortises(self, model):
        small = model.unit_area(2).overhead_fraction
        large = model.unit_area(64).overhead_fraction
        assert large < small  # decoders shared over more storage

    def test_interconnect_grows_with_blocks(self, model):
        two = model.unit_area(2).interconnect_mm2
        eight = model.unit_area(8).interconnect_mm2
        assert eight > two

    def test_per_array_organisation_costs_more(self, model):
        blocks = 8
        shared = model.unit_area(blocks)
        shared_periphery = shared.total_mm2 - shared.cells_mm2
        assert model.per_array_controller_area(blocks) > shared_periphery

    def test_density_order_of_magnitude(self, model):
        # A 4F^2 crosspoint at 45 nm stores ~15 GiB/cm^2; per mm^2 that is
        # ~0.15 GiB — accept a generous band around it.
        gib = 1024 * model.config.block_bytes / GIB
        density = gib / model.unit_area(1024).total_mm2
        assert 0.01 < density < 2.0

    def test_validation(self, model):
        with pytest.raises(ConfigurationError):
            AreaModel(f_nm=0)
        with pytest.raises(ConfigurationError):
            model.unit_area(0)


class TestSensitivity:
    def test_peripheral_energy_moves_energy_not_speed(self):
        result = sweep_parameter(
            "e_peripheral", [4e-13, 1.6e-12], tile_elements=1 << 10
        )
        low, high = result.points
        assert low.speedup == pytest.approx(high.speedup, rel=1e-6)
        assert low.energy_improvement > high.energy_improvement

    def test_rows_per_lane_moves_speed(self):
        result = sweep_parameter(
            "mult_rows_per_lane", [96, 384], tile_elements=1 << 10
        )
        fewer_rows, more_rows = result.points
        assert fewer_rows.speedup > more_rows.speedup

    def test_spread_reported(self):
        result = sweep_parameter(
            "e_nor", [1e-15, 8e-15], tile_elements=1 << 10
        )
        assert result.spread() >= 1.0

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_parameter("magic_dust", [1.0])

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigurationError):
            sweep_parameter("e_nor", [])

    def test_all_documented_parameters_sweepable(self):
        for parameter in SWEEPABLE:
            values = {
                "e_nor": [2e-15],
                "e_peripheral": [8e-13],
                "mult_rows_per_lane": [192],
                "cycle_time": [1.1e-9],
                "block_rows": [1024],
            }[parameter]
            result = sweep_parameter(
                parameter, values, dataset_bytes=256 * MIB,
                tile_elements=1 << 10,
            )
            assert result.points[0].edp_improvement > 0


class TestCLI:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("fig4", "fig5", "fig6", "table1", "adaptive",
                        "report", "run", "sweep", "workloads"):
            args = {
                "run": [command, "Sobel"],
                "sweep": [command, "e_nor", "1e-15"],
            }.get(command, [command])
            parsed = parser.parse_args(args)
            assert parsed.command == command

    def test_serve_defaults_are_the_library_defaults(self):
        from repro.serving import ServingConfig

        parsed = build_parser().parse_args(["serve"])
        config = ServingConfig()
        assert parsed.max_wait == config.max_wait_s
        assert parsed.batch_size == config.max_batch_size
        assert parsed.queue_capacity == config.queue_capacity

    @pytest.mark.parametrize("command, option, driver, parameter", [
        ("fig4", "samples", run_figure4, "samples"),
        ("fig5", "tile", run_figure5, "tile_elements"),
        ("table1", "tile", run_table1, "tile_elements"),
        ("adaptive", "tile", run_adaptive, "tile_elements"),
        ("report", "samples", generate_report, "samples"),
        ("report", "tile", generate_report, "tile_elements"),
    ])
    def test_experiment_defaults_are_the_driver_defaults(
        self, command, option, driver, parameter
    ):
        parsed = build_parser().parse_args([command])
        default = inspect.signature(driver).parameters[parameter].default
        assert getattr(parsed, option) == default

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "Sobel" in out and "GEMM" in out

    def test_fig6_command(self, capsys):
        """At its defaults ``repro fig6`` prints EXPERIMENTS.md's Figure 6
        block, N = 64 row included."""
        assert main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        for line in _experiments_md_block(lambda b: "APIM-approx" in b):
            assert line in out

    def test_run_command(self, capsys):
        assert main(["run", "Robert", "-m", "16", "--elements", "1024"]) == 0
        out = capsys.readouterr().out
        assert "QoL" in out and "lane-cycles" in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "e_nor", "1e-15", "4e-15"]) == 0
        assert "spread" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("argv", [
        [command, "--quick"]
        for command in ("serve", "search", "fleet", "chaos", "metrics",
                        "slo", "trace")
    ] + [
        ["serve", "--journal"],
        ["chaos", "--worker-kill-rate", "0.5"],
        ["chaos", "--server-kill"],
        ["search", "--runtime", "thread"],
    ])
    def test_removed_smoke_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2


class TestReport:
    @pytest.fixture(scope="class")
    def default_report(self):
        return generate_report()

    def test_generate_report_small_scale(self):
        report = generate_report(
            samples=500,
            tile_elements=1 << 9,
            workload_names=("Sobel", "Robert"),
        )
        for heading in ("Figure 4", "Figure 5", "Figure 6", "Table 1",
                        "Adaptive", "Area"):
            assert heading in report
        assert "480x" in report  # the paper headline is cited

    def test_defaults_reproduce_experiments_md(self, default_report):
        """At its defaults the report prints EXPERIMENTS.md's Figure 6
        block and every EDP / QoL cell of its Table 1 block."""
        for line in _experiments_md_block(lambda b: "APIM-approx" in b):
            assert line in default_report
        table1 = _experiments_md_block(
            lambda b: b.lstrip().startswith("Application")
        )
        section = default_report.split("## Table 1")[1].split("##")[0]
        for line in table1[1:]:
            name = line.split()[0]
            quoted = re.findall(r"(\d+) \|\s*(\(saturated\)|[\d.]+)", line)
            assert len(quoted) == 6, line
            row = next(r for r in section.splitlines() if r.startswith(name + " "))
            printed = re.findall(r"(\d+)x \|\s*(\(saturated\)|[\d.]+)", row)
            assert printed == quoted, name

    @pytest.mark.parametrize(
        "command", ["fig4", "fig5", "fig6", "table1", "adaptive"]
    )
    def test_subcommand_defaults_print_the_report_block(
        self, command, default_report, capsys
    ):
        """Each experiment subcommand at its defaults prints exactly the
        block the report at its defaults prints for that figure."""
        assert main([command]) == 0
        assert f"```\n{capsys.readouterr().out}```\n" in default_report

    def test_campaign_command(self, capsys, tmp_path):
        out_path = str(tmp_path / "grid.csv")
        assert main([
            "campaign", "--workloads", "Robert", "--levels", "0", "32",
            "--tile", "512", "-o", out_path,
        ]) == 0
        with open(out_path, encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()
        assert lines[0].startswith("workload,")
        assert len(lines) == 3  # header + 2 grid points
