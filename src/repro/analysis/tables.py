"""Paper-style rendering of experiment results.

Each ``render_*`` takes the matching result dataclass from
:mod:`repro.analysis.experiments` and returns a printable string shaped
like the paper's artifact, so a bench run can be eyeballed against the
original figures/tables.
"""

from __future__ import annotations

from repro.analysis.experiments import (
    AdaptiveResult,
    Figure4Result,
    Figure5Result,
    Figure6Result,
    Table1Result,
)
from repro.units import format_bytes, format_improvement

__all__ = [
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_table1",
    "render_adaptive",
]


def render_figure4(result: Figure4Result) -> str:
    """Figure 4: error (log scale) vs EDP for the two approaches."""
    lines = [
        "Figure 4 — error vs EDP, 32x32 multiplication "
        f"({result.samples} random samples)",
        f"{'mode':<12} {'bits':>4} {'mean rel. error':>16} {'EDP (J*s)':>12}",
    ]
    for label, points in (
        ("first-stage", result.first_stage),
        ("last-stage", result.last_stage),
    ):
        for p in points:
            lines.append(
                f"{label:<12} {p.parameter:>4} "
                f"{p.mean_relative_error:>16.3e} {p.edp:>12.3e}"
            )
    gap = result.error_gap_at_edp(1.4e-16)
    lines.append(
        f"error gap at EDP=1.4e-16 J*s (first/last): {gap:.1e} "
        "(paper: ~5 orders of magnitude)"
    )
    return "\n".join(lines)


def render_figure5(result: Figure5Result) -> str:
    """Figure 5: energy improvement and speedup vs dataset size."""
    lines = ["Figure 5 — exact APIM normalised to GPU vs dataset size"]
    header = f"{'workload':<10}" + "".join(
        f"{format_bytes(s):>14}" for s in result.sizes
    )
    lines.append(header + "   (speedup | energy improvement)")
    for name, points in result.curves.items():
        row = f"{name:<10}" + "".join(
            f"{p.speedup:>6.2f}|{p.energy_improvement:<7.1f}" for p in points
        )
        lines.append(row)
        crossover = result.crossover_bytes(name)
        anchor = result.at_one_gib(name)
        lines.append(
            f"  -> crossover at {format_bytes(crossover) if crossover else '>1G'}"
            f"; 1 GiB point: {anchor.speedup:.1f}x speed, "
            f"{anchor.energy_improvement:.0f}x energy "
            "(paper anchors: ~200M crossover, 4.8x / 28x)"
        )
    return "\n".join(lines)


def render_figure6(result: Figure6Result) -> str:
    """Figure 6: N-operand N-bit addition latency vs prior work."""
    lines = [
        "Figure 6 — latency (cycles) of adding N operands of N bits",
        f"{'N':>4} {'APIM':>8} {'APIM-approx':>12} {'MAGIC[24]':>10} "
        f"{'PC-Adder[25]':>13} {'speedup':>8} {'approx':>7}",
    ]
    for row in result.rows:
        lines.append(
            f"{row.operands:>4} {row.apim_cycles:>8.0f} "
            f"{row.apim_approx_cycles:>12.0f} {row.talati_cycles:>10.0f} "
            f"{row.pc_adder_cycles:>13.0f} "
            f"{row.speedup_vs_best_prior:>7.1f}x "
            f"{row.approx_speedup_vs_best_prior:>6.1f}x"
        )
    lines.append(
        "paper claims: >= 2x vs best prior (exact), >= 6x at 99.9 % accuracy"
    )
    return "\n".join(lines)


def render_table1(result: Table1Result) -> str:
    """Table 1: QoL and EDP improvement per application per relax level."""
    lines = [
        "Table 1 — QoL and EDP improvement vs GPU "
        f"(dataset {format_bytes(result.dataset_bytes)})",
        f"{'Application':<12}"
        + "".join(f"{f'{lvl} bits':>20}" for lvl in result.levels),
        f"{'':<12}" + "".join(f"{'EDP | QoL':>20}" for _ in result.levels),
    ]
    for name, row in result.cells.items():
        # Past 100 % the error outgrew the output: the QoL says nothing more.
        cells = "".join(
            f"{format_improvement(c.edp_improvement):>10} | "
            + ("(saturated)" if c.qol_percent > 100 else f"{c.qol_percent:>6.2f}%")
            for c in row
        )
        lines.append(f"{name:<12}{cells}")
    return "\n".join(lines)


def render_adaptive(result: AdaptiveResult) -> str:
    """Adaptive mode: selected relax bits and EDP improvement per app."""
    lines = [
        "Adaptive APIM — tuner-selected approximation per application",
        f"{'Application':<12} {'m*':>4} {'QoL':>9} {'EDP vs GPU':>12}",
    ]
    for name, tuning in result.tunings.items():
        trial = tuning.selected_trial
        lines.append(
            f"{name:<12} {tuning.selected_relax_bits:>4} "
            f"{trial.qol_percent:>8.2f}% "
            f"{format_improvement(result.edp_improvement_vs_gpu[name]):>12}"
        )
    lines.append(
        f"best {format_improvement(result.best_edp_improvement)}, "
        f"mean {format_improvement(result.mean_edp_improvement)} "
        "(paper headline: up to 480x in approximate mode)"
    )
    return "\n".join(lines)
