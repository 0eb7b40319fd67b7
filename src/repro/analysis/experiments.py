"""Drivers that regenerate every table and figure of the paper.

Each ``run_*`` function is pure orchestration over the library: it wires
the core models, baselines, workloads and runtime together, and returns a
plain dataclass the benches print (via :mod:`repro.analysis.tables`) and
the tests assert shape properties on.

Experiment index (see DESIGN.md Section 4): E1 = Figure 4, E2 = Figure 5,
E3 = Figure 6, E4 = Table 1, E5 = the headline scalars.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.pc_adder import PCAdderModel
from repro.baselines.talati import TalatiAdderModel
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import default_config
from repro.core.multiplier import APIMMultiplier
from repro.core.timing import (
    FULL_ADDER_CYCLES,
    fast_multi_add_cycles,
    hybrid_final_add_cycles,
    reduction_stages,
)
from repro.errors import ConfigurationError
from repro.runtime.comparison import ComparisonHarness, ComparisonResult
from repro.runtime.executor import APIMExecutor
from repro.runtime.tuner import AdaptiveTuner, TuningResult
from repro.units import GIB, MIB
from repro.workloads import all_workloads
from repro.workloads.base import Workload

__all__ = [
    "Figure4Result",
    "Figure4Point",
    "run_figure4",
    "Figure5Result",
    "run_figure5",
    "Figure6Result",
    "Figure6Row",
    "run_figure6",
    "Table1Result",
    "Table1Cell",
    "run_table1",
    "AdaptiveResult",
    "run_adaptive",
    "FIGURE4_SAMPLES",
    "FIGURE5_SIZES",
    "FIGURE6_OPERAND_COUNTS",
    "PAPER_TILE",
    "TABLE1_LEVELS",
]

# The paper-scale parameters: the drivers' defaults, read (never restated)
# by the CLI, the report and the benches.  EXPERIMENTS.md quotes them.

#: Random 32x32 multiplications of Figure 4's Monte-Carlo sweep.
FIGURE4_SAMPLES = 20000

#: Dataset sizes of Figure 5's x-axis (the paper runs 32 MB .. 1 GB).
FIGURE5_SIZES = (
    32 * MIB,
    64 * MIB,
    128 * MIB,
    256 * MIB,
    512 * MIB,
    GIB,
)

#: Operand counts N of Figure 6's rows (N operands of N bits).
FIGURE6_OPERAND_COUNTS = (4, 8, 16, 32, 64)

#: Approximation levels of Table 1's columns.
TABLE1_LEVELS = (0, 4, 8, 16, 24, 32)

#: Elements per executed tile in Figure 5, Table 1 and the adaptive run.
PAPER_TILE = 1 << 13


# ---------------------------------------------------------------------------
# E1: Figure 4 — error vs EDP, first-stage vs last-stage approximation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure4Point:
    """One sweep point of an approximation mode."""

    parameter: int  # masked bits (first stage) or relax bits (last stage)
    mean_relative_error: float
    energy_per_mult: float
    time_per_mult: float

    @property
    def edp(self) -> float:
        """Per-multiplication energy-delay product (J*s)."""
        return self.energy_per_mult * self.time_per_mult


@dataclass(frozen=True)
class Figure4Result:
    """Error/EDP curves of both approximation approaches."""

    first_stage: tuple[Figure4Point, ...]
    last_stage: tuple[Figure4Point, ...]
    samples: int

    def error_gap_at_edp(self, edp_target: float) -> float:
        """First-stage error / last-stage error at a matched EDP.

        The paper's claim: about five orders of magnitude at
        ``EDP = 1.4e-16 J*s`` for 32x32 multiplication.  The sweeps sample
        different EDP grids, so both curves are log-log interpolated at the
        matching point: the first-stage point nearest ``edp_target`` sets
        the EDP, and the last-stage error is read off at that same EDP.
        """
        first = min(self.first_stage, key=lambda p: abs(p.edp - edp_target))
        last_error = self._interpolate_error(self.last_stage, first.edp)
        if last_error == 0:
            return float("inf")
        return first.mean_relative_error / last_error

    @staticmethod
    def _interpolate_error(
        points: tuple[Figure4Point, ...], edp: float
    ) -> float:
        """Log-log interpolation of a mode's error at a given EDP."""
        usable = sorted(
            (p for p in points if p.mean_relative_error > 0),
            key=lambda p: p.edp,
        )
        if not usable:
            return 0.0
        if edp <= usable[0].edp:
            return usable[0].mean_relative_error
        if edp >= usable[-1].edp:
            return usable[-1].mean_relative_error
        for low, high in zip(usable, usable[1:]):
            if low.edp <= edp <= high.edp:
                span = np.log(high.edp) - np.log(low.edp)
                frac = (np.log(edp) - np.log(low.edp)) / span if span else 0.0
                log_err = (1 - frac) * np.log(low.mean_relative_error) + (
                    frac
                ) * np.log(high.mean_relative_error)
                return float(np.exp(log_err))
        return usable[-1].mean_relative_error


def run_figure4(
    samples: int = FIGURE4_SAMPLES,
    first_stage_bits: tuple[int, ...] = (0, 4, 8, 12, 16, 20, 24, 28),
    last_stage_bits: tuple[int, ...] = (0, 8, 16, 24, 32, 40, 48, 56, 60),
) -> Figure4Result:
    """Monte-Carlo sweep of both approximation modes on random operands."""
    config = default_config()
    if samples <= 0:
        raise ConfigurationError("samples must be positive")
    multiplier = APIMMultiplier(config)
    rng = np.random.default_rng(2017)
    bits = config.word_bits
    a = rng.integers(0, 1 << bits, samples, dtype=np.uint64)
    b = rng.integers(0, 1 << bits, samples, dtype=np.uint64)
    reference = (a * b).astype(np.float64)

    def sweep(specs: list[ApproxSpec], params: tuple[int, ...]):
        points = []
        for param, spec in zip(params, specs):
            result = multiplier.multiply(a, b, spec)
            err = float(
                np.mean(
                    np.abs(result.products.astype(np.float64) - reference)
                    / np.maximum(reference, 1.0)
                )
            )
            points.append(
                Figure4Point(
                    parameter=param,
                    mean_relative_error=err,
                    energy_per_mult=result.cost.energy(config) / samples,
                    time_per_mult=result.cost.cycles
                    * config.cycle_time
                    / samples,
                )
            )
        return tuple(points)

    first = sweep([ApproxSpec.first_stage(f) for f in first_stage_bits],
                  first_stage_bits)
    last = sweep([ApproxSpec.last_stage(m) for m in last_stage_bits],
                 last_stage_bits)
    return Figure4Result(first_stage=first, last_stage=last, samples=samples)


# ---------------------------------------------------------------------------
# E2: Figure 5 — exact APIM vs GPU over dataset sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure5Result:
    """Energy-improvement and speedup curves per workload."""

    sizes: tuple[int, ...]
    curves: dict[str, tuple[ComparisonResult, ...]]

    def at_one_gib(self, workload: str) -> ComparisonResult:
        """The 1 GB point of one workload (the paper's 28x / 4.8x anchor)."""
        for point in self.curves[workload]:
            if point.dataset_bytes == GIB:
                return point
        raise KeyError(f"no 1 GiB point for {workload}")

    def crossover_bytes(self, workload: str) -> int | None:
        """Smallest swept size where APIM beats the GPU on speed
        (the paper places this near 200 MB)."""
        for point in self.curves[workload]:
            if point.speedup >= 1.0:
                return point.dataset_bytes
        return None


def run_figure5(
    workloads: list[Workload] | None = None,
    sizes: tuple[int, ...] = FIGURE5_SIZES,
    tile_elements: int = PAPER_TILE,
) -> Figure5Result:
    """Sweep exact APIM against the GPU baseline over dataset sizes.

    Defaults to the four workloads of Figure 5(a)-(d): Sobel, Robert, FFT
    and DwtHaar1D.
    """
    if workloads is None:
        workloads = [
            w
            for w in all_workloads()
            if w.name in ("Sobel", "Robert", "FFT", "DwtHaar1D")
        ]
    harness = ComparisonHarness(tile_elements=tile_elements)
    curves = {
        w.name: tuple(harness.sweep_sizes(w, list(sizes))) for w in workloads
    }
    return Figure5Result(sizes=tuple(int(s) for s in sizes), curves=curves)


# ---------------------------------------------------------------------------
# E3: Figure 6 — multi-operand addition vs prior work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Figure6Row:
    """Latency of adding N operands of N bits, all designs, one N."""

    operands: int
    apim_cycles: float
    apim_approx_cycles: float
    talati_cycles: float
    pc_adder_cycles: float

    @property
    def speedup_vs_best_prior(self) -> float:
        """APIM exact speedup over the faster prior design."""
        return min(self.talati_cycles, self.pc_adder_cycles) / self.apim_cycles

    @property
    def approx_speedup_vs_best_prior(self) -> float:
        """Approximate (99.9 %-accuracy) APIM speedup over the best prior."""
        return (
            min(self.talati_cycles, self.pc_adder_cycles)
            / self.apim_approx_cycles
        )


@dataclass(frozen=True)
class Figure6Result:
    """The Figure 6 latency comparison across operand counts."""

    rows: tuple[Figure6Row, ...]


#: Exact MSBs kept by Figure 6's approximate-APIM point.  Relaxing all but
#: the top 8 result bits bounds the range-normalised error (the PSNR-style
#: convention) by 0.25 * 2**-8 ~ 1e-3 — the paper's "99.9 % accuracy".
FIG6_EXACT_MSBS = 8


def run_figure6(
    operand_counts: tuple[int, ...] = FIGURE6_OPERAND_COUNTS,
) -> Figure6Result:
    """Latency of N-operand, N-bit addition for APIM and both baselines.

    The approximate APIM row keeps the tree reduction exact (carry-save is
    always exact) and applies the MAJ shortcut to all but the top
    :data:`FIG6_EXACT_MSBS` bits of the final addition — the '99.9 %
    accuracy' point the paper quotes as 'at least 6x faster'.
    """
    config = default_config()
    talati = TalatiAdderModel(config=config)
    pc = PCAdderModel(config=config)
    rows = []
    for n in operand_counts:
        if n < 2:
            raise ConfigurationError("need at least two operands")
        stages = reduction_stages(n)
        final_width = n + max(stages - 1, 0)
        apim = fast_multi_add_cycles(n, n)
        relax = max(final_width - FIG6_EXACT_MSBS, 0)
        apim_approx = FULL_ADDER_CYCLES * stages + hybrid_final_add_cycles(
            final_width, relax
        )
        rows.append(
            Figure6Row(
                operands=n,
                apim_cycles=float(apim),
                apim_approx_cycles=float(apim_approx),
                talati_cycles=talati.multi_add_cost(n, n).cycles,
                pc_adder_cycles=pc.multi_add_cost(n, n).cycles,
            )
        )
    return Figure6Result(rows=tuple(rows))


# ---------------------------------------------------------------------------
# E4: Table 1 — QoL and EDP improvement per application per relax level
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Table1Cell:
    """One (application, relax-bits) cell: QoL and EDP improvement vs GPU."""

    workload: str
    relax_bits: int
    qol_percent: float
    edp_improvement: float
    qos_ok: bool


@dataclass(frozen=True)
class Table1Result:
    """The full Table 1 grid."""

    levels: tuple[int, ...]
    dataset_bytes: int
    cells: dict[str, tuple[Table1Cell, ...]]  # per workload, level order

    def cell(self, workload: str, relax_bits: int) -> Table1Cell:
        """Fetch one grid cell."""
        for candidate in self.cells[workload]:
            if candidate.relax_bits == relax_bits:
                return candidate
        raise KeyError(f"no cell ({workload}, {relax_bits})")


def run_table1(
    workloads: list[Workload] | None = None,
    levels: tuple[int, ...] = TABLE1_LEVELS,
    tile_elements: int = PAPER_TILE,
) -> Table1Result:
    """QoL / EDP-improvement grid over the six applications.

    EDP improvement is measured against the GPU at 1 GiB (the paper's
    large-dataset regime); QoL comes from the tile execution.
    """
    workloads = workloads or all_workloads()
    harness = ComparisonHarness(tile_elements=tile_elements)
    cells: dict[str, tuple[Table1Cell, ...]] = {}
    for workload in workloads:
        row = []
        for level in levels:
            spec = ApproxSpec.last_stage(level) if level else EXACT
            point = harness.compare(workload, GIB, spec)
            row.append(
                Table1Cell(
                    workload=workload.name,
                    relax_bits=level,
                    qol_percent=point.qol_percent,
                    edp_improvement=point.edp_improvement,
                    qos_ok=point.qos_ok,
                )
            )
        cells[workload.name] = tuple(row)
    return Table1Result(
        levels=tuple(levels),
        dataset_bytes=GIB,
        cells=cells,
    )


# ---------------------------------------------------------------------------
# E5: adaptive mode — the 480x headline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdaptiveResult:
    """Per-workload tuner outcomes plus the aggregate EDP improvement."""

    tunings: dict[str, TuningResult]
    edp_improvement_vs_gpu: dict[str, float]
    best_edp_improvement: float
    mean_edp_improvement: float


def run_adaptive(
    workloads: list[Workload] | None = None,
    tile_elements: int = PAPER_TILE,
) -> AdaptiveResult:
    """Run the adaptive tuner per application and price the chosen setting.

    The paper: "using this adaptive design, our design can achieve 480x
    energy-delay product improvement" (vs GPU, approximate mode) "while
    ensuring acceptable quality of service".
    """
    workloads = workloads or all_workloads()
    tuner = AdaptiveTuner(APIMExecutor(default_config()))
    harness = ComparisonHarness(tile_elements=tile_elements)
    tunings: dict[str, TuningResult] = {}
    improvements: dict[str, float] = {}
    for workload in workloads:
        tuning = tuner.tune(workload, elements=tile_elements)
        tunings[workload.name] = tuning
        spec = (
            ApproxSpec.last_stage(tuning.selected_relax_bits)
            if tuning.selected_relax_bits
            else EXACT
        )
        point = harness.compare(workload, GIB, spec)
        improvements[workload.name] = point.edp_improvement
    values = list(improvements.values())
    return AdaptiveResult(
        tunings=tunings,
        edp_improvement_vs_gpu=improvements,
        best_edp_improvement=max(values),
        mean_edp_improvement=float(np.mean(values)),
    )
