"""Sensitivity analysis: how the headline results move with the model's
calibrated constants.

The reproduction fixes several constants the paper does not publish
(per-op energies, the peripheral energy per lane-cycle, rows per lane).
This module sweeps them and reports the effect on the 1 GB comparison
point, so a reader can judge how much of the result is structure and how
much is calibration — the honest companion to EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import default_config
from repro.errors import ConfigurationError
from repro.runtime.comparison import ComparisonHarness
from repro.units import GIB
from repro.workloads import workload_by_name
from repro.workloads.base import Workload

__all__ = ["SensitivityPoint", "SensitivityResult", "sweep_parameter"]

#: Config fields the sweep accepts, with a short rationale.
SWEEPABLE = {
    "e_nor": "MAGIC NOR energy per cell (device-level constant)",
    "e_peripheral": "decoder/driver energy per lane-cycle (calibrated)",
    "mult_rows_per_lane": "rows one operation chain occupies (lane model)",
    "cycle_time": "MAGIC cycle time",
    "block_rows": "block height (storage vs parallelism split)",
}


@dataclass(frozen=True)
class SensitivityPoint:
    """One sweep sample."""

    value: float
    speedup: float
    energy_improvement: float
    edp_improvement: float


@dataclass(frozen=True)
class SensitivityResult:
    """A full parameter sweep at the 1 GB comparison point."""

    parameter: str
    workload: str
    points: tuple[SensitivityPoint, ...]

    def spread(self) -> float:
        """max/min EDP improvement across the sweep — the sensitivity."""
        values = [p.edp_improvement for p in self.points]
        low = min(values)
        return max(values) / low if low > 0 else float("inf")


def sweep_parameter(
    parameter: str,
    values: list[float],
    workload: Workload | str = "Sobel",
    dataset_bytes: float = GIB,
    tile_elements: int = 1 << 12,
) -> SensitivityResult:
    """Sweep one config field and price the workload at each setting."""
    if parameter not in SWEEPABLE:
        raise ConfigurationError(
            f"unknown sweep parameter {parameter!r}; "
            f"supported: {sorted(SWEEPABLE)}"
        )
    if not values:
        raise ConfigurationError("sweep needs at least one value")
    if isinstance(workload, str):
        workload = workload_by_name(workload)
    base = default_config()
    points = []
    for value in values:
        cast = int(value) if parameter in ("mult_rows_per_lane", "block_rows") else value
        config = base.with_overrides(**{parameter: cast})
        harness = ComparisonHarness(config=config, tile_elements=tile_elements)
        comparison = harness.compare(workload, dataset_bytes)
        points.append(
            SensitivityPoint(
                value=float(value),
                speedup=comparison.speedup,
                energy_improvement=comparison.energy_improvement,
                edp_improvement=comparison.edp_improvement,
            )
        )
    return SensitivityResult(
        parameter=parameter,
        workload=workload.name,
        points=tuple(points),
    )
