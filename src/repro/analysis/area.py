"""Area model of the APIM memory unit.

The paper argues its area overhead is small: "the area and logic overhead
introduced by the proposed memory unit is restricted to the interconnect
circuit and its control logic", against the PC-Adder's per-array
controllers.  This module quantifies that claim with the standard
feature-size-squared accounting:

- RRAM cells in a 4F^2 crosspoint footprint;
- CMOS periphery (decoders, drivers, sense amplifiers, interconnect
  switches) from transistor counts at a per-transistor area factor.

Everything is parameterised on the feature size ``f_nm`` (the paper
characterises at 45 nm).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import APIMConfig, default_config
from repro.crossbar.decoder import SharedPeriphery
from repro.errors import ConfigurationError

__all__ = ["AreaModel", "AreaReport"]

#: Crosspoint cell footprint in F^2 (ideal 4F^2 crossbar).
CELL_F2 = 4.0

#: Average CMOS transistor footprint in F^2 (layout with routing).
TRANSISTOR_F2 = 160.0

#: Transistors per sense amplifier (current-mirror SA + MAJ comparator
#: + output mux, Figure 3(b)).
SA_TRANSISTORS = 22


@dataclass(frozen=True)
class AreaReport:
    """Area split of one APIM memory unit, in mm^2."""

    cells_mm2: float
    decoders_mm2: float
    sense_amps_mm2: float
    interconnect_mm2: float
    spare_rows_mm2: float = 0.0

    @property
    def total_mm2(self) -> float:
        """Total unit area."""
        return (
            self.cells_mm2
            + self.decoders_mm2
            + self.sense_amps_mm2
            + self.interconnect_mm2
            + self.spare_rows_mm2
        )

    @property
    def overhead_fraction(self) -> float:
        """Non-storage area over total — the paper's 'overhead' figure."""
        periphery = self.total_mm2 - self.cells_mm2
        return periphery / self.total_mm2 if self.total_mm2 else 0.0


class AreaModel:
    """Feature-size-squared area accounting for a blocked crossbar unit."""

    def __init__(
        self, config: APIMConfig | None = None, f_nm: float = 45.0
    ) -> None:
        if f_nm <= 0:
            raise ConfigurationError(f"feature size must be positive: {f_nm}")
        self.config = config or default_config()
        self.f_nm = f_nm

    def _f2_to_mm2(self, f2: float) -> float:
        meters = self.f_nm * 1e-9
        return f2 * meters * meters * 1e6  # m^2 -> mm^2

    def unit_area(self, num_blocks: int) -> AreaReport:
        """Area of a unit of ``num_blocks`` blocks with shared periphery."""
        if num_blocks <= 0:
            raise ConfigurationError("need at least one block")
        cfg = self.config
        cells_f2 = num_blocks * cfg.block_rows * cfg.block_cols * CELL_F2
        periphery = SharedPeriphery(cfg.block_rows, cfg.block_cols, num_blocks)
        decoder_t = (cfg.block_rows + cfg.block_cols) * (
            periphery.TRANSISTORS_PER_LINE
        )
        switch_t = (
            (num_blocks - 1)
            * cfg.block_cols
            * periphery.TRANSISTORS_PER_SWITCH
        )
        sa_t = cfg.block_cols * SA_TRANSISTORS  # one SA bank, shared
        # Spare-row redundancy budget (resilience layer): extra wordlines
        # of cells per block plus their lines on the shared row decoder.
        spare_rows = cfg.spare_rows_per_block
        spare_f2 = (
            num_blocks * spare_rows * cfg.block_cols * CELL_F2
            + spare_rows * periphery.TRANSISTORS_PER_LINE * TRANSISTOR_F2
        )
        return AreaReport(
            cells_mm2=self._f2_to_mm2(cells_f2),
            decoders_mm2=self._f2_to_mm2(decoder_t * TRANSISTOR_F2),
            sense_amps_mm2=self._f2_to_mm2(sa_t * TRANSISTOR_F2),
            interconnect_mm2=self._f2_to_mm2(switch_t * TRANSISTOR_F2),
            spare_rows_mm2=self._f2_to_mm2(spare_f2),
        )

    def per_array_controller_area(self, num_blocks: int) -> float:
        """Area (mm^2) the PC-Adder-style organisation pays instead: every
        block with its own decoders, no interconnect."""
        if num_blocks <= 0:
            raise ConfigurationError("need at least one block")
        cfg = self.config
        periphery = SharedPeriphery(cfg.block_rows, cfg.block_cols, num_blocks)
        transistors = periphery.periphery_transistors(shared=False)
        transistors += num_blocks * cfg.block_cols * SA_TRANSISTORS
        return self._f2_to_mm2(transistors * TRANSISTOR_F2)
