"""DDR4 DIMM model: the host memory where the paper preloads all data.

Experimental setup (paper Section 4.1): "all the data used in the
experiments is preloaded into 64 GB, 2.1 GHz DDR4 DIMMs" — so the GPU's
large-dataset traffic streams from host DDR4, not from on-board GDDR5.
This model prices that traffic:

- **Bandwidth**: a DDR4-2100 channel moves ``8 B x 2.1 GT/s = 16.8 GB/s``;
  we model a dual-channel host for 33.6 GB/s peak and derate by an
  efficiency factor for row-buffer behaviour.
- **Row-buffer locality**: the fraction of accesses hitting an open row
  falls as the working set spreads over more rows/banks; we model it as
  ``rows_touched / rows_available`` saturating to the streaming floor.
  This is the second mechanism (besides TLB walks) behind the GPU's
  per-element cost growth in Figure 5.
- **Energy**: activation + read/write + I/O, expressed per bit; the
  standard DDR4 figure of merit is 15-25 pJ/bit end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import PJ

__all__ = ["DRAMModel"]

#: Concurrent sequential streams (a GPU kernel's wavefronts) sharing the
#: open rows.
STREAMS = 4


@dataclass(frozen=True)
class DRAMModel:
    """Analytic DDR4 DIMM timing/energy model.

    Attributes
    ----------
    peak_bandwidth:
        Peak channel bandwidth in bytes/second (dual-channel DDR4-2100).
    row_hit_efficiency:
        Achievable fraction of peak bandwidth under perfect row locality.
    row_miss_efficiency:
        Achievable fraction under worst-case row thrashing.
    row_buffer_bytes:
        Open-row (page) size per bank.
    banks:
        Total banks across the DIMMs.
    energy_per_bit_hit:
        Row-hit access energy per bit.
    energy_per_bit_miss:
        Row-miss (activate + precharge) energy per bit.
    """

    peak_bandwidth: float = 33.6e9
    row_hit_efficiency: float = 0.85
    row_miss_efficiency: float = 0.35
    row_buffer_bytes: int = 8192
    banks: int = 64
    energy_per_bit_hit: float = 15 * PJ
    energy_per_bit_miss: float = 28 * PJ

    def __post_init__(self) -> None:
        if self.peak_bandwidth <= 0:
            raise ConfigurationError("peak_bandwidth must be positive")
        if not 0 < self.row_miss_efficiency <= self.row_hit_efficiency <= 1:
            raise ConfigurationError(
                "need 0 < row_miss_efficiency <= row_hit_efficiency <= 1"
            )
        if self.row_buffer_bytes <= 0 or self.banks <= 0:
            raise ConfigurationError("row_buffer_bytes and banks must be positive")
        if self.energy_per_bit_hit < 0 or self.energy_per_bit_miss < 0:
            raise ConfigurationError("energies must be non-negative")

    # -- locality ------------------------------------------------------------

    def row_hit_rate(self, footprint_bytes: float) -> float:
        """Fraction of accesses served by an open row.

        With :data:`STREAMS` concurrent sequential streams, the open rows
        cover ``banks * row_buffer_bytes`` of footprint; beyond that, the
        chance that a stream's next access stays in its open row decays
        toward the streaming floor given by one row's worth of consecutive
        accesses per activation.
        """
        if footprint_bytes <= 0:
            raise ConfigurationError("footprint must be positive")
        open_coverage = self.banks * self.row_buffer_bytes
        if footprint_bytes <= open_coverage:
            return 1.0
        # Streaming floor: one activation per row of strided interleaved
        # streams; interference grows with the footprint/bank ratio.
        pressure = footprint_bytes / open_coverage
        floor = max(0.5, 1.0 - 0.08 * (pressure ** 0.25) * STREAMS ** 0.5)
        return max(floor, open_coverage / footprint_bytes)

    # -- pricing ------------------------------------------------------------

    def effective_bandwidth(self, footprint_bytes: float) -> float:
        """Sustained bandwidth at a given footprint (bytes/second)."""
        hit = self.row_hit_rate(footprint_bytes)
        eff = hit * self.row_hit_efficiency + (1 - hit) * self.row_miss_efficiency
        return self.peak_bandwidth * eff

    def transfer_time(self, bytes_moved: float, footprint_bytes: float) -> float:
        """Seconds to move ``bytes_moved`` at the footprint's locality."""
        if bytes_moved < 0:
            raise ConfigurationError("bytes_moved must be non-negative")
        if bytes_moved == 0:
            return 0.0
        return bytes_moved / self.effective_bandwidth(footprint_bytes)

    def transfer_energy(self, bytes_moved: float, footprint_bytes: float) -> float:
        """Joules to move ``bytes_moved`` at the footprint's locality."""
        if bytes_moved < 0:
            raise ConfigurationError("bytes_moved must be non-negative")
        hit = self.row_hit_rate(footprint_bytes)
        per_bit = (
            hit * self.energy_per_bit_hit + (1 - hit) * self.energy_per_bit_miss
        )
        return bytes_moved * 8 * per_bit
