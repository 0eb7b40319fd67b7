"""Central configuration of the APIM architecture model.

Every latency and energy constant used by the functional models lives here,
with its derivation.  The paper (Section 4.1) obtains these constants from
Cadence Virtuoso circuit simulation at 45 nm with the VTEAM memristor model
(RON = 10 kOhm, ROFF = 10 MOhm); we derive constants of the same magnitude
analytically from the same device parameters and calibrate the remaining
freedom against the paper's headline results (see ``EXPERIMENTS.md``).

Timing facts stated explicitly in the paper:

- one MAGIC NOR operation defines the cycle time, **1.1 ns**;
- a sense-amplifier read takes **0.3 ns**;
- the modified SA computes a majority (MAJ) in **0.6 ns**, so carry
  generation plus write-back costs **2 cycles per bit** in the approximate
  final stage (2*2N + 1 cycles total for a 2N-bit result).

Energy derivations (order-of-magnitude, documented per field):

- ``e_nor``: a MAGIC NOR drives ``V0`` across input devices in series with
  the output device.  Worst case (all inputs '1', output switching) the path
  resistance is about ``RON`` so the instantaneous power is
  ``V0^2 / RON = 100 uW`` and a full 1.1 ns cycle dissipates about 110 fJ.
  Averaged over input patterns most gates see an ROFF-dominated path
  (0.1 uA), so the *average* per-cell NOR energy is far lower; we use 8 fJ.
- ``e_write``: a full SET/RESET pulse through a device trajectory between
  RON and ROFF; comparable to a worst-case NOR but with a stronger driver,
  averaged ~25 fJ per cell.
- ``e_sa_read``: small-signal sensing at 0.3 ns, ~2 fJ per bit.
- ``e_maj``: the modified SA evaluates MAJ in 0.6 ns, ~4 fJ per bit.
- ``e_interconnect``: driving one bit across the blocked-crossbar barrel
  shifter, ~1 fJ per bit (the paper stresses this circuit is small because
  all blocks share row/column controllers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.units import FJ, NS, KILO_OHM, MEGA_OHM

__all__ = ["APIMConfig", "default_config"]


@dataclass(frozen=True)
class APIMConfig:
    """Architecture, timing and energy parameters of the APIM design.

    Instances are immutable; use :meth:`with_overrides` to derive variants
    (e.g. for ablation benches).
    """

    # -- timing ------------------------------------------------------------
    cycle_time: float = 1.1 * NS
    """Latency of one MAGIC NOR operation (paper Section 2)."""

    sa_read_time: float = 0.3 * NS
    """Sense-amplifier read latency (paper Section 3.4)."""

    maj_time: float = 0.6 * NS
    """Majority evaluation latency in the modified SA (paper Section 3.4)."""

    # -- device ------------------------------------------------------------
    v0: float = 1.0
    """MAGIC execution voltage in volts."""

    r_on: float = 10 * KILO_OHM
    """Low (logic '1') device resistance (paper Section 4.1)."""

    r_off: float = 10 * MEGA_OHM
    """High (logic '0') device resistance (paper Section 4.1)."""

    # -- per-operation energies (joules) ------------------------------------
    e_nor: float = 8 * FJ
    """Average energy of one MAGIC NOR per output cell (see module doc)."""

    e_write: float = 25 * FJ
    """Average energy of one full cell write (SET/RESET pulse)."""

    e_sa_read: float = 2 * FJ
    """Energy of one sense-amplifier bit read."""

    e_maj: float = 4 * FJ
    """Energy of one majority evaluation in the modified SA."""

    e_interconnect: float = 1 * FJ
    """Energy of moving one bit through the configurable interconnect."""

    e_peripheral: float = 800 * FJ
    """Peripheral energy per lane-cycle (row/column decoders, line drivers,
    controller sequencing) for one active lane's block section.

    Driving a kilobit wordline plus decode logic at 45 nm costs on the
    order of a picojoule per activation; this term dominates APIM's energy
    (as peripheral circuits do in most RRAM designs) and is the constant
    calibrated against the paper's 28x energy headline (EXPERIMENTS.md).
    """

    p_static_per_block: float = 0.5e-6
    """Static power per active block pair in watts.

    Non-volatile crossbars have essentially no retention power; this term
    models peripheral (decoder/controller) leakage only.
    """

    # -- organisation --------------------------------------------------------
    word_bits: int = 32
    """Operand width N; the paper evaluates 32x32 multiplication."""

    block_rows: int = 1024
    """Wordlines per crossbar block."""

    block_cols: int = 1024
    """Bitlines per crossbar block."""

    mult_rows_per_lane: int = 192
    """Crossbar rows a single in-flight operation chain occupies.

    A 32x32 multiplication holds up to 32 partial products, about ten
    concurrent carry-save groups of 12 scratch rows each, and the final
    stage's working rows — roughly 6 N rows in total.  One 1024-row block
    therefore sustains ``block_rows / mult_rows_per_lane`` concurrent
    operations; this bounds APIM's SIMD width and is what Section 4.2's
    system-level speedups rest on.
    """

    processing_block_fraction: float = 0.5
    """Fraction of blocks acting as processing blocks at any instant.

    The paper toggles between data and processing blocks during N:2
    reduction, so on average half the involved blocks compute.
    """

    spare_row_fraction: float = 0.02
    """Fraction of each block's wordlines reserved as spare rows.

    The resilience layer retires rows with stuck cells onto this pool
    (CONTRA-style area budget: redundancy is bought at design time and the
    area model charges for it).  2% tracks commodity RRAM/DRAM redundancy
    provisioning; raise it for harsher fault-rate corners."""

    def __post_init__(self) -> None:
        self.validate()

    # -- derived quantities --------------------------------------------------

    @property
    def block_bits(self) -> int:
        """Storage capacity of one block in bits."""
        return self.block_rows * self.block_cols

    @property
    def block_bytes(self) -> int:
        """Storage capacity of one block in bytes."""
        return self.block_bits // 8

    def blocks_for(self, dataset_bytes: float) -> int:
        """Number of crossbar blocks a dataset of this size occupies."""
        if dataset_bytes <= 0:
            raise ConfigurationError("dataset size must be positive")
        return max(1, int(-(-dataset_bytes // self.block_bytes)))

    @property
    def spare_rows_per_block(self) -> int:
        """Spare wordlines reserved per block under the spare budget."""
        return math.ceil(self.block_rows * self.spare_row_fraction)

    def parallel_lanes(self, dataset_bytes: float) -> int:
        """Concurrent word-level operations for a resident dataset.

        ``lanes = processing_blocks * (rows per block / rows per op)``;
        each lane executes one multiplication (or addition) chain at a time,
        with MAGIC's row-parallel execution providing the intra-block SIMD.
        """
        blocks = self.blocks_for(dataset_bytes)
        processing = max(1, int(blocks * self.processing_block_fraction))
        per_block = max(1, self.block_rows // self.mult_rows_per_lane)
        return processing * per_block

    # -- lifecycle -------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent settings."""
        positive = {
            "cycle_time": self.cycle_time,
            "sa_read_time": self.sa_read_time,
            "maj_time": self.maj_time,
            "v0": self.v0,
            "r_on": self.r_on,
            "r_off": self.r_off,
            "word_bits": self.word_bits,
            "block_rows": self.block_rows,
            "block_cols": self.block_cols,
            "mult_rows_per_lane": self.mult_rows_per_lane,
        }
        for name, value in positive.items():
            if value <= 0:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        non_negative = {
            "e_nor": self.e_nor,
            "e_write": self.e_write,
            "e_sa_read": self.e_sa_read,
            "e_maj": self.e_maj,
            "e_interconnect": self.e_interconnect,
            "e_peripheral": self.e_peripheral,
            "p_static_per_block": self.p_static_per_block,
        }
        for name, value in non_negative.items():
            if value < 0:
                raise ConfigurationError(f"{name} must be non-negative, got {value}")
        if self.r_on >= self.r_off:
            raise ConfigurationError("r_on must be below r_off")
        if not 0 < self.processing_block_fraction <= 1:
            raise ConfigurationError("processing_block_fraction must be in (0, 1]")
        if not 0 <= self.spare_row_fraction < 0.5:
            raise ConfigurationError(
                "spare_row_fraction must be in [0, 0.5): spares are "
                "redundancy, not the majority of the array"
            )
        if self.word_bits > 64:
            raise ConfigurationError("word_bits above 64 is not supported")

    def with_overrides(self, **overrides: object) -> "APIMConfig":
        """Return a copy with some fields replaced (for ablations/sweeps)."""
        return replace(self, **overrides)  # type: ignore[arg-type]


def default_config() -> APIMConfig:
    """The paper's configuration: 1.1 ns cycle, 32-bit words, 10 k/10 M ohm."""
    return APIMConfig()
