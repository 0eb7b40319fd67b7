"""Latency/energy cost accounting for APIM operations.

A :class:`Cost` records what an operation *did* — clock cycles on the
critical path plus counters of physical micro-events (MAGIC NOR gate firings,
cell writes, SA reads, majority evaluations, interconnect bit transfers).
Costs are composable: ``+`` merges sequential work, :meth:`scaled` replicates
a cost (e.g. the same multiply over a million array elements).

Energy is evaluated against an :class:`~repro.core.config.APIMConfig` at
query time, so a single measured cost can be re-priced under different
energy corners (useful for the ablation benches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import APIMConfig
from repro.errors import ConfigurationError

__all__ = ["Cost", "CostLedger", "ENERGY_CATEGORIES"]

#: Categories reported by :meth:`Cost.energy_breakdown`.
ENERGY_CATEGORIES = (
    "nor",
    "write",
    "sa_read",
    "maj",
    "interconnect",
    "peripheral",
    "static",
)


@dataclass(frozen=True)
class Cost:
    """Cycle count and micro-event counters of one (or many) operations.

    Attributes
    ----------
    cycles:
        MAGIC clock cycles on the critical path of *one* lane.  When a cost
        describes work replicated across independent SIMD lanes (see
        :meth:`scaled`), ``cycles`` accumulates *total lane-cycles*; the
        runtime divides by the machine's lane count to obtain wall time.
    nor_ops:
        MAGIC NOR firings, counted per output cell.
    cell_writes:
        Full cell writes (initialisation, copies, result write-back).
    sa_reads:
        Sense-amplifier bit reads.
    maj_ops:
        Majority evaluations in the modified SA.
    interconnect_bits:
        Bits moved through the configurable interconnect.
    """

    cycles: float = 0.0
    nor_ops: float = 0.0
    cell_writes: float = 0.0
    sa_reads: float = 0.0
    maj_ops: float = 0.0
    interconnect_bits: float = 0.0

    def __add__(self, other: "Cost") -> "Cost":
        if not isinstance(other, Cost):
            return NotImplemented
        return Cost(
            cycles=self.cycles + other.cycles,
            nor_ops=self.nor_ops + other.nor_ops,
            cell_writes=self.cell_writes + other.cell_writes,
            sa_reads=self.sa_reads + other.sa_reads,
            maj_ops=self.maj_ops + other.maj_ops,
            interconnect_bits=self.interconnect_bits + other.interconnect_bits,
        )

    __radd__ = __add__

    def scaled(self, count: float) -> "Cost":
        """Replicate this cost ``count`` times (sequential or SIMD lanes)."""
        if count < 0:
            raise ConfigurationError(f"cannot scale a cost by {count}")
        return Cost(
            cycles=self.cycles * count,
            nor_ops=self.nor_ops * count,
            cell_writes=self.cell_writes * count,
            sa_reads=self.sa_reads * count,
            maj_ops=self.maj_ops * count,
            interconnect_bits=self.interconnect_bits * count,
        )

    # -- pricing --------------------------------------------------------------

    def time(self, config: APIMConfig, lanes: int = 1) -> float:
        """Wall-clock seconds when executed across ``lanes`` parallel lanes."""
        if lanes <= 0:
            raise ConfigurationError(f"lanes must be positive, got {lanes}")
        return self.cycles * config.cycle_time / lanes

    def energy_breakdown(
        self, config: APIMConfig, lanes: int = 1, active_blocks: int = 1
    ) -> dict[str, float]:
        """Per-category energy in joules.

        Static energy integrates peripheral leakage of the active blocks over
        the wall time; the dynamic categories are independent of lane count.
        """
        wall_time = self.time(config, lanes)
        return {
            "nor": self.nor_ops * config.e_nor,
            "write": self.cell_writes * config.e_write,
            "sa_read": self.sa_reads * config.e_sa_read,
            "maj": self.maj_ops * config.e_maj,
            "interconnect": self.interconnect_bits * config.e_interconnect,
            "peripheral": self.cycles * config.e_peripheral,
            "static": active_blocks * config.p_static_per_block * wall_time,
        }

    def energy(
        self, config: APIMConfig, lanes: int = 1, active_blocks: int = 1
    ) -> float:
        """Total energy in joules."""
        return sum(self.energy_breakdown(config, lanes, active_blocks).values())

    def edp(self, config: APIMConfig, lanes: int = 1) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy(config, lanes) * self.time(config, lanes)


class CostLedger:
    """Mutable accumulator of :class:`Cost` objects with named entries.

    The engine and executor use a ledger to attribute cost to logical steps
    (``"multiply"``, ``"reduce"``, ``"final"`` ...), which the ablation
    benches then break down.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Cost] = {}

    def charge(self, label: str, cost: Cost) -> None:
        """Add ``cost`` under ``label`` (labels accumulate)."""
        self._entries[label] = self._entries.get(label, Cost()) + cost

    @property
    def total(self) -> Cost:
        """Sum of all entries."""
        return sum(self._entries.values(), Cost())

    def entry(self, label: str) -> Cost:
        """Cost recorded under ``label`` (zero cost if absent)."""
        return self._entries.get(label, Cost())

    def labels(self) -> tuple[str, ...]:
        """Labels with recorded cost, in insertion order."""
        return tuple(self._entries)

    def reset(self) -> None:
        """Drop all recorded entries."""
        self._entries.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{label}={cost.cycles:.0f}cyc" for label, cost in self._entries.items()
        )
        return f"CostLedger({parts})"
