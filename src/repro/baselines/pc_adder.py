"""The CRS PC-Adder baseline [Siemon et al., JETCAS 2015].

Reference [25] of the paper: a parallel-prefix-style adder built from
complementary resistive switches (CRS), organised as *multiple crossbar
arrays, each with its own wordline and bitline controllers*.  It is the
fastest prior in-memory adder the paper compares against in Figure 6 —
APIM's claim is "at least 2x speed up compared to previous designs" in
exact mode — but its arrayed organisation carries a large area overhead
that APIM's shared-periphery blocked design avoids.

[25]'s own latency figures are not restated in the APIM paper, so this
model is **fit to Figure 6**: per two-operand N-bit addition the CRS
sequence costs ``2N + 4`` switch steps, multi-operand sums reduce pairwise
over a binary tree of arrays, and a CRS step takes
:attr:`crs_step_factor` x the MAGIC cycle (CRS cells require a
read-before-write sequence, making their logic step slower than a MAGIC
NOR).  The fit reproduces the paper's shape: PC-Adder beats the serial
MAGIC adder everywhere, and APIM's tree beats PC-Adder by >= 2x.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.errors import ConfigurationError

__all__ = ["PCAdderModel"]


@dataclass(frozen=True)
class PCAdderModel:
    """Latency/energy/area model of the CRS PC-Adder.

    Attributes
    ----------
    config:
        Timing base (the MAGIC cycle the CRS step factor multiplies).
    crs_step_factor:
        CRS logic-step duration in MAGIC cycles (read + write phases).
    switch_energy_factor:
        CRS switch-event energy relative to a MAGIC NOR firing (CRS
        switches two anti-serial cells per event).
    """

    config: APIMConfig = None  # type: ignore[assignment]
    crs_step_factor: float = 4.0
    switch_energy_factor: float = 2.0
    transfer_cycles_per_bit: float = 2.0

    def __post_init__(self) -> None:
        if self.config is None:
            object.__setattr__(self, "config", default_config())
        if self.crs_step_factor <= 0 or self.switch_energy_factor <= 0:
            raise ConfigurationError("CRS factors must be positive")

    # -- primitive -----------------------------------------------------------

    def add_steps(self, width: int) -> int:
        """CRS steps of one two-operand ``width``-bit addition: ``2N + 4``."""
        if width <= 0:
            raise ConfigurationError(f"width must be positive: {width}")
        return 2 * width + 4

    def add_cost(self, width: int) -> Cost:
        """Two-operand addition, in MAGIC-cycle-equivalent cost units."""
        steps = self.add_steps(width)
        return Cost(
            cycles=steps * self.crs_step_factor,
            nor_ops=steps * self.switch_energy_factor,
        )

    # -- multi-operand ---------------------------------------------------------

    def multi_add_cost(self, operands: int, width: int) -> Cost:
        """Binary-tree pairwise reduction across parallel arrays.

        Level ``i`` adds pairs of ``width + i``-bit numbers concurrently in
        separate arrays (that concurrency is exactly what the per-array
        controllers buy); latency is the sum over levels, energy the sum
        over every addition performed.  Between levels, partial sums must
        cross array boundaries bit-serially (there is no configurable
        interconnect), costing :attr:`transfer_cycles_per_bit` per bit of
        the moved word — the overhead the paper's blocked design removes.
        """
        if operands < 1:
            raise ConfigurationError("need at least one operand")
        if width <= 0:
            raise ConfigurationError(f"width must be positive: {width}")
        total = Cost()
        remaining = operands
        level = 0
        while remaining > 1:
            pairs = remaining // 2
            level_width = width + level
            per_add = self.add_cost(level_width)
            # Latency: one addition's worth (pairs run concurrently);
            # energy: every pair pays.
            total += Cost(
                cycles=per_add.cycles,
                nor_ops=per_add.nor_ops * pairs,
            )
            remaining = pairs + remaining % 2
            level += 1
            if remaining > 1:
                moved = level_width + 1
                total += Cost(
                    cycles=self.transfer_cycles_per_bit * moved,
                    nor_ops=2 * moved * pairs,
                )
        return total
