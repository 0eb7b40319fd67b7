"""The MAGIC serial adder baseline [Talati et al., IEEE TNANO 2016].

Reference [24] of the paper: addition implemented purely with MAGIC NOR in
a standard (un-blocked) crossbar.  Two N-bit operands take ``12N + 1``
cycles; multi-operand sums are produced by repeated two-operand additions,
so latency grows linearly with the operand count *and* the operand width —
the scaling the APIM fast adder attacks (Figure 6 compares exactly this).

Because the design lacks APIM's interconnect, operand alignment needs
bit-individual copy operations; the paper notes its Figure 6 numbers for
prior work generously *exclude* that shifting cost, and so does this model
(flag :attr:`TalatiAdderModel.include_shift_cost` to price it).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.core.timing import NOR_OPS_PER_FA, serial_add_cycles
from repro.errors import ConfigurationError

__all__ = ["TalatiAdderModel"]


@dataclass(frozen=True)
class TalatiAdderModel:
    """Latency/energy model of serial MAGIC addition in a plain crossbar.

    Attributes
    ----------
    config:
        Shared device/timing constants (same cell technology as APIM —
        both are MAGIC on RRAM, so the cycle time and NOR energy match).
    include_shift_cost:
        When True, adds the per-bit copy cost of aligning operands that a
        plain crossbar without configurable interconnects must pay
        (2 cycles per bit moved: the two-NOT copy, done bit-serially).
    """

    config: APIMConfig = None  # type: ignore[assignment]
    include_shift_cost: bool = False

    def __post_init__(self) -> None:
        if self.config is None:
            object.__setattr__(self, "config", default_config())

    # -- two-operand addition -------------------------------------------------

    def add_cost(self, width: int) -> Cost:
        """Two-operand serial addition: ``12N + 1`` cycles."""
        if width <= 0:
            raise ConfigurationError(f"width must be positive: {width}")
        return Cost(
            cycles=serial_add_cycles(width),
            nor_ops=NOR_OPS_PER_FA * width,
        )

    # -- multi-operand addition -------------------------------------------------

    def multi_add_cost(self, operands: int, width: int) -> Cost:
        """Sum of ``operands`` ``width``-bit numbers by repeated addition.

        The running sum grows one bit whenever the partial total can carry
        past the current field, so addition ``i`` runs at width
        ``width + ceil(log2(i + 1))``.
        """
        if operands < 1:
            raise ConfigurationError("need at least one operand")
        if width <= 0:
            raise ConfigurationError(f"width must be positive: {width}")
        total = Cost()
        for i in range(1, operands):
            grown = width + (i + 1 - 1).bit_length()  # ceil(log2(i+1))
            total += self.add_cost(grown)
            if self.include_shift_cost:
                # Bit-serial alignment of the next operand: 2 cycles/bit.
                total += Cost(cycles=2 * grown, nor_ops=2 * grown)
        return total
