"""Functional model of APIM's in-memory adders.

Two entry points mirror the hardware:

- :meth:`APIMAdder.add` — the serial two-operand adder (paper Section 2 /
  Talati-style MAGIC ripple addition, ``12N + 1`` cycles), optionally with
  the last-stage approximation applied to its ``relax_bits`` LSBs.  APIM
  reuses the same MAJ-based shortcut for standalone additions as for the
  multiplier's final stage, which is where most of Table 1's application
  speed-up on addition-heavy kernels comes from.
- :meth:`APIMAdder.add_many` — the fast multi-operand adder (paper
  Section 3.2, Figure 2): Wallace 3:2 reduction of all operands followed by
  one serial addition of the two survivors.  The survivors always sum to
  the operands' sum, so without relaxed bits the model evaluates only that
  sum; the reduction runs when the relaxed final add reads ``x ^ y``.

Values are bit-accurate uint64 transforms; costs come from
:mod:`repro.core.timing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.approximation import approximate_final_add
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.core.timing import (
    cost_hybrid_final_add,
    cost_wallace_reduce,
    reduction_stages,
)
from repro.core.wallace import reduce_to_two
from repro.errors import ApproximationError, ConfigurationError

__all__ = ["APIMAdder", "AddResult"]


@dataclass(frozen=True)
class AddResult:
    """Sums plus the aggregate cost of producing them."""

    sums: np.ndarray
    cost: Cost

    def __iter__(self):
        return iter((self.sums, self.cost))


class APIMAdder:
    """In-memory adder (functional model) for ``config.word_bits`` operands."""

    def __init__(self, config: APIMConfig | None = None) -> None:
        self.config = config or default_config()

    def add(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        relax_bits: int = 0,
        width: int | None = None,
    ) -> AddResult:
        """Add element-wise; result is ``width + 1`` bits (carry included).

        ``relax_bits`` LSBs of each sum are produced by the MAJ-based
        approximation; the rest (including the carry-out) are exact.
        """
        width = width or self.config.word_bits
        if not 1 <= width <= 63:
            raise ConfigurationError(f"add width {width} outside [1, 63]")
        if not 0 <= relax_bits <= width:
            raise ApproximationError(
                f"relax_bits {relax_bits} outside [0, {width}]"
            )
        av = self._check(a, width, "a")
        bv = self._check(b, width, "b")
        # Operands are < 2**width so x + y < 2**(width+1); evaluate the
        # approximation over width+1 bits so the carry-out stays exact.
        sums = approximate_final_add(av, bv, width + 1, relax_bits)
        per_element = cost_hybrid_final_add(width, relax_bits)
        count = int(np.asarray(av + bv).size)
        return AddResult(sums=sums, cost=per_element.scaled(count))

    def add_many(
        self,
        operands: Sequence[np.ndarray | int],
        relax_bits: int = 0,
        width: int | None = None,
    ) -> AddResult:
        """Fast multi-operand addition (tree reduction + one serial add).

        All operands are added element-wise; with P operands the reduction
        costs ``13 * stages(P)`` cycles and the final serial addition runs
        at the grown width ``width + stages(P) - 1``.
        """
        width = width or self.config.word_bits
        if not operands:
            raise ConfigurationError("add_many needs at least one operand")
        arrays = [self._check(op, width, f"operand[{i}]") for i, op in enumerate(operands)]
        count = int(np.broadcast(*arrays[:32]).size) if len(arrays) > 1 else int(
            np.asarray(arrays[0]).size
        )
        if len(arrays) == 1:
            return AddResult(sums=arrays[0].copy(), cost=Cost())
        stages = reduction_stages(len(arrays))
        final_width = min(width + max(stages - 1, 0) + 1, 64)
        relax = min(relax_bits, final_width)
        if relax:
            x, y = reduce_to_two(arrays)
            sums = approximate_final_add(x, y, final_width, relax)
        else:
            # The survivors sum to the operands' sum (mod 2**64), which is
            # all an exact final add reads: no reduction is evaluated.
            sums = sum(arrays[1:], arrays[0])
        per_element = Cost()
        if stages:
            per_element += cost_wallace_reduce(len(arrays), width)
        per_element += cost_hybrid_final_add(
            final_width - 1, min(relax_bits, final_width - 1)
        )
        return AddResult(sums=sums, cost=per_element.scaled(count))

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _check(values: np.ndarray | int, width: int, name: str) -> np.ndarray:
        array = np.asarray(values, dtype=np.uint64)
        limit = np.uint64((1 << width) - 1)
        if np.any(array > limit):
            raise ConfigurationError(f"{name} exceeds the {width}-bit width")
        return array
