"""APIM execution engine: the public arithmetic front end for workloads.

Workloads (Sobel, FFT, ...) express their inner loops as calls on an
:class:`APIMEngine`.  The engine

- performs *signed* fixed-point arithmetic on NumPy ``int64`` arrays by
  lowering to the unsigned bit-accurate models (sign-magnitude datapath for
  multiplication, two's-complement for addition — matching how the OpenCL
  kernels would be compiled onto APIM's unsigned crossbar primitives);
- applies the engine's current :class:`~repro.core.approximation.ApproxSpec`
  to every operation (this is the paper's runtime-tunable knob: the
  controller "sets the pre-calculated value of m" per application);
- charges every operation to a :class:`~repro.core.cost.CostLedger` and
  counts operations, so the runtime can roll up energy, latency and EDP.

The engine is deliberately small: multiply, add, multi-operand add, and the
free-in-hardware data-movement helpers (shift/scale via the configurable
interconnect).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.adder import APIMAdder
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost, CostLedger
from repro.core.multiplier import APIMMultiplier
from repro.core.timing import cost_copy
from repro.errors import ConfigurationError

__all__ = ["APIMEngine"]


class APIMEngine:
    """Array-level APIM arithmetic with cost accounting.

    Parameters
    ----------
    config:
        Architecture configuration (defaults to the paper's).
    spec:
        Approximation applied to every operation unless overridden per call.
    """

    def __init__(
        self,
        config: APIMConfig | None = None,
        spec: ApproxSpec = EXACT,
    ) -> None:
        self.config = config or default_config()
        self.spec = spec
        self.ledger = CostLedger()
        self.multiplier = APIMMultiplier(self.config)
        self.adder = APIMAdder(self.config)
        self.mul_count = 0
        self.add_count = 0
        self._sign_limit = np.int64(1 << (self.config.word_bits - 1))

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Clear accumulated cost and operation counters."""
        self.ledger.reset()
        self.mul_count = 0
        self.add_count = 0

    @property
    def total_cost(self) -> Cost:
        """Everything charged since the last :meth:`reset`."""
        return self.ledger.total

    # -- arithmetic ----------------------------------------------------------

    def mul(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        spec: ApproxSpec | None = None,
    ) -> np.ndarray:
        """Signed element-wise multiplication; returns full int64 products.

        Lowered to the unsigned multiplier on magnitudes with the result
        sign restored (sign-magnitude datapath); both approximation
        mechanisms therefore act on magnitude bits, as in the hardware.
        """
        spec = self.spec if spec is None else spec
        av, a_sign = self._to_magnitude(a, "a")
        bv, b_sign = self._to_magnitude(b, "b")
        result = self.multiplier.multiply(av, bv, spec)
        self.ledger.charge("multiply", result.cost)
        self.mul_count += int(np.asarray(result.products).size)
        signs = a_sign * b_sign
        return (result.products.astype(np.int64)) * signs

    def add(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        width: int | None = None,
        spec: ApproxSpec | None = None,
    ) -> np.ndarray:
        """Signed element-wise addition at ``width`` bits (two's complement).

        ``width`` defaults to the word width; accumulations of products may
        pass a wider width (up to 62).  The last-stage approximation relaxes
        ``spec.relax_bits`` LSBs, exactly as in the multiplier's final stage.
        """
        spec = self.spec if spec is None else spec
        width = width or self.config.word_bits
        if not 1 <= width <= 62:
            raise ConfigurationError(f"add width {width} outside [1, 62]")
        relax = min(spec.relax_bits, width)
        au = self._to_twos_complement(a, width, "a")
        bu = self._to_twos_complement(b, width, "b")
        result = self.adder.add(au, bu, relax_bits=relax, width=width)
        self.ledger.charge("add", result.cost)
        self.add_count += int(np.asarray(result.sums).size)
        return self._from_twos_complement(result.sums, width)

    def sub(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        width: int | None = None,
    ) -> np.ndarray:
        """Signed subtraction ``a - b`` (addition of the two's complement)."""
        b_arr = np.asarray(b, dtype=np.int64)
        return self.add(a, -b_arr, width=width)

    def sum_many(
        self,
        operands: Sequence[np.ndarray | int],
        width: int | None = None,
        spec: ApproxSpec | None = None,
    ) -> np.ndarray:
        """Signed multi-operand addition via the fast (tree) adder."""
        spec = self.spec if spec is None else spec
        width = width or self.config.word_bits
        if not 1 <= width <= 58:
            raise ConfigurationError(f"sum_many width {width} outside [1, 58]")
        if not operands:
            raise ConfigurationError("sum_many needs at least one operand")
        relax = min(spec.relax_bits, width)
        lowered = [self._to_twos_complement(op, width, f"operand[{i}]")
                   for i, op in enumerate(operands)]
        result = self.adder.add_many(lowered, relax_bits=relax, width=width)
        self.ledger.charge("add", result.cost)
        self.add_count += int(np.asarray(result.sums).size) * (len(operands) - 1)
        return self._from_twos_complement(result.sums, width)

    def shift_right(self, values: np.ndarray | int, shift: int) -> np.ndarray:
        """Arithmetic right shift (fixed-point rescale).

        Free in latency on APIM — the configurable interconnect shifts while
        copying (paper Section 3.1) — but the copy's NOR/interconnect energy
        is charged.
        """
        if shift < 0:
            raise ConfigurationError(f"shift must be >= 0, got {shift}")
        array = np.asarray(values, dtype=np.int64)
        if shift:
            self._charge_shift(array.size)
        return array >> np.int64(shift) if shift else array

    def shift_left(self, values: np.ndarray | int, shift: int) -> np.ndarray:
        """Left shift (fixed-point up-scale); free latency, copy energy.

        Raises when the shifted value would leave the 62-bit accumulator
        range the engine's adders support.
        """
        if shift < 0:
            raise ConfigurationError(f"shift must be >= 0, got {shift}")
        array = np.asarray(values, dtype=np.int64)
        if shift:
            limit = np.int64(1) << np.int64(61 - shift)
            if np.any(np.abs(array) >= limit):
                raise ConfigurationError(
                    f"shift_left by {shift} overflows the accumulator range"
                )
            self._charge_shift(array.size)
        return array << np.int64(shift) if shift else array

    def _charge_shift(self, count: int) -> None:
        """Energy of a shift-while-copy through the interconnect.

        No cycle overhead (paper Section 3.1: shifting is clubbed with the
        copy that surrounds it); the two-NOT copy energy and interconnect
        traffic are charged.
        """
        copy = cost_copy(self.config.word_bits).scaled(count)
        self.ledger.charge(
            "interconnect",
            Cost(nor_ops=copy.nor_ops, interconnect_bits=copy.interconnect_bits),
        )

    # -- lowering helpers ------------------------------------------------------

    def _to_magnitude(
        self, values: np.ndarray | int, name: str
    ) -> tuple[np.ndarray, np.ndarray]:
        array = np.asarray(values, dtype=np.int64)
        if np.any(np.abs(array) >= self._sign_limit):
            raise ConfigurationError(
                f"{name} magnitude exceeds the signed "
                f"{self.config.word_bits}-bit range"
            )
        signs = np.where(array < 0, np.int64(-1), np.int64(1))
        return np.abs(array).astype(np.uint64), signs

    @staticmethod
    def _to_twos_complement(
        values: np.ndarray | int, width: int, name: str
    ) -> np.ndarray:
        array = np.asarray(values, dtype=np.int64)
        limit = np.int64(1) << np.int64(width - 1)
        if np.any(array >= limit) or np.any(array < -limit):
            raise ConfigurationError(
                f"{name} exceeds the signed {width}-bit range"
            )
        modulus = np.uint64(1) << np.uint64(width)
        return array.astype(np.uint64) & (modulus - np.uint64(1))

    @staticmethod
    def _from_twos_complement(values: np.ndarray, width: int) -> np.ndarray:
        # The adder returns width+1 bits (carry-out); interpret the low
        # `width` bits as two's complement.
        modulus = np.uint64(1) << np.uint64(width)
        low = np.asarray(values, dtype=np.uint64) & (modulus - np.uint64(1))
        signed = low.astype(np.int64)
        half = np.int64(1) << np.int64(width - 1)
        return np.where(signed >= half, signed - np.int64(2) * half, signed)
