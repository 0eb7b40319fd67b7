"""Functional (bit-accurate, vectorised) model of the APIM multiplier.

Implements the three-stage multiplication of paper Section 3.3 /
Figure 1(b)-(d) over NumPy arrays:

1. **Partial product generation** — the multiplier is read bit-wise through
   the sense amplifier and the (pre-inverted) multiplicand is copy-shifted
   into the processing block once per *set* bit.
2. **Fast addition** — Wallace 3:2 carry-save reduction of the partial
   products down to two survivors (:mod:`repro.core.wallace`).
3. **Final product generation** — serial addition of the survivors, either
   exact or with the last-stage approximation
   (:func:`repro.core.approximation.approximate_sum`).

:meth:`APIMMultiplier.multiply` evaluates only what the final add reads.
The survivors always sum to ``a * b``, so that is the exact sum, one
``uint64`` multiply; at ``relax_bits == 0`` it is the product.  With ``m``
relaxed bits the final add also reads bits ``0 .. m`` of ``x ^ y``.  Bit
``i`` of a carry-save step's outputs depends only on input bits ``<= i``,
so the same grouping schedule is run with every row that is zero in those
bits marked a known zero: rows whose multiplier bit is clear in every
element, and rows shifted to bit ``m + 1`` or beyond.  The result is bit
for bit that of the full-row, full-width reduction
(:func:`repro.core.wallace.reduce_partial_products_vectorised`), which,
with the structural simulator, is the reference the tests compare against.

Latency and energy are charged per array element from the canonical
formulas in :mod:`repro.core.timing`; because every per-element cost is a
pure function of the multiplier's popcount, array-wide cost is one
per-popcount cost matrix (shared process-wide) dotted with the popcount
histogram.  Every entry is an integer-valued float, so the dot is exact.
"""

from __future__ import annotations

import functools
from dataclasses import astuple, dataclass

import numpy as np

from repro.core.approximation import (
    EXACT,
    ApproxSpec,
    approximate_final_add,
    approximate_sum,
    mask_multiplier,
)
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.core.timing import (
    cost_hybrid_final_add,
    cost_multiply,
    cost_ppgen,
    cost_wallace_reduce,
)
from repro.core.wallace import reduce_partial_products, reduce_to_two
from repro.errors import ConfigurationError

__all__ = ["APIMMultiplier", "MultiplyResult", "popcount"]


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element set-bit count of a uint64 array."""
    return np.bitwise_count(np.asarray(values, dtype=np.uint64))


@dataclass(frozen=True)
class MultiplyResult:
    """Products plus the aggregate cost of producing them."""

    products: np.ndarray
    cost: Cost

    def __iter__(self):
        return iter((self.products, self.cost))


class APIMMultiplier:
    """Unsigned N x N in-memory multiplier (functional model).

    Parameters
    ----------
    config:
        Architecture configuration; ``config.word_bits`` fixes the operand
        width N (the paper evaluates N = 32, product width 64).
    """

    def __init__(self, config: APIMConfig | None = None) -> None:
        self.config = config or default_config()
        n = self.config.word_bits
        if n > 32:
            raise ConfigurationError(
                "functional multiplier supports word_bits <= 32 "
                "(products must fit in uint64)"
            )
        self._operand_mask = np.uint64((1 << n) - 1)

    # -- public API -------------------------------------------------------

    def multiply(
        self, a: np.ndarray | int, b: np.ndarray | int, spec: ApproxSpec = EXACT
    ) -> MultiplyResult:
        """Multiply arrays of unsigned operands under an approximation spec.

        Returns products as ``uint64`` and the summed :class:`Cost` over all
        elements.  Operands must fit in ``word_bits``.
        """
        n = self.config.word_bits
        spec.validate_for(n)
        av = self._check_operands(a, "multiplicand")
        bv = self._check_operands(b, "multiplier")
        b_eff = mask_multiplier(bv, spec.masked_bits, n)
        counts = popcount(b_eff)
        exact = av * b_eff
        products = exact
        if spec.relax_bits:
            half_sum = _survivor_half_sum(av, b_eff, n, spec.relax_bits)
            products = approximate_sum(exact, half_sum, 2 * n, spec.relax_bits)
            # Multipliers with at most one set bit never enter the final
            # stage (the lone partial product *is* the product), so no
            # approximation is applied to them in hardware.
            trivial = counts <= 1
            if np.any(trivial):
                products = np.where(trivial, exact, products)
        histogram = np.bincount(counts.ravel().astype(np.int64), minlength=n + 1)
        totals = histogram @ _cost_matrix(n, spec.relax_bits)
        return MultiplyResult(products=products, cost=Cost(*map(float, totals)))

    def multiply_scalar(
        self, a: int, b: int, spec: ApproxSpec = EXACT
    ) -> tuple[int, Cost]:
        """Hardware-faithful scalar multiply (zero partial products skipped).

        This is the reference the structural crossbar simulator is validated
        against; it differs from :meth:`multiply` only in which rows enter
        the reduction tree (never in the exact product value).
        """
        n = self.config.word_bits
        spec.validate_for(n)
        if a < 0 or b < 0 or a >= 1 << n or b >= 1 << n:
            raise ConfigurationError(
                f"operands ({a}, {b}) must be unsigned {n}-bit values"
            )
        b_eff = int(mask_multiplier(b, spec.masked_bits, n))
        set_bits = bin(b_eff).count("1")
        if set_bits <= 1:
            # No final stage: the lone (or absent) partial product is exact.
            return a * b_eff, cost_multiply(n, set_bits, spec.relax_bits)
        x, y = reduce_partial_products(a, b_eff, n)
        product = int(
            approximate_final_add(
                np.uint64(x), np.uint64(y), 2 * n, spec.relax_bits
            )
        )
        return product, cost_multiply(n, set_bits, spec.relax_bits)

    def exact_reference(self, a: np.ndarray | int, b: np.ndarray | int) -> np.ndarray:
        """The golden exact product (no cost), for accuracy evaluation."""
        av = self._check_operands(a, "multiplicand")
        bv = self._check_operands(b, "multiplier")
        return av * bv

    # -- internals ---------------------------------------------------------

    def _check_operands(self, values: np.ndarray | int, name: str) -> np.ndarray:
        array = np.asarray(values, dtype=np.uint64)
        if np.any(array > self._operand_mask):
            raise ConfigurationError(
                f"{name} exceeds the {self.config.word_bits}-bit word width"
            )
        return array


def _survivor_half_sum(
    a: np.ndarray, b: np.ndarray, word_bits: int, relax_bits: int
) -> np.ndarray:
    """Bits ``0 .. relax_bits`` of ``x ^ y`` for the carry-save survivors
    ``x, y`` of ``a * b`` (higher bits are not those of the full tree).

    Partial-product row ``i`` is ``a << i`` where bit ``i`` of ``b`` is
    set.  Rows that are zero in the bits read are known zeros in the
    grouping schedule: their multiplier bit is clear in every element, or
    they start above bit ``relax_bits``.
    """
    live = int(np.bitwise_or.reduce(b, axis=None))
    rows = [
        a * (b & np.uint64(1 << i)) if (live >> i) & 1 and i <= relax_bits else None
        for i in range(word_bits)
    ]
    x, y = reduce_to_two(rows)
    half_sum = np.uint64(0)
    for survivor in (x, y):
        if survivor is not None:
            half_sum = half_sum ^ survivor
    return half_sum


@functools.cache
def _cost_matrix(word_bits: int, relax_bits: int) -> np.ndarray:
    """``(word_bits + 1) x 6`` matrix: row ``c`` holds the :class:`Cost`
    fields of one multiply whose multiplier has ``c`` set bits, i.e. of
    ``cost_multiply(word_bits, c, relax_bits)``."""
    matrix = _stage_cost_matrix(word_bits).copy()
    # Rows 0 and 1 have no final add: their lone product is in place.
    matrix[2:] += astuple(cost_hybrid_final_add(2 * word_bits, relax_bits))
    matrix.flags.writeable = False  # one instance serves every caller
    return matrix


@functools.cache
def _stage_cost_matrix(word_bits: int) -> np.ndarray:
    """The relax-independent rows of :func:`_cost_matrix`: partial-product
    generation and, from two set bits on, the Wallace reduction."""
    width = 2 * word_bits
    rows = [cost_ppgen(word_bits, c) for c in range(word_bits + 1)]
    for c in range(2, word_bits + 1):
        rows[c] += cost_wallace_reduce(c, width, max_width=width)
    return np.array([astuple(row) for row in rows], dtype=np.float64)
