"""Carry-save (3:2) reduction — the fast adder's arithmetic core.

The APIM fast adder (paper Section 3.2, Figure 2) reduces P operands to two
using layers of carry-save adders: every group of three operands is replaced
by a *sum* word (bitwise XOR) and a *carry* word (bitwise majority shifted
left by one).  Each layer costs 13 cycles regardless of operand width
because MAGIC executes all bit positions in parallel.

This module provides the reduction as bit-exact NumPy transforms, both for a
list of explicit operands (:func:`reduce_to_two`) and fused with partial
product generation for multiplication (:func:`reduce_partial_products`).
Carry-save reduction is *exact*: the two survivors always sum to the same
value as the inputs.  Approximation only ever enters in the final
two-operand addition (:mod:`repro.core.approximation`).

:func:`reduce_to_two` accepts ``None`` for an operand known to be zero in
every element.  Such a row keeps its place in the grouping schedule but
costs no array operation: a group with one known zero is a half-add, a
group with two passes its operand through.  The functional multiplier
(:mod:`repro.core.multiplier`) prices with this pruned form; it feeds the
tree only the rows its final add reads.

Note on fidelity: the hardware only instantiates partial products for *set*
multiplier bits, so operand grouping (and hence the individual survivor bit
patterns, though never their sum) depends on the multiplier's popcount.
:func:`reduce_partial_products` models that faithfully per scalar;
:func:`reduce_partial_products_vectorised` groups all N rows including
zeros, at full width, so every element follows one schedule.  That
full-row form preserves sums exactly and error statistics to within noise
(asserted by ``tests/test_cross_validation.py``); it is the reference the
pruned multiplier is checked against bit for bit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "csa_step",
    "reduce_to_two",
    "partial_products",
    "reduce_partial_products",
    "reduce_partial_products_vectorised",
]

_ONE = np.uint64(1)


def csa_step(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One 3:2 carry-save addition: ``(sum, carry)`` with
    ``sum + carry == a + b + c`` (modulo 2**64)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    c = np.asarray(c, dtype=np.uint64)
    half = a ^ b
    total = half ^ c
    # Majority: both of a, b set, or c set with exactly one of them.
    carry = ((a & b) | (c & half)) << _ONE
    return total, carry


def reduce_to_two(
    operands: Sequence[np.ndarray | int | None],
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Wallace-style reduction of arbitrarily many operands to two.

    Operands are grouped in threes per stage, exactly as the configurable
    interconnect arranges them in hardware; leftovers (one or two) pass
    through to the next stage unchanged.

    An operand given as ``None`` is a known zero: it holds its position in
    the schedule, and a survivor that is zero by construction comes back
    as ``None``.  Without known zeros both survivors are arrays.
    """
    if len(operands) == 0:
        raise ConfigurationError("cannot reduce an empty operand list")
    current = [
        None if op is None else np.asarray(op, dtype=np.uint64) for op in operands
    ]
    if len(current) == 1:
        only = current[0]
        return only, None if only is None else np.zeros_like(only)
    while len(current) > 2:
        nxt: list[np.ndarray | None] = []
        for i in range(0, len(current) - 2, 3):
            nxt.extend(_reduce_group(current[i : i + 3]))
        remainder = len(current) % 3
        if remainder:
            nxt.extend(current[-remainder:])
        current = nxt
    return current[0], current[1]


def _reduce_group(
    group: list[np.ndarray | None],
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """One 3:2 step over a group in which ``None`` marks a known zero."""
    live = [op for op in group if op is not None]
    if len(live) == 3:
        return csa_step(*live)
    if len(live) == 2:
        a, b = live
        return a ^ b, (a & b) << _ONE
    return (live[0] if live else None), None


def partial_products(
    a: np.ndarray | int, b: np.ndarray | int, word_bits: int
) -> list[np.ndarray]:
    """All N shifted partial products ``(a << i) * bit_i(b)`` as uint64.

    Rows for zero multiplier bits are zero words — the vectorised reduction
    keeps them (see module docstring); the scalar path filters them out.
    """
    if not 1 <= word_bits <= 32:
        raise ConfigurationError(f"word_bits {word_bits} outside [1, 32]")
    av = np.asarray(a, dtype=np.uint64)
    bv = np.asarray(b, dtype=np.uint64)
    rows = []
    for i in range(word_bits):
        bit = (bv >> np.uint64(i)) & _ONE
        rows.append((av << np.uint64(i)) * bit)
    return rows


def reduce_partial_products_vectorised(
    a: np.ndarray, b: np.ndarray, word_bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Carry-save survivors of ``a * b`` over whole arrays.

    Groups all ``word_bits`` partial-product rows (zero rows included), so
    every array element follows the same reduction schedule — this is what
    makes the transform expressible as a fixed sequence of vector ops.
    ``x + y == a * b`` exactly.
    """
    return reduce_to_two(partial_products(a, b, word_bits))


def reduce_partial_products(a: int, b: int, word_bits: int) -> tuple[int, int]:
    """Scalar carry-save survivors with hardware-faithful zero-row skipping.

    Only partial products of *set* multiplier bits enter the tree, matching
    the SA-gated copy in the hardware (paper Section 3.3: "we only generate
    a partial product when the multiplier bits are 1").
    """
    if not 1 <= word_bits <= 32:
        raise ConfigurationError(f"word_bits {word_bits} outside [1, 32]")
    if a < 0 or b < 0:
        raise ConfigurationError("operands must be non-negative")
    if a >= 1 << word_bits or b >= 1 << word_bits:
        raise ConfigurationError("operand exceeds word width")
    rows = [a << i for i in range(word_bits) if (b >> i) & 1]
    if not rows:
        return 0, 0
    if len(rows) == 1:
        return rows[0], 0
    x, y = reduce_to_two([np.uint64(r) for r in rows])
    return int(x), int(y)
