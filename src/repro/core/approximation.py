"""APIM's two approximation mechanisms, bit-accurate and vectorised.

The paper (Section 3.4) proposes two ways to trade accuracy for speed:

1. **First-stage approximation** — mask the ``masked_bits`` least significant
   bits of the multiplier before partial products are generated.  Cheap and
   energy-efficient (fewer partial products), but the error enters at the
   start and propagates through the whole multiplication.

2. **Last-stage approximation** — in the final addition of the two 2N-bit
   carry-save survivors, compute every carry exactly via the modified
   sense amplifier's MAJ function, then *approximate* each of the
   ``relax_bits`` least significant sum bits as the complement of the carry
   generated at that position: ``S_i = NOT(C_{i+1})``.  This identity holds
   for six of the eight input combinations of a 1-bit addition; it fails
   only for ``(A, B, Cin) = (0,0,0)`` and ``(1,1,1)`` — a 25 % per-bit error
   probability on random data.  The ``k = width - m`` most significant bits
   are computed conventionally, so the approximation cannot corrupt them.

Both mechanisms are implemented here as exact bit-level transforms over
NumPy ``uint64`` arrays, so workload-scale experiments run at array speed
while remaining faithful to the hardware's bit behaviour.

The paper's adaptive mode uses last-stage approximation only (Table 1's
"relax bits" is ``m``); first-stage masking appears in Figure 4's
comparison.  :class:`ApproxSpec` captures either (or both, for ablations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import ApproximationError

__all__ = [
    "ApproxMode",
    "ApproxSpec",
    "EXACT",
    "mask_multiplier",
    "approximate_final_add",
    "approximate_sum",
    "approximate_sum_bit",
]


class ApproxMode(enum.Enum):
    """Which approximation mechanism an :class:`ApproxSpec` engages."""

    EXACT = "exact"
    FIRST_STAGE = "first_stage"
    LAST_STAGE = "last_stage"
    BOTH = "both"


@dataclass(frozen=True)
class ApproxSpec:
    """Approximation setting of one APIM operation.

    Attributes
    ----------
    masked_bits:
        First-stage: number of multiplier LSBs masked to zero.
    relax_bits:
        Last-stage: number of product LSBs whose sum bits are approximated
        (the paper's ``m``); the exact portion is ``k = 2N - m``.
    """

    masked_bits: int = 0
    relax_bits: int = 0

    def __post_init__(self) -> None:
        if self.masked_bits < 0:
            raise ApproximationError(f"masked_bits must be >= 0: {self.masked_bits}")
        if self.relax_bits < 0:
            raise ApproximationError(f"relax_bits must be >= 0: {self.relax_bits}")

    @property
    def mode(self) -> ApproxMode:
        """The mechanism combination this spec engages."""
        if self.masked_bits and self.relax_bits:
            return ApproxMode.BOTH
        if self.masked_bits:
            return ApproxMode.FIRST_STAGE
        if self.relax_bits:
            return ApproxMode.LAST_STAGE
        return ApproxMode.EXACT

    def validate_for(self, word_bits: int) -> None:
        """Check the spec against an operand width (product is 2x wider)."""
        if self.masked_bits > word_bits:
            raise ApproximationError(
                f"masked_bits {self.masked_bits} exceeds word width {word_bits}"
            )
        if self.relax_bits > 2 * word_bits:
            raise ApproximationError(
                f"relax_bits {self.relax_bits} exceeds product width {2 * word_bits}"
            )

    @classmethod
    def first_stage(cls, masked_bits: int) -> "ApproxSpec":
        """Spec masking ``masked_bits`` multiplier LSBs."""
        return cls(masked_bits=masked_bits)

    @classmethod
    def last_stage(cls, relax_bits: int) -> "ApproxSpec":
        """Spec relaxing ``relax_bits`` product LSBs (the paper's default)."""
        return cls(relax_bits=relax_bits)


#: Convenience constant: the exact (no approximation) spec.
EXACT = ApproxSpec()


def _as_uint64(values: np.ndarray | int) -> np.ndarray:
    array = np.asarray(values, dtype=np.uint64)
    return array


def mask_multiplier(
    multiplier: np.ndarray | int, masked_bits: int, word_bits: int
) -> np.ndarray:
    """First-stage approximation: zero the ``masked_bits`` LSBs.

    Returns the masked multiplier as ``uint64``.
    """
    if not 0 <= masked_bits <= word_bits:
        raise ApproximationError(
            f"masked_bits {masked_bits} outside [0, {word_bits}]"
        )
    values = _as_uint64(multiplier)
    if masked_bits == 0:
        return values
    keep = (np.uint64(1) << np.uint64(word_bits)) - np.uint64(1)
    keep &= ~((np.uint64(1) << np.uint64(masked_bits)) - np.uint64(1))
    return values & keep


def approximate_final_add(
    x: np.ndarray | int,
    y: np.ndarray | int,
    width: int,
    relax_bits: int,
) -> np.ndarray:
    """Bit-accurate model of the approximate final product stage.

    Adds the two carry-save survivors ``x`` and ``y`` (each at most ``width``
    bits, with ``x + y < 2**width`` guaranteed by construction since their
    sum is the true product).  Carries are exact at every position; the
    ``relax_bits`` least significant *sum* bits are replaced by the
    complement of the carry generated at their position.

    Implementation note: for a ripple addition, the exact carry-in vector is
    recoverable from the exact sum as ``c = x XOR y XOR (x + y)`` (bit ``i``
    of ``c`` is the carry *into* position ``i``), so the whole transform is
    a handful of vectorised bitwise operations — no per-bit loop.
    """
    xv = _as_uint64(x)
    yv = _as_uint64(y)
    exact_sum = xv + yv  # < 2**width by contract; wraps harmlessly at 64.
    half_sum = xv ^ yv if relax_bits else None
    return approximate_sum(exact_sum, half_sum, width, relax_bits)


def approximate_sum(
    exact_sum: np.ndarray,
    half_sum: np.ndarray | None,
    width: int,
    relax_bits: int,
) -> np.ndarray:
    """:func:`approximate_final_add` given the survivors' exact sum
    ``x + y`` and their carry-less sum ``x ^ y`` (NumPy ``uint64``).

    Only bits ``0 .. relax_bits`` of ``half_sum`` are read (none at
    ``relax_bits == 0``), so a caller that knows the exact sum by other
    means, as the multiplier knows ``a * b``, need only produce the low
    ``relax_bits + 1`` bits of ``x ^ y``; its higher bits may be anything.
    """
    if not 1 <= width <= 64:
        raise ApproximationError(f"width {width} outside [1, 64]")
    if not 0 <= relax_bits <= width:
        raise ApproximationError(f"relax_bits {relax_bits} outside [0, {width}]")
    if relax_bits == 0:
        return exact_sum
    carries_in = half_sum ^ exact_sum  # bit i = carry into position i
    carries_out = carries_in >> np.uint64(1)
    if width < 64:
        carries_out |= (exact_sum >> np.uint64(width)) << np.uint64(width - 1)
    low_mask = np.uint64(0xFFFFFFFFFFFFFFFF) if relax_bits >= 64 else (
        (np.uint64(1) << np.uint64(relax_bits)) - np.uint64(1)
    )
    approx_low = (~carries_out) & low_mask
    return (exact_sum & ~low_mask) | approx_low


def approximate_sum_bit(a: int, b: int, carry_in: int) -> tuple[int, int]:
    """Scalar 1-bit approximate addition: ``(sum_approx, carry_out_exact)``.

    The hardware primitive behind last-stage approximation: the modified SA
    evaluates ``Cout = MAJ(a, b, cin)`` exactly and the sum is approximated
    as ``NOT(Cout)``.  Used by the structural simulator and by tests that
    verify the 25 % random-input error rate the paper quotes.
    """
    for name, bit in (("a", a), ("b", b), ("carry_in", carry_in)):
        if bit not in (0, 1):
            raise ApproximationError(f"{name} must be 0 or 1, got {bit!r}")
    carry_out = (a & b) | (b & carry_in) | (carry_in & a)
    return 1 - carry_out, carry_out
