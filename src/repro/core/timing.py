"""Canonical APIM latency formulas and micro-event cost builders.

Every cycle count stated in the paper is implemented here, once, and used by
both the functional models (:mod:`repro.core.multiplier`,
:mod:`repro.core.adder`) and the experiment drivers.  The structural crossbar
simulator (:mod:`repro.crossbar`) derives its own counts by actually
executing micro-ops; the cross-validation tests assert both agree.

Paper formulas (Sections 2-3.4):

==============================================  =======================
operation                                        cycles
==============================================  =======================
MAGIC NOR (any fan-in, any SIMD width)           1
two-operand serial N-bit add                     ``12N + 1``
one-bit full add / any-width 3:2 CSA step        ``13``
fast add of P operands (N-bit)                   ``13*stages(P) + 12*(N
                                                 + stages(P) - 1) + 1``
partial-product generation, c set multiplier     ``c + 1`` (worst N+1)
bits
exact final add of two W-bit addends             ``12W + 1``
hybrid final add, k exact MSBs + m approx LSBs   ``13k + 2m + 1``
==============================================  =======================

``stages(P)`` is the Wallace 3:2 reduction depth: operand count evolves as
``P -> 2*floor(P/3) + (P mod 3)`` until at most two operands remain
(9 operands take 4 stages, matching the paper's Figure 2(b)).

Micro-event counts (used for energy) follow the MAGIC NOR decompositions in
the paper's Eq. (1a)/(1b): one 1-bit full addition costs ``NOR_OPS_PER_FA``
NOR firings; a copy is two successive NOT (1-input NOR) operations whose
first stage is shared across all copies of the same source row.
"""

from __future__ import annotations

from repro.core.cost import Cost
from repro.errors import ApproximationError, ConfigurationError

__all__ = [
    "FULL_ADDER_CYCLES",
    "NOR_OPS_PER_FA",
    "serial_add_cycles",
    "hybrid_final_add_cycles",
    "reduction_sequence",
    "reduction_stages",
    "fast_multi_add_cycles",
    "cost_hybrid_final_add",
    "cost_csa_step",
    "cost_wallace_reduce",
    "cost_ppgen",
    "cost_copy",
    "cost_multiply",
]

#: Cycles of one isolated 1-bit full addition (paper Section 3.2).
FULL_ADDER_CYCLES = 13

#: MAGIC NOR firings per 1-bit full addition, from the Eq. (1a)/(1b)
#: decomposition of sum and carry into NOR operations.
NOR_OPS_PER_FA = 12


def _check_width(n: int) -> None:
    if n <= 0:
        raise ConfigurationError(f"bit width must be positive, got {n}")


# ---------------------------------------------------------------------------
# pure cycle formulas
# ---------------------------------------------------------------------------


def serial_add_cycles(n: int) -> int:
    """Cycles of a two-operand serial N-bit in-memory addition: ``12N + 1``."""
    _check_width(n)
    return 12 * n + 1


def hybrid_final_add_cycles(width: int, relax_bits: int) -> int:
    """Cycles of the final product stage with ``relax_bits`` approximate LSBs.

    ``13k + 2m + 1`` for ``k = width - m`` exact MSBs (paper Section 3.4).
    The formula is applied uniformly, so the exact case (``m = 0``) costs
    ``13*width + 1`` — the paper's own figure for the conventional final
    stage ("the conventional approach requires 13*2N cycles"); with
    ``relax_bits == width`` only the MAJ carry chain and one sum-inversion
    cycle remain (``2*width + 1``).
    """
    _check_width(width)
    if not 0 <= relax_bits <= width:
        raise ApproximationError(
            f"relax_bits {relax_bits} outside [0, {width}] for width {width}"
        )
    k = width - relax_bits
    return 13 * k + 2 * relax_bits + 1


def reduction_sequence(operands: int) -> list[int]:
    """Operand counts at the start of each 3:2 reduction stage.

    ``reduction_sequence(9) == [9, 6, 4, 3]`` (then 2 remain), i.e. four
    stages — the paper's 9:2 example.
    """
    if operands < 0:
        raise ConfigurationError(f"operand count must be non-negative: {operands}")
    sequence = []
    count = operands
    while count > 2:
        sequence.append(count)
        count = 2 * (count // 3) + count % 3
    return sequence


def reduction_stages(operands: int) -> int:
    """Number of 3:2 reduction stages to reach at most two operands."""
    return len(reduction_sequence(operands))


def fast_multi_add_cycles(operands: int, n: int) -> int:
    """Cycles of the fast adder summing ``operands`` N-bit numbers.

    Tree reduction (13 cycles per stage) followed by a serial addition of
    the two survivors, whose width has grown by one bit per stage beyond the
    first (9 operands of N bits leave two (N+3)-bit numbers; 3 operands give
    the paper's ``12N + 14``).
    """
    _check_width(n)
    if operands < 1:
        raise ConfigurationError("need at least one operand")
    if operands == 1:
        return 0
    stages = reduction_stages(operands)
    final_width = n + max(stages - 1, 0)
    return FULL_ADDER_CYCLES * stages + serial_add_cycles(final_width)


# ---------------------------------------------------------------------------
# cost builders (cycles + micro-events)
# ---------------------------------------------------------------------------


def cost_hybrid_final_add(width: int, relax_bits: int) -> Cost:
    """Final product stage with ``relax_bits`` approximate LSBs.

    The m approximate positions each evaluate MAJ over the two addend bits
    and the incoming carry in a single bitline activation, then write the
    carry back (2 cycles/bit, one MAJ + one cell write); all approximate sum
    bits are then produced by one parallel inversion cycle (m NOR firings).
    The k exact positions are conventional MAGIC full adders.
    """
    cycles = hybrid_final_add_cycles(width, relax_bits)
    k = width - relax_bits
    m = relax_bits
    return Cost(
        cycles=cycles,
        nor_ops=NOR_OPS_PER_FA * k + m,
        maj_ops=m,
        cell_writes=m,
    )


def cost_csa_step(width: int, groups: int = 1) -> Cost:
    """One 3:2 carry-save step over ``groups`` independent operand triples.

    13 cycles regardless of width or group count (all bit positions and all
    groups execute in parallel under MAGIC's SIMD voltage scheme).
    """
    _check_width(width)
    if groups < 1:
        raise ConfigurationError(f"groups must be >= 1, got {groups}")
    return Cost(
        cycles=FULL_ADDER_CYCLES,
        nor_ops=NOR_OPS_PER_FA * width * groups,
    )


def cost_wallace_reduce(operands: int, width: int, max_width: int | None = None) -> Cost:
    """Full N:2 tree reduction of ``operands`` numbers of ``width`` bits.

    Accumulates one CSA step per stage plus the interconnect traffic of
    toggling intermediate results between the data and processing blocks
    (every surviving operand moves once per stage, paper Section 3.3).

    ``max_width`` caps the stage width: inside a multiplication the
    operands are partial products whose sum — the product — is bounded by
    ``2**(2N)``, so fields never grow past the product width.
    """
    _check_width(width)
    total = Cost()
    stage_width = width
    for count in reduction_sequence(operands):
        groups = count // 3
        total += cost_csa_step(stage_width, groups)
        survivors = 2 * groups + count % 3
        total += Cost(interconnect_bits=survivors * stage_width)
        stage_width += 1
        if max_width is not None:
            stage_width = min(stage_width, max_width)
    return total


def cost_copy(bits: int, shared_not: bool = False) -> Cost:
    """Copy of a ``bits``-wide row between blocks through the interconnect.

    A copy is two successive NOT operations; when ``shared_not`` is true the
    first inversion was already produced by an earlier copy of the same
    source and only the second NOT fires (1 cycle).
    """
    _check_width(bits)
    if shared_not:
        return Cost(cycles=1, nor_ops=bits, interconnect_bits=bits)
    return Cost(cycles=2, nor_ops=2 * bits, interconnect_bits=bits)


def cost_ppgen(n: int, set_bits: int) -> Cost:
    """Partial-product generation for an N-bit multiplicand.

    Reads all N multiplier bits through the SA, then performs one gated
    shifted copy per set bit: the sum of one :func:`cost_copy` and
    ``set_bits - 1`` shared-NOT copies (the first copy pays the extra
    inversion cycle).
    """
    _check_width(n)
    if set_bits < 0 or set_bits > n:
        raise ConfigurationError(f"set_bits {set_bits} outside [0, {n}]")
    if set_bits == 0:
        return Cost(sa_reads=n)
    return Cost(
        cycles=float(set_bits + 1),
        nor_ops=float(n * (set_bits + 1)),
        sa_reads=float(n),
        interconnect_bits=float(n * set_bits),
    )


def cost_multiply(n: int, set_bits: int, relax_bits: int = 0) -> Cost:
    """Complete N x N multiplication cost for a multiplier with ``set_bits``
    ones and ``relax_bits`` approximate LSBs in the final stage.

    Stages (paper Figure 1(b)-(d)): partial-product generation, Wallace
    N:2 reduction of the ``set_bits`` non-zero partial products, and the
    final two-addend addition over the ``2N``-bit product.
    """
    _check_width(n)
    product_width = 2 * n
    if not 0 <= relax_bits <= product_width:
        raise ApproximationError(
            f"relax_bits {relax_bits} outside [0, {product_width}]"
        )
    cost = cost_ppgen(n, set_bits)
    if set_bits == 0:
        # Zero multiplier: the product is the freshly-initialised zero row.
        return cost
    if set_bits == 1:
        # Single partial product: it *is* the product, already in place.
        return cost
    cost += cost_wallace_reduce(set_bits, product_width, max_width=product_width)
    cost += cost_hybrid_final_add(product_width, relax_bits)
    return cost
