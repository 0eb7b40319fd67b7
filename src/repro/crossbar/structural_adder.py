"""Structural in-memory adders: micro-op sequences on the blocked crossbar.

Implements, as explicit MAGIC NOR schedules, every adder the paper uses:

- :meth:`StructuralAdder.serial_add` — the Talati-style ripple adder
  (paper Eq. 1a/1b): 12 NOR evaluations per bit plus one bulk scratch
  initialisation, ``12N + 1`` cycles for N bits.
- :meth:`StructuralAdder.csa_step` — the width-independent 3:2 carry-save
  step: 12 SIMD NOR cycles + 1 initialisation = 13 cycles for any width and
  any number of same-stage groups (paper Section 3.2).
- :meth:`StructuralAdder.hybrid_final_add` — the final product stage with
  ``m`` MAJ-approximated LSBs and ``k`` exact MSBs: ``13k + 2m + 1`` cycles
  (paper Section 3.4).
- :meth:`StructuralAdder.fast_multi_add` — the Wallace-tree multi-operand
  adder of Figure 2(b), toggling intermediate results between neighbouring
  blocks with arranged (zero-latency) write-back.

The 12-NOR full-adder schedule realises the paper's Eq. (1a)/(1b)::

    t1 = NOR(a, b)    t2 = NOR(b, c)    t3 = NOR(c, a)
    cout = NOR(t1, t2, t3)                       # = MAJ'(..)' = carry
    t4 = NOR(a)       t5 = NOR(b)       t6 = NOR(c)
    t7 = NOR(t4, t5, t6)                         # = a AND b AND c
    t8 = NOR(a, b, c)
    t9 = NOR(t8, cout)                           # = (a+b+c) AND NOT cout
    t10 = NOR(t7, t9)
    sum = NOR(t10)                               # = abc + (a+b+c)(cout)'

Cycle counts produced here are asserted equal to the functional formulas of
:mod:`repro.core.timing` by ``tests/test_cross_validation.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.crossbar.block import BlockedCrossbar
from repro.errors import CrossbarError

__all__ = ["StructuralAdder", "FACells", "RowPool"]

#: Scratch cells one full adder consumes (t1..t10).
FA_SCRATCH_CELLS = 10


class RowPool:
    """Free-list allocator of crossbar rows inside one block."""

    def __init__(self, rows: int, reserved: Sequence[int] = ()) -> None:
        self._free = [r for r in range(rows) if r not in set(reserved)]

    def alloc(self, count: int = 1) -> list[int]:
        """Take ``count`` rows; raises :class:`CrossbarError` when exhausted."""
        if count > len(self._free):
            raise CrossbarError(
                f"block out of scratch rows (need {count}, have {len(self._free)})"
            )
        taken, self._free = self._free[:count], self._free[count:]
        return taken

    def free(self, rows: Sequence[int]) -> None:
        """Return rows to the pool."""
        self._free.extend(rows)


@dataclass(frozen=True)
class FACells:
    """Cell assignment of one full adder instance.

    ``a``, ``b``, ``cin`` are input cells; ``cout``/``sum`` outputs;
    ``scratch`` the ten intermediate cells (t1..t10 in order).
    """

    a: tuple[int, int]
    b: tuple[int, int]
    cin: tuple[int, int]
    cout: tuple[int, int]
    sum: tuple[int, int]
    scratch: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(self.scratch) != FA_SCRATCH_CELLS:
            raise CrossbarError(
                f"full adder needs {FA_SCRATCH_CELLS} scratch cells, "
                f"got {len(self.scratch)}"
            )

    def output_cells(self) -> tuple[tuple[int, int], ...]:
        """All cells that act as NOR outputs (must be initialised to '1')."""
        return self.scratch + (self.cout, self.sum)


def full_adder_schedule(cells: FACells) -> list[tuple[list[tuple[int, int]], tuple[int, int]]]:
    """The 12-step NOR schedule of one full adder (see module docstring).

    Returns ``(inputs, output)`` pairs in dependency order; steps at the
    same index across multiple adders are mutually independent and may
    execute in the same cycle.
    """
    a, b, c = cells.a, cells.b, cells.cin
    t = cells.scratch
    return [
        ([a, b], t[0]),
        ([b, c], t[1]),
        ([c, a], t[2]),
        ([t[0], t[1], t[2]], cells.cout),
        ([a], t[3]),
        ([b], t[4]),
        ([c], t[5]),
        ([t[3], t[4], t[5]], t[6]),
        ([a, b, c], t[7]),
        ([t[7], cells.cout], t[8]),
        ([t[6], t[8]], t[9]),
        ([t[9]], cells.sum),
    ]


class StructuralAdder:
    """Adder micro-programs over a :class:`BlockedCrossbar`."""

    def __init__(self, fabric: BlockedCrossbar) -> None:
        self.fabric = fabric

    # -- ripple (Talati-style) addition ------------------------------------

    def serial_add(
        self,
        block: int,
        row_a: int,
        row_b: int,
        row_sum: int,
        width: int,
        pool: RowPool,
    ) -> None:
        """Exact serial addition: ``12*width + 1`` cycles.

        Operands sit LSB-first in ``row_a``/``row_b`` from column 0; the
        ``width + 1``-bit result (carry-out included) lands in ``row_sum``.
        One bulk initialisation cycle precedes 12 NORs per bit.
        """
        self._check_span(block, width + 1)
        self.fabric.sync_clocks()  # lock-step: catch up with global time
        engine = self.fabric.engine(block)
        array = self.fabric.block(block)
        scratch_rows = pool.alloc(FA_SCRATCH_CELLS + 1)
        carry_row = scratch_rows[-1]
        try:
            adders = []
            for j in range(width):
                col = j
                cout_cell = (
                    (row_sum, width)
                    if j == width - 1
                    else (carry_row, col + 1)
                )
                adders.append(
                    FACells(
                        a=(row_a, col),
                        b=(row_b, col),
                        cin=(carry_row, col),
                        cout=cout_cell,
                        sum=(row_sum, col),
                        scratch=tuple((r, col) for r in scratch_rows[:-1]),
                    )
                )
            init_cells = [cell for fa in adders for cell in fa.output_cells()]
            engine.init_cells(init_cells)  # 1 cycle, bulk
            array.set_value(carry_row, 0, 0)  # carry-in = 0 (setup)
            for fa in adders:  # ripple: carry dependency forces serial order
                for inputs, output in full_adder_schedule(fa):
                    engine.nor_cells(inputs, output)
        finally:
            pool.free(scratch_rows)

    # -- carry-save step ----------------------------------------------------

    def csa_step(
        self,
        block: int,
        triples: Sequence[tuple[int, int, int]],
        out_rows: Sequence[tuple[int, int]],
        width: int,
        pool: RowPool,
    ) -> None:
        """One 3:2 reduction over any number of same-stage groups: 13 cycles.

        ``triples[g]`` are the three operand rows of group ``g``;
        ``out_rows[g] = (sum_row, carry_row)``.  The carry word is produced
        *unshifted* (bit j in column j); the caller shifts it by one during
        the arranged move to the next stage, as the interconnect does.

        All groups and all bit positions execute under the same 12 SIMD NOR
        cycles plus one bulk initialisation.
        """
        if len(triples) != len(out_rows):
            raise CrossbarError("triples and out_rows must pair up")
        if not triples:
            raise CrossbarError("csa_step needs at least one group")
        self._check_span(block, width)
        self.fabric.sync_clocks()  # lock-step: catch up with global time
        engine = self.fabric.engine(block)
        scratch_rows = pool.alloc(FA_SCRATCH_CELLS * len(triples))
        try:
            adders: list[FACells] = []
            for g, ((ra, rb, rc), (rs, rcy)) in enumerate(zip(triples, out_rows)):
                rows_t = scratch_rows[g * FA_SCRATCH_CELLS : (g + 1) * FA_SCRATCH_CELLS]
                for j in range(width):
                    col = j
                    adders.append(
                        FACells(
                            a=(ra, col),
                            b=(rb, col),
                            cin=(rc, col),
                            cout=(rcy, col),
                            sum=(rs, col),
                            scratch=tuple((r, col) for r in rows_t),
                        )
                    )
            engine.init_cells(
                [cell for fa in adders for cell in fa.output_cells()]
            )  # 1 cycle
            schedules = [full_adder_schedule(fa) for fa in adders]
            for step in range(12):  # 12 SIMD cycles, width- and group-parallel
                engine.nor_parallel([schedule[step] for schedule in schedules])
        finally:
            pool.free(scratch_rows)

    # -- hybrid (approximate) final addition ------------------------------------

    def hybrid_final_add(
        self,
        block: int,
        row_a: int,
        row_b: int,
        row_out: int,
        width: int,
        relax_bits: int,
        pool: RowPool,
        skip_lsb: bool = False,
    ) -> None:
        """Final product stage: ``13k + 2m + 1`` cycles (paper Section 3.4).

        The ``m = relax_bits`` least significant *positions* evaluate the
        carry with the modified SA's MAJ function (1 cycle) and write it
        back (1 cycle); their sum bits are then produced by a single
        parallel inversion of the carry chain.  The ``k`` most significant
        positions are exact full adders (13 cycles each, per-bit
        initialisation).  The trailing +1 cycle is the inversion (``m > 0``)
        or the controller's result-commit (``m = 0``).

        ``skip_lsb`` handles the standalone fast adder's survivors, whose
        carry word has a structurally-zero LSB after its shift: position 0
        passes operand A's bit straight through (placed during the bulk
        pre-staging, no cycles) and the machinery covers positions
        ``1 .. width-1`` — the paper's "(N+3)-bit adder" accounting.
        """
        lsb = 1 if skip_lsb else 0
        positions = width - lsb
        if not 0 <= relax_bits <= positions:
            raise CrossbarError(
                f"relax_bits {relax_bits} outside [0, {positions}]"
            )
        self._check_span(block, width + 1)
        self.fabric.sync_clocks()  # lock-step: catch up with global time
        engine = self.fabric.engine(block)
        array = self.fabric.block(block)
        sense = self.fabric.sense_amp(block)
        scratch_rows = pool.alloc(FA_SCRATCH_CELLS + 1)
        carry_row = scratch_rows[-1]
        try:
            if skip_lsb:
                if array.value(row_b, 0) != 0:
                    raise CrossbarError(
                        "skip_lsb requires a zero LSB in the carry operand"
                    )
                # Pass-through of A's LSB, pre-staged with the scratch init.
                array.set_state(
                    row_out, 0,
                    1.0 if array.value(row_a, 0) else 0.0,
                )
            array.set_value(carry_row, lsb, 0)  # carry-in = 0
            # -- approximate low positions: MAJ carry chain, 2 cycles/bit ----
            for j in range(lsb, lsb + relax_bits):
                col = j
                carry = sense.majority(col, (row_a, row_b, carry_row))
                self.fabric.advance_clock(1)  # sense + MAJ (< 1 cycle)
                array.set_value(carry_row, col + 1, carry)
                self.fabric.advance_clock(1)  # carry write-back
                self.fabric.charge_writes(1)
            # -- exact high positions: 13-cycle full adders -------------------
            for j in range(lsb + relax_bits, width):
                col = j
                cout_cell = (
                    (row_out, width)
                    if j == width - 1
                    else (carry_row, col + 1)
                )
                fa = FACells(
                    a=(row_a, col),
                    b=(row_b, col),
                    cin=(carry_row, col),
                    cout=cout_cell,
                    sum=(row_out, col),
                    scratch=tuple((r, col) for r in scratch_rows[:-1]),
                )
                engine.init_cells(fa.output_cells())  # 1 cycle (per bit)
                for inputs, output in full_adder_schedule(fa):
                    engine.nor_cells(inputs, output)
            if lsb + relax_bits == width:
                # Whole result approximated: expose the final carry as MSB.
                array.set_state(
                    row_out,
                    width,
                    1.0 if array.value(carry_row, width) else 0.0,
                )
            if relax_bits:
                # One parallel inversion produces all approximate sum bits:
                # S_j = NOT(carry_{j+1}).
                engine.init_cells(
                    [
                        (row_out, j)
                        for j in range(lsb, lsb + relax_bits)
                    ],
                    charge_cycle=False,
                )
                engine.nor_parallel(
                    [
                        (
                            [(carry_row, j + 1)],
                            (row_out, j),
                        )
                        for j in range(lsb, lsb + relax_bits)
                    ]
                )  # the formula's trailing +1 cycle
            else:
                self.fabric.advance_clock(1)  # result-commit cycle
        finally:
            pool.free(scratch_rows)

    # -- Wallace-tree multi-operand addition -----------------------------------

    def fast_multi_add(
        self,
        block_a: int,
        block_b: int,
        operand_rows: Sequence[int],
        width: int,
        pools: dict[int, RowPool],
        relax_bits: int = 0,
        max_width: int | None = None,
    ) -> tuple[int, int]:
        """Tree-reduce operands living in ``block_a``; returns the location
        ``(block, row)`` of the final sum.

        Stages alternate between ``block_a`` and ``block_b`` (the paper's
        toggling); surviving operands move through the interconnect with the
        carry word shifted left by one, at zero added latency (arranged
        write-back).  The final two survivors pass through the hybrid final
        addition (exact when ``relax_bits == 0``).

        ``max_width`` caps stage growth — inside a multiplication the field
        never exceeds the product width, because the operands' sum is the
        product itself.
        """
        if len(operand_rows) < 2:
            raise CrossbarError("fast_multi_add needs at least two operands")
        current_block = block_a
        other_block = block_b
        current_rows = list(operand_rows)
        stage_width = width
        while len(current_rows) > 2:
            groups = len(current_rows) // 3
            pool = pools[current_block]
            out_pairs = [tuple(pool.alloc(2)) for _ in range(groups)]
            self.csa_step(
                current_block,
                [tuple(current_rows[3 * g : 3 * g + 3]) for g in range(groups)],
                out_pairs,
                stage_width,
                pool,
            )
            survivors: list[tuple[int, int]] = []  # (row, shift)
            for rs, rcy in out_pairs:
                survivors.append((rs, 0))
                survivors.append((rcy, 1))
            for row in current_rows[3 * groups :]:  # stage pass-throughs
                survivors.append((row, 0))
            # Arranged move of every survivor into the neighbouring block.
            next_pool = pools[other_block]
            next_rows = []
            move_width = stage_width
            stage_width += 1  # the carry shift grows the field by one bit
            if max_width is not None:
                # Field capped: the bits beyond max_width are provably zero
                # (the operands' sum is bounded by 2**max_width).
                stage_width = min(stage_width, max_width)
            for row, shift in survivors:
                dst_row = next_pool.alloc(1)[0]
                self.fabric.block(other_block).clear_row(dst_row)  # pre-staged
                self.fabric.move_row_free(
                    current_block, row, other_block, dst_row,
                    move_width, shift,
                )
                next_rows.append(dst_row)
                pools[current_block].free([row])
            current_rows = next_rows
            current_block, other_block = other_block, current_block
        pool = pools[current_block]
        row_sum = pool.alloc(1)[0]
        self.fabric.block(current_block).clear_row(row_sum)  # pre-staged
        # Uncapped (standalone) reduction: the carry word's LSB is
        # structurally zero after its shift, so position 0 passes through
        # and the final addition runs over stage_width - 1 positions — the
        # paper's "(N+3)-bit adder" accounting for 9 operands.  With only
        # two operands no reduction ran, so there is no carry word to skip.
        skip_lsb = max_width is None and stage_width > width
        effective_positions = stage_width - 1 if skip_lsb else stage_width
        self.hybrid_final_add(
            current_block, current_rows[0], current_rows[1], row_sum,
            stage_width, min(relax_bits, effective_positions), pool,
            skip_lsb=skip_lsb,
        )
        pool.free(current_rows)
        return current_block, row_sum

    # -- helpers -----------------------------------------------------------------

    def _check_span(self, block: int, width: int) -> None:
        array = self.fabric.block(block)
        if width > array.cols:
            raise CrossbarError(
                f"operand span [0, {width}) exceeds {array.cols} bitlines"
            )
