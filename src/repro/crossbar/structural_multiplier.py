"""Structural in-memory multiplier (paper Section 3.3, Figure 1(b)-(d)).

Executes an N x N multiplication as the actual micro-op sequence on a
:class:`~repro.crossbar.block.BlockedCrossbar`:

1. **Partial product generation** — the multiplier word is read bit-wise
   through the sense amplifier (overlapped with the copies, costing no
   cycles); for every *set* bit ``i`` the multiplicand is copy-shifted by
   ``i`` bitlines into the processing block.  The first copy pays the
   extra inversion cycle (2 cycles); subsequent copies reuse the inverted
   multiplicand (1 cycle each) — the paper's "worst case N + 1 cycles".
2. **Fast addition** — the Wallace 3:2 reduction of
   :class:`~repro.crossbar.structural_adder.StructuralAdder`, toggling
   between the two processing blocks.
3. **Final product generation** — the hybrid (exact/MAJ-approximate) final
   addition with ``relax_bits`` approximate LSBs.

The fabric layout is three blocks: block 0 stores data; blocks 1 and 2 are
the toggling processing pair.  Cycle counts are pinned against
:func:`repro.core.timing.cost_multiply` by the cross-validation tests.
"""

from __future__ import annotations

from repro.core.approximation import EXACT, ApproxSpec, mask_multiplier
from repro.core.cost import Cost
from repro.crossbar.block import BlockedCrossbar
from repro.crossbar.structural_adder import RowPool, StructuralAdder
from repro.errors import CrossbarError, RecoveryError

__all__ = ["StructuralMultiplier"]

#: Fabric block roles.
DATA_BLOCK = 0
PROC_BLOCK_A = 1
PROC_BLOCK_B = 2


class StructuralMultiplier:
    """An N x N multiplier bound to a three-block crossbar fabric.

    Parameters
    ----------
    word_bits:
        Operand width N (product width 2N).  Structural simulation is
        intended for small widths (4-16 bits); use the functional model for
        workload-scale arithmetic.
    rows:
        Rows per block; must accommodate N partial products plus CSA
        scratch (about 12 rows per concurrent group).
    """

    def __init__(
        self,
        word_bits: int,
        rows: int | None = None,
    ) -> None:
        if not 2 <= word_bits <= 16:
            raise CrossbarError(
                f"structural multiplier supports 2..16 bit words, got {word_bits}"
            )
        self.word_bits = word_bits
        product_bits = 2 * word_bits
        # Worst case: N partial products -> ceil(N/3) groups * 12 scratch
        # rows + outputs, plus margin for the serial final addition.
        self.rows = rows or max(64, word_bits * 14)
        cols = product_bits + 2  # product + carry-out + margin
        self.fabric = BlockedCrossbar(3, self.rows, cols)
        self.adder = StructuralAdder(self.fabric)
        # Rows condemned by BIST, per block: data-row selection and the
        # scratch pools of every multiply skip them (compute-level repair,
        # complementary to the fabric's DMA-level spare remap).
        self._retired: dict[int, set[int]] = {
            DATA_BLOCK: set(), PROC_BLOCK_A: set(), PROC_BLOCK_B: set(),
        }

    def retire_rows(self, block: int, rows) -> int:
        """Permanently exclude rows of one block from future multiplies.

        Returns how many rows were newly retired.  Raises
        :class:`RecoveryError` when so few healthy rows remain that a
        multiplication cannot be laid out any more.
        """
        if block not in self._retired:
            raise CrossbarError(f"block {block} outside the multiplier fabric")
        before = len(self._retired[block])
        for row in rows:
            if not 0 <= row < self.rows:
                raise CrossbarError(f"row {row} outside block ({self.rows})")
            self._retired[block].add(row)
        healthy = self.rows - len(self._retired[block])
        if healthy < 3:
            raise RecoveryError(
                f"block {block} has {healthy} healthy rows left; "
                "cannot lay out a multiplication"
            )
        return len(self._retired[block]) - before

    def retired_rows(self, block: int) -> frozenset[int]:
        """Rows of one block currently excluded from computation."""
        if block not in self._retired:
            raise CrossbarError(f"block {block} outside the multiplier fabric")
        return frozenset(self._retired[block])

    def multiply(
        self, a: int, b: int, spec: ApproxSpec = EXACT
    ) -> tuple[int, Cost]:
        """Multiply two unsigned words; returns ``(product, cost)``.

        ``spec.masked_bits`` zeroes multiplier LSBs before generation (the
        controller simply skips those SA reads' copies); ``spec.relax_bits``
        selects the approximate final stage.
        """
        n = self.word_bits
        spec.validate_for(n)
        limit = 1 << n
        if not (0 <= a < limit and 0 <= b < limit):
            raise CrossbarError(f"operands ({a}, {b}) must be {n}-bit unsigned")
        product_bits = 2 * n
        fabric = self.fabric
        start_cost = fabric.total_cost

        # -- load operands (DMA, untimed) ----------------------------------
        fabric.block(DATA_BLOCK).clear()
        fabric.block(PROC_BLOCK_A).clear()
        fabric.block(PROC_BLOCK_B).clear()
        # Operands and the shared inverted-multiplicand row take the first
        # three healthy rows of the data block (retired rows are skipped).
        healthy = [
            r for r in range(self.rows) if r not in self._retired[DATA_BLOCK]
        ]
        row_m1, row_m2, inverted_row = healthy[:3]
        fabric.write_word(DATA_BLOCK, row_m1, a, n)
        fabric.write_word(DATA_BLOCK, row_m2, b, n)

        b_eff = int(mask_multiplier(b, spec.masked_bits, n))

        # -- stage 1: partial product generation ------------------------------
        sense = fabric.sense_amp(DATA_BLOCK)
        set_bits = []
        for i in range(n):
            bit = sense.read_bit(row_m2, i)  # all N bits are sensed
            if i < spec.masked_bits:
                continue  # masked: the controller suppresses the copy
            if bit:
                set_bits.append(i)
        # Cross-validate the sensed bits against the functional mask — only
        # meaningful when no stuck cell corrupts the stored multiplier word
        # (under faults the sensed word IS the ground truth, and the residue
        # checker upstairs is what catches the resulting wrong product).
        if not any(
            fabric.block(DATA_BLOCK).is_pinned(row_m2, i) for i in range(n)
        ):
            assert len(set_bits) == bin(b_eff).count("1")

        pools = {
            PROC_BLOCK_A: RowPool(
                self.rows, reserved=sorted(self._retired[PROC_BLOCK_A])
            ),
            PROC_BLOCK_B: RowPool(
                self.rows, reserved=sorted(self._retired[PROC_BLOCK_B])
            ),
        }
        pp_rows = []
        for index, i in enumerate(set_bits):
            dst_row = pools[PROC_BLOCK_A].alloc(1)[0]
            fabric.block(PROC_BLOCK_A).clear_row(dst_row)  # pre-staged
            fabric.copy_row_shifted(
                DATA_BLOCK,
                row_m1,
                PROC_BLOCK_A,
                dst_row,
                width=n,
                shift=i,
                inverted_row=inverted_row,
                inverted_ready=index > 0,
            )
            pp_rows.append(dst_row)

        if not set_bits:
            # Zero multiplier: the zero product already sits in a cleared row.
            return 0, self._delta(start_cost)

        if len(set_bits) == 1:
            product = fabric.read_word(PROC_BLOCK_A, pp_rows[0], product_bits)
            return product, self._delta(start_cost)

        # -- stages 2 + 3: reduction and final addition -------------------------
        result_block, result_row = self.adder.fast_multi_add(
            PROC_BLOCK_A,
            PROC_BLOCK_B,
            pp_rows,
            width=product_bits,
            pools=pools,
            relax_bits=spec.relax_bits,
            max_width=product_bits,
        )
        product = fabric.read_word(result_block, result_row, product_bits)
        return product, self._delta(start_cost)

    # -- helpers --------------------------------------------------------------

    def _delta(self, start: Cost) -> Cost:
        """Cost incurred since ``start`` (the fabric accumulates globally)."""
        now = self.fabric.total_cost
        return Cost(
            cycles=now.cycles - start.cycles,
            nor_ops=now.nor_ops - start.nor_ops,
            cell_writes=now.cell_writes - start.cell_writes,
            sa_reads=now.sa_reads - start.sa_reads,
            maj_ops=now.maj_ops - start.maj_ops,
            interconnect_bits=now.interconnect_bits - start.interconnect_bits,
        )
