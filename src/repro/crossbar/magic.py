"""MAGIC NOR execution engine (Kvatinsky et al., TCAS-II 2014).

MAGIC computes NOR *in place* in a crossbar: the output cell is initialised
to RON (logic '1'); the execution voltage ``V0`` is applied to the bitlines
of the input cells (for a NOR along a row) or the wordlines of the inputs
(for a NOR along a column) while the output's line is grounded.  If any
input stores '1' (low resistance), enough current flows to RESET the output
to '0'; if all inputs store '0', the output keeps its '1'.

The engine advances a cycle counter — **every NOR evaluation is one cycle**
(1.1 ns), the paper's definition of the APIM clock — and accumulates both:

- an abstract :class:`~repro.core.cost.Cost` (NOR firings, writes, ...),
  priced later against an :class:`~repro.core.config.APIMConfig`; and
- an *electrical* energy estimate integrated from the actual cell
  resistances along the V0 current path, used to sanity-check the abstract
  per-op constants (see ``tests/test_misc_coverage.py``).

SIMD: the execution voltage drives every selected line at once, so one
cycle evaluates any number of independent NORs
(:meth:`MagicEngine.nor_parallel`; this is what makes the 3:2 carry-save
step width-independent).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.core.cost import Cost
from repro.crossbar.array import CrossbarArray
from repro.errors import CrossbarError
from repro.units import NS

__all__ = ["MagicEngine"]

#: MAGIC execution voltage in volts (applied across input + output path).
EXECUTION_VOLTAGE = 1.0

#: One MAGIC NOR evaluation = one APIM clock cycle.
CYCLE_TIME = 1.1 * NS


class MagicEngine:
    """Executes MAGIC micro-ops on one :class:`CrossbarArray`.

    The engine owns the block's cycle counter.  Multi-block operations
    (shifted copies, inter-block NORs) are coordinated by
    :class:`~repro.crossbar.block.BlockedCrossbar`, which advances the
    cycle counters of the involved engines in lock step.
    """

    def __init__(self, array: CrossbarArray) -> None:
        self.array = array
        self.cycles = 0
        self.cost = Cost()
        self.electrical_energy = 0.0

    # -- bookkeeping -----------------------------------------------------------

    def _tick(self, cost: Cost) -> None:
        self.cycles += int(cost.cycles)
        self.cost += cost

    def sync_to(self, cycles: int) -> None:
        """Advance this block's clock to a later global time (lock-step)."""
        if cycles < self.cycles:
            raise CrossbarError(
                f"cannot move clock backwards ({cycles} < {self.cycles})"
            )
        self.cycles = cycles

    def _check_initialised(self, row: int, col: int) -> None:
        """Assert a NOR output cell holds the required '1' initialisation.

        A pinned (stuck) cell is exempt: on hardware the initialisation
        pulse silently fails and the NOR evaluates into a frozen output —
        corruption, not a protocol violation.  The resilience layer is
        responsible for catching the wrong result.
        """
        if self.array.value(row, col) != 1 and not self.array.is_pinned(row, col):
            raise CrossbarError(
                f"NOR output cell ({row}, {col}) not initialised to '1'"
            )

    # -- initialisation -----------------------------------------------------------

    def init_cells(
        self, cells: Iterable[tuple[int, int]], charge_cycle: bool = True
    ) -> None:
        """Initialise output cells to logic '1' — one parallel cycle.

        MAGIC requires every NOR output to start at RON.  The row/column
        drivers SET all listed cells simultaneously.  With
        ``charge_cycle=False`` the initialisation is bulk/pre-staged (the
        controller initialises scratch regions while earlier operations
        still execute) and costs nothing here — this is how the paper's
        2-cycle copy and 12N+1 serial addition are met.

        Initialisation energy is folded into the average per-NOR energy
        (``APIMConfig.e_nor``), so no ``cell_writes`` are charged; the
        ``cell_writes`` counter is reserved for explicit driver write-backs
        (e.g. the MAJ carry chain).
        """
        count = 0
        for row, col in cells:
            self.array.set_value(row, col, 1)
            count += 1
        if count == 0:
            raise CrossbarError("init_cells called with no cells")
        self._tick(Cost(cycles=1 if charge_cycle else 0))

    # -- NOR primitives -----------------------------------------------------------

    def nor_in_row(self, row: int, in_cols: Sequence[int], out_col: int) -> int:
        """NOR of cells ``(row, in_cols...)`` into ``(row, out_col)``.

        The output cell must have been initialised to '1' (checked).  One
        cycle; returns the computed bit.
        """
        if not in_cols:
            raise CrossbarError("NOR needs at least one input")
        if out_col in in_cols:
            raise CrossbarError("output column collides with an input")
        self._check_initialised(row, out_col)
        inputs = [self.array.value(row, c) for c in in_cols]
        result = int(not any(inputs))
        self._charge_electrical(inputs)
        self.array.set_value(row, out_col, result)
        self._tick(Cost(cycles=1, nor_ops=1))
        return result

    def nor_cells(
        self,
        inputs: Sequence[tuple[int, int]],
        output: tuple[int, int],
    ) -> int:
        """NOR of arbitrarily-placed cells into an arbitrary output cell.

        The blocked design's interconnect permits NORs whose operands do not
        share a wordline/bitline (paper Section 3.1: inputs on bitline n,
        output on bitline n+4).  One cycle; the output must be initialised.
        """
        if not inputs:
            raise CrossbarError("NOR needs at least one input")
        if output in inputs:
            raise CrossbarError("output cell collides with an input")
        out_row, out_col = output
        self._check_initialised(out_row, out_col)
        bits = [self.array.value(r, c) for r, c in inputs]
        result = int(not any(bits))
        self._charge_electrical(bits)
        self.array.set_value(out_row, out_col, result)
        self._tick(Cost(cycles=1, nor_ops=1))
        return result

    def nor_parallel(
        self,
        operations: Sequence[tuple[Sequence[tuple[int, int]], tuple[int, int]]],
    ) -> list[int]:
        """Several independent NORs evaluated in the same cycle.

        Used for same-stage carry-save groups: the execution voltage drives
        all groups simultaneously, so the whole batch costs one cycle.
        Output cells must be pairwise distinct and initialised; inputs are
        sampled before any output is written (simultaneous semantics).
        """
        if not operations:
            raise CrossbarError("nor_parallel needs at least one operation")
        outputs = [out for _, out in operations]
        if len(set(outputs)) != len(outputs):
            raise CrossbarError("parallel NORs write overlapping outputs")
        sampled: list[tuple[tuple[int, int], int]] = []
        for inputs, output in operations:
            if not inputs:
                raise CrossbarError("NOR needs at least one input")
            if output in inputs:
                raise CrossbarError("output cell collides with an input")
            out_row, out_col = output
            self._check_initialised(out_row, out_col)
            bits = [self.array.value(r, c) for r, c in inputs]
            self._charge_electrical(bits)
            sampled.append((output, int(not any(bits))))
        results = []
        for (out_row, out_col), result in sampled:
            self.array.set_value(out_row, out_col, result)
            results.append(result)
        self._tick(Cost(cycles=1, nor_ops=len(operations)))
        return results

    # -- electrical model -----------------------------------------------------------

    def _charge_electrical(self, input_bits: Sequence[int]) -> None:
        """Joule heating of one NOR evaluation along the V0 path.

        Input devices appear in parallel between the driven line and the
        output device.  The average output resistance over the cycle is the
        mean of its initial (RON) and final values.
        """
        params = self.array.model.params
        g_in = sum(
            1.0 / (params.r_on if bit else params.r_off) for bit in input_bits
        )
        r_in = 1.0 / g_in if g_in > 0 else params.r_off
        switches = any(input_bits)
        r_out_avg = (
            0.5 * (params.r_on + params.r_off) if switches else params.r_on
        )
        # No current flows without the execution voltage across the path;
        # when the output keeps its '1' the path is input-limited.
        current_path = r_in + r_out_avg
        power = EXECUTION_VOLTAGE**2 / current_path
        self.electrical_energy += power * CYCLE_TIME
