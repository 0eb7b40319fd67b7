"""The blocked crossbar memory unit (paper Section 3.1, Figure 1a).

A :class:`BlockedCrossbar` chains several :class:`CrossbarArray` blocks,
adjacent pairs joined by a :class:`ConfigurableInterconnect`.  New data lands
in *data* blocks; computation happens in *processing* blocks; the two are
structurally identical and used interchangeably (the N:2 reduction toggles
between a pair of blocks at every stage).

Latency accounting follows the paper's overlap arguments:

- **Shift-while-copy**: routing through the interconnect adds no cycles to a
  copy; a shifted copy costs the same two NOT cycles as an unshifted one.
- **Arranged write-back**: the outputs of a reduction stage are written
  *through* the interconnect directly into their arranged positions in the
  neighbouring block, so inter-stage arrangement consumes interconnect
  energy but no additional cycles.  Structurally we execute the stage
  in-place and then relocate the outputs with :meth:`move_row_free`, which
  charges the interconnect traffic and zero cycles — the physical write
  already happened inside the stage's final NOR.

All blocks share row/column decoders and a single global clock; per-block
:class:`MagicEngine` counters are kept in lock step by this class.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.cost import Cost
from repro.crossbar.array import CrossbarArray
from repro.crossbar.interconnect import ConfigurableInterconnect
from repro.crossbar.magic import MagicEngine
from repro.crossbar.sense_amp import SenseAmplifier
from repro.device.vteam import VTEAMModel
from repro.errors import CrossbarError, RecoveryError

if TYPE_CHECKING:  # device.variation type-imports crossbar; avoid the cycle
    from repro.device.variation import FaultInjector

__all__ = ["BlockedCrossbar", "RemapTable", "SpareRowPool"]


class SpareRowPool:
    """A block's reserved spare rows, consumed one per retirement.

    The pool is the CONTRA-style area budget made concrete: a fixed
    fraction of each block's wordlines is set aside at manufacturing time
    and handed out by the controller when BIST condemns a data row.
    """

    def __init__(self, rows: Sequence[int]) -> None:
        self._free = list(rows)
        self.capacity = len(self._free)

    def take(self) -> int:
        """Consume one spare; raises :class:`RecoveryError` when exhausted."""
        if not self._free:
            raise RecoveryError(
                f"spare-row pool exhausted ({self.capacity} spares used)"
            )
        return self._free.pop(0)

    @property
    def used(self) -> int:
        """Spares already consumed by retirements."""
        return self.capacity - len(self._free)


class RemapTable:
    """Logical-row to physical-row indirection, one entry per retirement.

    The table sits (conceptually) in the row decoder: an access to a
    retired logical row is steered to its replacement physical row.  Rows
    without an entry map to themselves.
    """

    def __init__(self) -> None:
        self._map: dict[tuple[int, int], int] = {}

    def resolve(self, block: int, row: int) -> int:
        """Physical row currently backing ``(block, row)``."""
        return self._map.get((block, row), row)

    def retire(self, block: int, row: int, physical: int) -> None:
        """Point logical ``row`` of ``block`` at a new physical row."""
        self._map[(block, row)] = physical

    def entries(self) -> dict[tuple[int, int], int]:
        """Copy of the remap entries ((block, logical) -> physical)."""
        return dict(self._map)

    def __len__(self) -> int:
        return len(self._map)


class BlockedCrossbar:
    """A chain of crossbar blocks with configurable interconnects.

    Parameters
    ----------
    num_blocks:
        Blocks in the chain (>= 2: at least one data + one processing).
    rows, cols:
        Dimensions of every block.
    model:
        Shared VTEAM device model.
    """

    def __init__(
        self,
        num_blocks: int,
        rows: int,
        cols: int,
        model: VTEAMModel | None = None,
    ) -> None:
        if num_blocks < 2:
            raise CrossbarError("a blocked crossbar needs at least two blocks")
        self.model = model or VTEAMModel()
        self.blocks = [
            CrossbarArray(rows, cols, self.model, name=f"block{i}")
            for i in range(num_blocks)
        ]
        self.engines = [MagicEngine(block) for block in self.blocks]
        self.sense_amps = [SenseAmplifier(block) for block in self.blocks]
        self.interconnects = [
            ConfigurableInterconnect(cols) for _ in range(num_blocks - 1)
        ]
        self.rows = rows
        self.cols = cols
        self._extra_cost = Cost()
        self._post_op_hooks: list[Callable[[], None]] = []
        self._in_post_op_hook = False
        self._spares: list[SpareRowPool] | None = None
        self.spare_rows = 0
        self.remap = RemapTable()

    # -- clocking ----------------------------------------------------------

    @property
    def cycles(self) -> int:
        """Global cycle count: all blocks share one clock."""
        return max(engine.cycles for engine in self.engines)

    def sync_clocks(self) -> None:
        """Bring every block's engine up to the global time.

        Must be called before running micro-ops on a block that has been
        idle while another block computed — the blocks share one clock, so
        serialized cross-block work accumulates on the global timeline.
        """
        now = self.cycles
        for engine in self.engines:
            engine.sync_to(now)

    @property
    def total_cost(self) -> Cost:
        """Aggregate micro-event cost across blocks and interconnects.

        Cycle count is the *global* clock (blocks run in lock step), not the
        sum of per-block counters.
        """
        merged = sum((engine.cost for engine in self.engines), Cost())
        merged += self._extra_cost
        return Cost(
            cycles=self.cycles,
            nor_ops=merged.nor_ops,
            cell_writes=merged.cell_writes,
            sa_reads=merged.sa_reads
            + sum(sa.read_count for sa in self.sense_amps),
            maj_ops=merged.maj_ops + sum(sa.maj_count for sa in self.sense_amps),
            interconnect_bits=merged.interconnect_bits
            + sum(icn.bits_transferred for icn in self.interconnects),
        )

    def charge(self, cost: Cost) -> None:
        """Record cost incurred by composite operations (SA-driven cycles)."""
        self._extra_cost += Cost(
            nor_ops=cost.nor_ops,
            cell_writes=cost.cell_writes,
            sa_reads=cost.sa_reads,
            maj_ops=cost.maj_ops,
            interconnect_bits=cost.interconnect_bits,
        )
        if cost.cycles:
            self.advance_clock(int(cost.cycles))

    def charge_writes(self, count: int) -> None:
        """Account explicit driver write-backs (e.g. the MAJ carry chain)."""
        if count < 0:
            raise CrossbarError(f"write count must be non-negative: {count}")
        self._extra_cost += Cost(cell_writes=count)

    def advance_clock(self, cycles: int) -> None:
        """Advance the global clock by ``cycles`` (composite operations)."""
        if cycles < 0:
            raise CrossbarError(f"cannot advance clock by {cycles}")
        target = self.cycles + cycles
        for engine in self.engines:
            engine.sync_to(target)
        self._fire_post_op_hooks()

    # -- post-op hooks ------------------------------------------------------

    def add_post_op_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback fired after every timed fabric operation.

        Hooks run whenever the global clock advances and after zero-cycle
        arranged moves — the operation boundaries of the fabric.  The fault
        campaign uses this to keep injected stuck-at levels asserted through
        MAGIC writes (see :meth:`attach_fault_injector`); instrumentation
        (trace probes, online checkers) can hook in the same way.
        """
        self._post_op_hooks.append(hook)

    def _fire_post_op_hooks(self) -> None:
        if self._in_post_op_hook or not self._post_op_hooks:
            return
        self._in_post_op_hook = True
        try:
            for hook in self._post_op_hooks:
                hook()
        finally:
            self._in_post_op_hook = False

    def attach_fault_injector(
        self, block_index: int, injector: "FaultInjector"
    ) -> None:
        """Make an injector's faults persistent on one block.

        Draws the fault pattern if the injector has not injected yet, pins
        every injected cell (writes to them become silently ineffective, as
        on hardware) and registers a post-op hook that re-asserts the stuck
        levels — so faults survive MAGIC writes without the caller
        sprinkling ``injector.enforce`` between operations.
        """
        array = self.block(block_index)
        if injector.injected:
            injector.pin(array)
        else:
            injector.inject(array, pin=True)
        self.add_post_op_hook(lambda: injector.enforce(array))

    # -- block access -----------------------------------------------------------

    def block(self, index: int) -> CrossbarArray:
        """The ``index``-th block (with range checking)."""
        self._check_block(index)
        return self.blocks[index]

    def engine(self, index: int) -> MagicEngine:
        """The MAGIC engine of one block."""
        self._check_block(index)
        return self.engines[index]

    def sense_amp(self, index: int) -> SenseAmplifier:
        """The sense-amplifier bank of one block."""
        self._check_block(index)
        return self.sense_amps[index]

    def _check_block(self, index: int) -> None:
        if not 0 <= index < len(self.blocks):
            raise CrossbarError(
                f"block index {index} outside [0, {len(self.blocks)})"
            )

    def _interconnect_between(self, a: int, b: int) -> ConfigurableInterconnect:
        self._check_block(a)
        self._check_block(b)
        if abs(a - b) != 1:
            raise CrossbarError(
                f"blocks {a} and {b} are not adjacent; the interconnect "
                "only joins neighbouring blocks"
            )
        return self.interconnects[min(a, b)]

    # -- data movement ------------------------------------------------------------

    def copy_row_shifted(
        self,
        src_block: int,
        src_row: int,
        dst_block: int,
        dst_row: int,
        width: int,
        shift: int = 0,
        inverted_row: int | None = None,
        inverted_ready: bool = False,
    ) -> None:
        """Copy a row's first ``width`` columns to an adjacent block,
        shifted by ``shift``.

        Implements the two-NOT copy through the interconnect: the first NOT
        produces the inverted source (in ``inverted_row`` of the source
        block, reusable across copies), the second NOT lands directly in the
        destination block at column ``shift``.  Latency: 2 cycles, or 1
        when ``inverted_ready``.  Scratch initialisation is covered by the
        bulk pre-initialisation of processing-block scratch space and adds
        no cycles (see module docstring).
        """
        icn = self._interconnect_between(src_block, dst_block)
        icn.configure(shift)
        dst_cols = icn.route_segment(0, width)
        src = self.blocks[src_block]
        dst = self.blocks[dst_block]
        if dst_row < 0 or dst_row >= dst.rows:
            raise CrossbarError(f"destination row {dst_row} outside block")
        inverted_row = src_row if inverted_row is None else inverted_row
        cycles = 1 if inverted_ready else 2
        # Logical effect: dst[dst_row, c+shift] = src[src_row, c].
        for offset in range(width):
            bit = src.value(src_row, offset)
            dst.set_value(dst_row, dst_cols.start + offset, bit)
        icn.record_transfer(width)  # interconnect traffic (energy)
        self.advance_clock(cycles)
        nor_ops = width if inverted_ready else 2 * width
        self._extra_cost += Cost(nor_ops=nor_ops)

    def move_row_free(
        self,
        src_block: int,
        src_row: int,
        dst_block: int,
        dst_row: int,
        width: int,
        shift: int = 0,
    ) -> None:
        """Relocate a row's first ``width`` columns with zero added cycles
        (arranged write-back).

        Models the paper's overlap: a reduction stage's outputs are written
        through the interconnect into their arranged destination, so only
        the interconnect traffic is charged here — the cell writes and
        cycles were part of the producing NORs.
        """
        icn = self._interconnect_between(src_block, dst_block)
        icn.configure(shift)
        dst_cols = icn.route_segment(0, width)
        src = self.blocks[src_block]
        dst = self.blocks[dst_block]
        for offset in range(width):
            bit = src.value(src_row, offset)
            # Bypass write statistics: physically this write already
            # happened inside the producing NOR.
            dst.set_state(dst_row, dst_cols.start + offset, 1.0 if bit else 0.0)
        icn.record_transfer(width)
        self._fire_post_op_hooks()

    # -- spare rows and repair ----------------------------------------------

    def reserve_spares(self, fraction: float) -> int:
        """Partition the top ``ceil(rows * fraction)`` rows of every block
        into a :class:`SpareRowPool`, returning the per-block spare count.

        Spares are a budgeted resource (the area model charges for them);
        callers must keep data and scratch allocations below
        :attr:`data_rows` once spares are reserved.  Re-reserving with the
        same fraction is a no-op; changing the fraction after retirements
        began is an error.
        """
        if not 0.0 <= fraction < 1.0:
            raise CrossbarError(f"spare fraction {fraction} outside [0, 1)")
        count = math.ceil(self.rows * fraction)
        if self._spares is not None:
            if count == self.spare_rows:
                return count
            if any(pool.used for pool in self._spares):
                raise CrossbarError(
                    "cannot resize the spare pool after retirements began"
                )
        if count >= self.rows:
            raise CrossbarError(
                f"spare fraction {fraction} leaves no data rows"
            )
        self._spares = [
            SpareRowPool(range(self.rows - count, self.rows))
            for _ in self.blocks
        ]
        self.spare_rows = count
        return count

    @property
    def data_rows(self) -> int:
        """Rows per block available to data/scratch (excludes spares)."""
        return self.rows - self.spare_rows

    def spare_pool(self, block: int) -> SpareRowPool:
        """The spare pool of one block (after :meth:`reserve_spares`)."""
        self._check_block(block)
        if self._spares is None:
            raise RecoveryError(
                "no spare rows reserved; call reserve_spares() first"
            )
        return self._spares[block]

    def resolve_row(self, block: int, row: int) -> int:
        """Physical row currently backing a logical row (remap lookup)."""
        self._check_block(block)
        return self.remap.resolve(block, row)

    def retire_row(self, block: int, row: int) -> int:
        """Retire the physical row backing logical ``row`` onto a spare.

        The readable contents of the dying row are driver-copied into the
        spare (bits held by stuck cells are already lost — re-execution, not
        the copy, restores them), the remap table is updated, and the new
        physical row is returned.  Raises :class:`RecoveryError` when the
        block's spare pool is exhausted.
        """
        self._check_block(block)
        if not 0 <= row < self.rows:
            raise CrossbarError(f"row {row} outside block ({self.rows} rows)")
        old_physical = self.resolve_row(block, row)
        spare = self.spare_pool(block).take()
        array = self.blocks[block]
        for col in range(self.cols):
            array.set_value(spare, col, array.value(old_physical, col))
        self.remap.retire(block, row, spare)
        self.charge_writes(self.cols)
        self.advance_clock(2)  # row read-out + driver rewrite
        return spare

    # -- DMA paths -----------------------------------------------------------

    def write_word(
        self, block: int, row: int, value: int, width: int, start_col: int = 0
    ) -> None:
        """Load external data into a data block (DMA-style, not timed).

        Logical rows resolve through the remap table, so retired rows stay
        addressable at their original coordinates.
        """
        self.block(block).write_word(
            self.resolve_row(block, row), value, width, start_col
        )

    def read_word(
        self, block: int, row: int, width: int, start_col: int = 0
    ) -> int:
        """Read a word out of a block (verification path, not timed)."""
        return self.block(block).read_word(
            self.resolve_row(block, row), width, start_col
        )
