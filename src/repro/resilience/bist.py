"""March-test built-in self test (BIST) for crossbar blocks.

A march test walks the array through write/read pattern elements; any cell
that cannot hold both logic levels is condemned.  The scanner here runs the
stuck-at-complete MATS+ core — ``{w0; r0,w1; r1}`` — using APIM's row-wide
drivers (one write pulse per row per element) and sense amplifiers (one
row-parallel read per row per element):

- after the ``w0`` sweep, any cell reading '1' is **stuck-on**;
- after the ``w1`` sweep, any cell reading '0' is **stuck-off**.

Address-decoder and coupling faults need the longer march C- sequence and
are out of scope: APIM's arithmetic corruption comes from stuck cells
(forming failures and wear-out), which this test detects exactly.

The scan is destructive on the scanned rows, so the tester snapshots and
restores the array around it — on hardware the controller schedules BIST
before data lands (power-on) or after relocating live rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.cost import Cost
from repro.device.vteam import LOGIC_THRESHOLD
from repro.errors import CrossbarError

if TYPE_CHECKING:
    from repro.crossbar.array import CrossbarArray
    from repro.crossbar.block import BlockedCrossbar

__all__ = ["BISTResult", "MarchTester"]

#: Pattern elements of the stuck-at march (MATS+ core).
MARCH_ELEMENTS = ("w0", "r0", "w1", "r1")


@dataclass(frozen=True)
class BISTResult:
    """Outcome of one scan.

    ``faults`` lists ``(row, col, kind)`` per scanned array (block scans)
    or ``(block, row, col, kind)`` for fabric scans; ``cost`` is the scan's
    cycle/write/read bill, chargeable to the fabric that was tested.
    """

    faults: tuple[tuple, ...]
    cost: Cost

    def faulty_rows_by_block(self) -> dict[int, set[int]]:
        """Block -> faulty-row sets (fabric-scan results)."""
        grouped: dict[int, set[int]] = {}
        for site in self.faults:
            if len(site) != 4:
                raise CrossbarError(
                    "faulty_rows_by_block needs a fabric scan result"
                )
            grouped.setdefault(site[0], set()).add(site[1])
        return grouped


class MarchTester:
    """Runs march scans over crossbar arrays, blocks or whole fabrics."""

    def scan_array(
        self, array: "CrossbarArray", rows: Sequence[int] | None = None
    ) -> BISTResult:
        """March the given rows (default: all) of one block.

        Returns the exact set of stuck cells in the scanned region: a cell
        is reported stuck-on iff it reads '1' after the w0 element and
        stuck-off iff it reads '0' after the w1 element; healthy cells obey
        both writes and are never reported.
        """
        row_list = list(range(array.rows)) if rows is None else list(rows)
        for row in row_list:
            if not 0 <= row < array.rows:
                raise CrossbarError(f"BIST row {row} outside block")
        if not row_list:
            raise CrossbarError("BIST scan needs at least one row")
        keep = array.snapshot()
        try:
            for row in row_list:
                array.fill_row(row, 0)  # w0
            read0 = array.snapshot() > LOGIC_THRESHOLD  # r0 (SA row reads)
            for row in row_list:
                array.fill_row(row, 1)  # w1
            read1 = array.snapshot() > LOGIC_THRESHOLD  # r1
        finally:
            array.restore(keep)
        faults: list[tuple[int, int, str]] = []
        for row in row_list:
            for col in range(array.cols):
                if read0[row, col]:
                    faults.append((row, col, "stuck_on"))
                elif not read1[row, col]:
                    faults.append((row, col, "stuck_off"))
        cells = len(row_list) * array.cols
        cost = Cost(
            cycles=len(MARCH_ELEMENTS) * len(row_list),
            cell_writes=2 * cells,
            sa_reads=2 * cells,
        )
        return BISTResult(faults=tuple(faults), cost=cost)

    def scan_block(
        self,
        fabric: "BlockedCrossbar",
        block: int,
        rows: Sequence[int] | None = None,
        charge: bool = True,
    ) -> BISTResult:
        """Scan one block of a fabric, charging the scan to its ledger."""
        result = self.scan_array(fabric.block(block), rows)
        if charge:
            fabric.charge(result.cost)
        return result

    def scan_fabric(self, fabric: "BlockedCrossbar") -> BISTResult:
        """Scan every block, charging the scan to the fabric's ledger;
        fault sites carry the block index."""
        faults: list[tuple[int, int, int, str]] = []
        total = Cost()
        for index in range(len(fabric.blocks)):
            partial = self.scan_block(fabric, index, charge=False)
            faults.extend((index, r, c, kind) for r, c, kind in partial.faults)
            total += partial.cost
        fabric.charge(total)
        return BISTResult(faults=tuple(faults), cost=total)
