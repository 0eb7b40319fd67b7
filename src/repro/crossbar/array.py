"""One crossbar block: a grid of VTEAM memristor cells.

The array stores cell states as a dense float matrix (state in [0, 1]; the
MAGIC convention maps low resistance / state 1 to logic '1').  All accesses
go through row/column index validation, and the array keeps write/read
statistics so higher layers can reconcile structural energy against the
functional cost model.

The array itself knows nothing about MAGIC, interconnects or sensing; those
live in :mod:`repro.crossbar.magic`, :mod:`repro.crossbar.interconnect` and
:mod:`repro.crossbar.sense_amp`.  This separation mirrors the hardware:
the array is dumb storage plus drivers.
"""

from __future__ import annotations

import numpy as np

from repro.device.vteam import LOGIC_THRESHOLD, VTEAMModel
from repro.errors import CrossbarError

__all__ = ["CrossbarArray"]


class CrossbarArray:
    """A ``rows x cols`` block of memristive cells.

    Parameters
    ----------
    rows, cols:
        Block dimensions (wordlines x bitlines).
    model:
        Shared VTEAM evaluator; defaults to the paper's device corner.
    name:
        Optional label used in error messages and block bookkeeping.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        model: VTEAMModel | None = None,
        name: str = "block",
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise CrossbarError(f"invalid block shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.model = model or VTEAMModel()
        self.name = name
        # All cells start fully OFF (logic '0'), i.e. freshly formed array.
        self._state = np.zeros((rows, cols), dtype=np.float64)
        self.write_count = 0
        self.read_count = 0
        # Stuck cells: (row, col) -> frozen state.  Writes to pinned cells
        # are silently ineffective, as on real hardware with forming-time
        # stuck-at faults; see repro.device.variation.FaultInjector.
        self._pinned: dict[tuple[int, int], float] = {}

    # -- validation ----------------------------------------------------------

    def _check(self, row: int, col: int) -> None:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise CrossbarError(
                f"cell ({row}, {col}) outside {self.name} "
                f"({self.rows}x{self.cols})"
            )

    def _check_row(self, row: int) -> None:
        if not 0 <= row < self.rows:
            raise CrossbarError(f"row {row} outside {self.name} ({self.rows} rows)")

    # -- cell access ----------------------------------------------------------

    def value(self, row: int, col: int) -> int:
        """Logical value of one cell (no read circuitry is modelled here;
        sensing with energy/latency lives in the SA)."""
        self._check(row, col)
        return int(self._state[row, col] > LOGIC_THRESHOLD)

    def state(self, row: int, col: int) -> float:
        """Raw internal device state in [0, 1]."""
        self._check(row, col)
        return float(self._state[row, col])

    def set_value(self, row: int, col: int, bit: int) -> None:
        """Driver write of one cell to a full logic level.

        Writing a pinned (stuck) cell consumes a write pulse but leaves the
        device at its stuck level — the silent failure mode the resilience
        layer exists to detect.
        """
        if bit not in (0, 1):
            raise CrossbarError(f"bit must be 0 or 1, got {bit!r}")
        self._check(row, col)
        if (row, col) not in self._pinned:
            self._state[row, col] = 1.0 if bit else 0.0
        self.write_count += 1

    def set_state(self, row: int, col: int, state: float) -> None:
        """Directly set a raw device state (MAGIC engine / tests).

        Pinned cells keep their stuck level, as in :meth:`set_value`.
        """
        if not 0.0 <= state <= 1.0:
            raise CrossbarError(f"state {state} outside [0, 1]")
        self._check(row, col)
        if (row, col) not in self._pinned:
            self._state[row, col] = state

    # -- stuck-at faults -------------------------------------------------------

    def pin_cell(self, row: int, col: int, level: float) -> None:
        """Freeze one cell at ``level`` (stuck-at fault).

        All subsequent writes through any path (driver, MAGIC, bulk clear,
        restore) leave the cell at ``level``: real faults are forever.
        """
        if not 0.0 <= level <= 1.0:
            raise CrossbarError(f"stuck level {level} outside [0, 1]")
        self._check(row, col)
        self._pinned[(row, col)] = float(level)
        self._state[row, col] = float(level)

    def is_pinned(self, row: int, col: int) -> bool:
        """Whether the cell is frozen by a stuck-at fault."""
        self._check(row, col)
        return (row, col) in self._pinned

    def pinned_cells(self) -> dict[tuple[int, int], float]:
        """Copy of the stuck-cell map (ground truth for fault modelling)."""
        return dict(self._pinned)

    def _reassert_pins(self) -> None:
        for (row, col), level in self._pinned.items():
            self._state[row, col] = level

    # -- word access -----------------------------------------------------------

    def write_row_bits(self, row: int, bits: list[int], start_col: int = 0) -> None:
        """Driver write of consecutive cells in a row (LSB at ``start_col``)."""
        self._check_row(row)
        if start_col < 0 or start_col + len(bits) > self.cols:
            raise CrossbarError(
                f"row write of {len(bits)} bits at col {start_col} exceeds "
                f"{self.cols} columns"
            )
        for offset, bit in enumerate(bits):
            self.set_value(row, start_col + offset, bit)

    def write_word(self, row: int, value: int, width: int, start_col: int = 0) -> None:
        """Write an unsigned integer as ``width`` bits, LSB first."""
        if value < 0 or value >= 1 << width:
            raise CrossbarError(f"value {value} does not fit in {width} bits")
        bits = [(value >> i) & 1 for i in range(width)]
        self.write_row_bits(row, bits, start_col)

    def read_word(self, row: int, width: int, start_col: int = 0) -> int:
        """Read ``width`` bits of a row back as an unsigned integer."""
        self._check_row(row)
        if start_col < 0 or start_col + width > self.cols:
            raise CrossbarError(
                f"row read of {width} bits at col {start_col} exceeds "
                f"{self.cols} columns"
            )
        word = 0
        for i in range(width):
            word |= self.value(row, start_col + i) << i
        return word

    def clear_row(self, row: int) -> None:
        """Reset a whole row to logic '0' (bulk erase before reuse)."""
        self._check_row(row)
        self._state[row, :] = 0.0
        self.write_count += self.cols
        self._reassert_pins()

    def clear(self) -> None:
        """Reset the entire block."""
        self._state[:, :] = 0.0
        self.write_count += self.rows * self.cols
        self._reassert_pins()

    def fill_row(self, row: int, bit: int) -> None:
        """Bulk driver write of one row to a logic level (BIST row scans)."""
        if bit not in (0, 1):
            raise CrossbarError(f"bit must be 0 or 1, got {bit!r}")
        self._check_row(row)
        self._state[row, :] = 1.0 if bit else 0.0
        self.write_count += self.cols
        self._reassert_pins()

    # -- electrical view ---------------------------------------------------------

    def resistance(self, row: int, col: int) -> float:
        """Instantaneous cell resistance (ohms)."""
        self._check(row, col)
        return self.model.resistance(self._state[row, col])

    def snapshot(self) -> np.ndarray:
        """Copy of the raw state matrix (BIST reads and restores it)."""
        return self._state.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        """Restore a state matrix captured by :meth:`snapshot`."""
        if snapshot.shape != self._state.shape:
            raise CrossbarError(
                f"snapshot shape {snapshot.shape} does not match "
                f"({self.rows}, {self.cols})"
            )
        self._state = snapshot.copy()
        self._reassert_pins()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CrossbarArray({self.name!r}, {self.rows}x{self.cols})"
