"""Row/column decoders and the shared peripheral controller (Figure 1a).

All blocks of the APIM memory unit share the same row and column decoders —
the paper repeatedly stresses this as the reason its area overhead is small
compared to PC-Adder-style multi-array designs.  The decoder model here
provides one-hot line selection with address validation and tracks
activation statistics, which the area/energy ablations consume.
"""

from __future__ import annotations

from repro.errors import CrossbarError

__all__ = ["LineDecoder", "SharedPeriphery"]


class LineDecoder:
    """A one-hot address decoder for ``lines`` wordlines or bitlines."""

    def __init__(self, lines: int, kind: str = "row") -> None:
        if lines <= 0:
            raise CrossbarError(f"decoder needs a positive line count: {lines}")
        if kind not in ("row", "column"):
            raise CrossbarError(f"decoder kind must be 'row' or 'column': {kind!r}")
        self.lines = lines
        self.kind = kind
        self.activations = 0

    def select(self, address: int) -> list[int]:
        """One-hot output vector for ``address``."""
        if not 0 <= address < self.lines:
            raise CrossbarError(
                f"{self.kind} address {address} outside [0, {self.lines})"
            )
        self.activations += 1
        return [1 if i == address else 0 for i in range(self.lines)]


class SharedPeriphery:
    """The decoders and controller shared by every block in the chain.

    Exposes an estimate of the peripheral transistor budget so the area
    ablation can contrast APIM's shared periphery against per-array
    peripheries (the PC-Adder baseline's main overhead).
    """

    #: Rough transistor counts per decoded line / per interconnect switch,
    #: standard text-book figures for NOR-style decoders and pass gates.
    TRANSISTORS_PER_LINE = 6
    TRANSISTORS_PER_SWITCH = 2

    def __init__(self, rows: int, cols: int, num_blocks: int) -> None:
        if num_blocks <= 0:
            raise CrossbarError("need at least one block")
        self.row_decoder = LineDecoder(rows, "row")
        self.col_decoder = LineDecoder(cols, "column")
        self.num_blocks = num_blocks
        self.rows = rows
        self.cols = cols

    def periphery_transistors(self, shared: bool = True) -> int:
        """Decoder + interconnect transistor estimate.

        With ``shared=True`` (APIM) one decoder pair serves all blocks and
        each block boundary adds a barrel-shifter column of switches; with
        ``shared=False`` every block pays its own decoders (the PC-Adder
        organisation).
        """
        decoder = (self.rows + self.cols) * self.TRANSISTORS_PER_LINE
        switches = (
            (self.num_blocks - 1) * self.cols * self.TRANSISTORS_PER_SWITCH
        )
        if shared:
            return decoder + switches
        return decoder * self.num_blocks
