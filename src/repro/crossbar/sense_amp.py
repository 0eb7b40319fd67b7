"""The modified sense amplifier (paper Section 3.4, Figure 3b).

APIM's SA extends a conventional current-mirror sense amplifier with a
majority (MAJ) mode: when three cells on the same bitline are activated
together, the mirrored current is compared against a 2-of-3 threshold
(the ``R2 > 2`` comparator of Figure 3b), yielding ``MAJ(A, B, C)`` — which
is exactly the carry-out of a 1-bit addition.  A multiplexer selects between
bitwise read and MAJ output.

Timing, from the paper's circuit-level evaluation: a bitwise read takes
0.3 ns; reading plus majority evaluation takes 0.6 ns — "an effective delay
of less than 1 cycle", with one further cycle to write the carry back.

The electrical model here is a threshold comparison on summed cell
conductances, which is both faithful to the current-mirror circuit and
robust for logic-level simulation: a '1' cell conducts ~1000x more than a
'0' cell (10 kOhm vs 10 MOhm), so the decision margins are enormous.
"""

from __future__ import annotations

from repro.crossbar.array import CrossbarArray
from repro.errors import CrossbarError

__all__ = ["SenseAmplifier"]


class SenseAmplifier:
    """Per-block sense amplifier bank with bitwise and MAJ modes.

    One instance serves a whole block (the hardware has one SA per bitline;
    the distinction only matters for statistics, which this class keeps in
    aggregate).
    """

    def __init__(self, array: CrossbarArray) -> None:
        self.array = array
        self.read_count = 0
        self.maj_count = 0

    # -- bitwise mode -------------------------------------------------------

    def read_bit(self, row: int, col: int) -> int:
        """Sense one cell (0.3 ns, ``e_sa_read``)."""
        value = self.array.value(row, col)
        self.read_count += 1
        return value

    # -- majority mode ---------------------------------------------------------

    def majority(self, col: int, rows: tuple[int, int, int]) -> int:
        """MAJ of three cells sharing bitline ``col``.

        Electrically: the three wordlines are activated together and the
        summed bitline conductance is compared against the 2-of-3 threshold
        midway between one and two ON-cell conductances.
        """
        if len(rows) != 3:
            raise CrossbarError(f"majority needs exactly 3 rows, got {len(rows)}")
        g_total = 0.0
        for row in rows:
            self.array._check(row, col)
            g_total += 1.0 / self.array.resistance(row, col)
        g_on = 1.0 / self.array.model.params.r_on
        # Threshold between 1x and 2x the ON conductance: 2-of-3 decision.
        threshold = 1.5 * g_on
        self.maj_count += 1
        return int(g_total > threshold)
