"""A single RRAM bit cell built on the VTEAM device model.

MAGIC logic convention (Kvatinsky et al., TCAS-II 2014): **low resistance is
logic '1'**, high resistance is logic '0'.  A cell therefore reads as '1'
when its internal state exceeds :data:`LOGIC_THRESHOLD`.

The cell tracks cumulative write statistics (set/reset counts, dissipated
energy) so that the structural crossbar simulator can report endurance and
energy figures per experiment.
"""

from __future__ import annotations

from repro.device.vteam import VTEAMModel
from repro.errors import DeviceError
from repro.units import NS

__all__ = ["MemristorCell", "LOGIC_THRESHOLD"]

#: Internal-state threshold above which a cell reads as logic '1'.
LOGIC_THRESHOLD = 0.5


class MemristorCell:
    """One memristive cell: VTEAM state plus logical read/write semantics.

    Parameters
    ----------
    model:
        Shared :class:`VTEAMModel` evaluator (one per crossbar).
    state:
        Initial internal state in [0, 1]; defaults to fully OFF (logic '0').
    """

    __slots__ = ("model", "state", "set_count", "reset_count", "energy")

    def __init__(self, model: VTEAMModel, state: float = 0.0) -> None:
        if not 0.0 <= state <= 1.0:
            raise DeviceError(f"initial state {state} outside [0, 1]")
        self.model = model
        self.state = state
        self.set_count = 0
        self.reset_count = 0
        self.energy = 0.0

    # -- logical view -------------------------------------------------------

    @property
    def value(self) -> int:
        """Logical value: 1 iff the device is in its low-resistance region."""
        return 1 if self.state > LOGIC_THRESHOLD else 0

    @property
    def resistance(self) -> float:
        """Instantaneous device resistance in ohms."""
        return self.model.resistance(self.state)

    @property
    def conductance(self) -> float:
        """Instantaneous device conductance in siemens."""
        return self.model.conductance(self.state)

    # -- operations ----------------------------------------------------------

    def write(self, bit: int) -> float:
        """Force the cell to a full logic level; returns the write energy.

        Models an idealised write pulse: a full-amplitude SET/RESET pulse of
        one cycle applied by the row/column drivers.  Uses the VTEAM pulse
        integrator so the energy reflects the actual resistance trajectory.
        """
        if bit not in (0, 1):
            raise DeviceError(f"bit must be 0 or 1, got {bit!r}")
        p = self.model.params
        voltage = 2.0 * p.v_on if bit else 2.0 * p.v_off
        new_state, energy = self.model.simulate_pulse(self.state, voltage, 1.1 * NS)
        if bit:
            if self.value == 0:
                self.set_count += 1
        else:
            if self.value == 1:
                self.reset_count += 1
        self.state = new_state
        self.energy += energy
        # Guarantee a clean logic level after a full write pulse: the pulse
        # is sized to saturate the device, but guard against a mis-calibrated
        # parameter set rather than silently storing an ambiguous level.
        if self.value != bit:
            raise DeviceError(
                "write pulse failed to switch the device; "
                "check VTEAM rate constants against the cycle time"
            )
        return energy

    def apply_pulse(self, voltage: float, duration: float) -> float:
        """Apply an arbitrary pulse; returns energy.

        Unlike :meth:`write`, the outcome depends on the device dynamics: a
        sub-threshold voltage only dissipates read energy, a super-threshold
        voltage of sufficient duration switches the cell.
        """
        before = self.value
        self.state, energy = self.model.simulate_pulse(self.state, voltage, duration)
        after = self.value
        if after != before:
            if after:
                self.set_count += 1
            else:
                self.reset_count += 1
        self.energy += energy
        return energy

    def force_state(self, state: float) -> None:
        """Directly set the internal state (initialisation / test fixtures)."""
        if not 0.0 <= state <= 1.0:
            raise DeviceError(f"state {state} outside [0, 1]")
        self.state = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MemristorCell(value={self.value}, state={self.state:.3f}, "
            f"R={self.resistance:.3g})"
        )
