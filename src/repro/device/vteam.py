"""VTEAM voltage-controlled memristor model.

Implements the model of Kvatinsky et al., "VTEAM: a general model for
voltage-controlled memristors" (TCAS-II 2015), which the APIM paper uses for
all device-level simulation (paper Section 4.1).  The device parameters match
the paper: ``RON = 10 kOhm``, ``ROFF = 10 MOhm``.

Model summary
-------------
The device has an internal state variable ``s`` normalised to [0, 1], where
``s = 1`` is the fully-ON (low resistance, logic '1' in the MAGIC convention)
state and ``s = 0`` is fully OFF.  The state evolves only when the applied
voltage exceeds one of two thresholds:

.. math::

    \\frac{ds}{dt} = \\begin{cases}
        k_{off} (v/v_{off} - 1)^{\\alpha_{off}} f_{off}(s) & v < v_{off} < 0 \\\\
        0                                                   & v_{off} \\le v \\le v_{on} \\\\
        k_{on} (v/v_{on} - 1)^{\\alpha_{on}} f_{on}(s)      & v > v_{on} > 0
    \\end{cases}

(Sign convention here: a positive applied voltage drives the device toward
ON, a negative voltage toward OFF; this matches the MAGIC execution scheme
where ``V0`` applied across the output cell can RESET it.)

``f_on/f_off`` are window functions that clamp the state inside [0, 1]; we
implement the commonly-used Biolek-style rectangular window as well as a
smooth polynomial (Joglekar) window.

Resistance interpolates linearly in state:

.. math:: R(s) = R_{off} + s\\,(R_{on} - R_{off})

The rate constants are calibrated so that a full switching event under the
MAGIC execution voltage ``|v| = V0 = 1 V`` completes within one APIM clock
cycle (1.1 ns), consistent with the paper's definition of the cycle time as
the latency of one MAGIC NOR operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, DeviceError
from repro.units import KILO_OHM, MEGA_OHM

__all__ = [
    "VTEAMParameters", "VTEAMModel", "default_parameters", "LOGIC_THRESHOLD",
]

#: Internal-state threshold above which a cell reads as logic '1' (MAGIC
#: convention: low resistance is '1').
LOGIC_THRESHOLD = 0.5

#: Supported window-function names.
WINDOWS = ("rectangular", "joglekar")


@dataclass(frozen=True)
class VTEAMParameters:
    """Parameter set of the VTEAM model.

    Attributes
    ----------
    r_on, r_off:
        Bounding resistances in ohms.  Paper values: 10 kOhm / 10 MOhm.
    v_on, v_off:
        Switching thresholds in volts.  ``v_on > 0`` drives toward ON;
        ``v_off < 0`` drives toward OFF.
    k_on, k_off:
        Rate constants in 1/s (state units per second at threshold excess 1).
    alpha_on, alpha_off:
        Nonlinearity exponents of the threshold excess.
    window:
        Window-function name; one of :data:`WINDOWS`.
    window_p:
        Polynomial order of the Joglekar window (ignored for rectangular).
    """

    r_on: float = 10 * KILO_OHM
    r_off: float = 10 * MEGA_OHM
    v_on: float = 0.7
    v_off: float = -0.7
    k_on: float = 5.0e9
    k_off: float = -5.0e9
    alpha_on: float = 3.0
    alpha_off: float = 3.0
    window: str = "rectangular"
    window_p: int = 2

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on an inconsistent parameter set."""
        if self.r_on <= 0 or self.r_off <= 0:
            raise ConfigurationError("resistances must be positive")
        if self.r_on >= self.r_off:
            raise ConfigurationError(
                f"r_on ({self.r_on}) must be below r_off ({self.r_off})"
            )
        if self.v_on <= 0:
            raise ConfigurationError("v_on must be positive")
        if self.v_off >= 0:
            raise ConfigurationError("v_off must be negative")
        if self.k_on <= 0:
            raise ConfigurationError("k_on must be positive")
        if self.k_off >= 0:
            raise ConfigurationError("k_off must be negative")
        if self.alpha_on < 0 or self.alpha_off < 0:
            raise ConfigurationError("alpha exponents must be non-negative")
        if self.window not in WINDOWS:
            raise ConfigurationError(
                f"unknown window {self.window!r}; expected one of {WINDOWS}"
            )


def default_parameters() -> VTEAMParameters:
    """The paper's device corner: RON = 10 kOhm, ROFF = 10 MOhm.

    Rate constants are calibrated such that a 1 V pulse fully switches the
    device in well under one 1.1 ns APIM cycle (see module docstring).
    """
    return VTEAMParameters()


class VTEAMModel:
    """Stateless evaluator of the VTEAM equations for a given parameter set.

    The model itself holds no device state; state lives in bulk arrays
    inside the crossbar simulator.  This separation lets one model instance
    serve an entire crossbar.
    """

    def __init__(self, params: VTEAMParameters | None = None) -> None:
        self.params = params or default_parameters()
        self.params.validate()

    # -- static characteristics ------------------------------------------

    def resistance(self, state: float) -> float:
        """Device resistance at internal state ``state`` in [0, 1]."""
        self._check_state(state)
        p = self.params
        return p.r_off + state * (p.r_on - p.r_off)

    def current(self, state: float, voltage: float) -> float:
        """Ohmic device current at the given state and applied voltage."""
        return voltage / self.resistance(state)

    # -- dynamics ----------------------------------------------------------

    def derivative(self, state: float, voltage: float) -> float:
        """``ds/dt`` under *voltage*; zero inside the threshold window."""
        self._check_state(state)
        p = self.params
        if voltage > p.v_on:
            excess = voltage / p.v_on - 1.0
            return p.k_on * excess**p.alpha_on * self._window(state, toward_on=True)
        if voltage < p.v_off:
            excess = voltage / p.v_off - 1.0
            return p.k_off * excess**p.alpha_off * self._window(state, toward_on=False)
        return 0.0

    def step(self, state: float, voltage: float, dt: float) -> float:
        """Advance the state by ``dt`` seconds using explicit Euler, clamped.

        Euler is adequate because callers integrate with steps far below the
        switching time constant; the state is clamped to [0, 1] which also
        realises the rectangular window exactly.
        """
        if dt < 0:
            raise DeviceError(f"negative timestep {dt}")
        new_state = state + self.derivative(state, voltage) * dt
        return min(1.0, max(0.0, new_state))

    # -- internals ---------------------------------------------------------

    def _window(self, state: float, toward_on: bool) -> float:
        p = self.params
        if p.window == "rectangular":
            if toward_on:
                return 0.0 if state >= 1.0 else 1.0
            return 0.0 if state <= 0.0 else 1.0
        # Joglekar polynomial window: 1 - (2s - 1)^(2p); symmetric, smooth.
        return 1.0 - (2.0 * state - 1.0) ** (2 * p.window_p)

    @staticmethod
    def _check_state(state: float) -> None:
        if math.isnan(state) or state < -1e-12 or state > 1.0 + 1e-12:
            raise DeviceError(f"state {state} outside [0, 1]")
