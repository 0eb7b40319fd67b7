"""Process variation and fault modelling for the memristive crossbar.

RRAM devices vary: RON/ROFF spread log-normally across a die, some cells
are stuck (forming failures), and switching thresholds drift.  The paper's
circuit-level evaluation uses nominal corners; a production simulator must
also answer *"does MAGIC still evaluate correctly under variation?"* —
this module provides that analysis.

- :class:`VariationModel` — samples per-cell device parameters
  (log-normal resistance spread, Gaussian threshold spread) and stuck-at
  faults from a seeded RNG.
- :func:`nor_margin` — the sensing/switching margin of a MAGIC NOR under
  sampled resistances: the worst-case ratio between the "some input is 1"
  and "all inputs 0" current levels.  The margin is what shrinks as
  RON/ROFF spread grows.
- :class:`FaultInjector` — applies stuck-at faults to a
  :class:`~repro.crossbar.array.CrossbarArray` and reports which cells
  were hit, used by the reliability tests/bench to measure end-to-end
  arithmetic error rates under faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.device.vteam import VTEAMParameters, default_parameters
from repro.errors import DeviceError

if TYPE_CHECKING:  # crossbar imports device; avoid the cycle at runtime
    from repro.crossbar.array import CrossbarArray

__all__ = ["VariationModel", "SampledDevice", "nor_margin", "FaultInjector"]


@dataclass(frozen=True)
class SampledDevice:
    """One device's sampled parameters."""

    r_on: float
    r_off: float
    v_on: float
    v_off: float
    stuck: str | None  # None, "stuck_on", "stuck_off"


@dataclass(frozen=True)
class VariationModel:
    """Statistical device-variation model around a nominal corner.

    Attributes
    ----------
    nominal:
        The nominal VTEAM parameter set.
    resistance_sigma:
        Log-normal sigma of RON and ROFF (typical RRAM: 0.1-0.3).
    threshold_sigma:
        Relative Gaussian sigma of the switching thresholds.
    stuck_on_rate / stuck_off_rate:
        Per-cell probabilities of forming-time stuck faults.
    """

    nominal: VTEAMParameters = None  # type: ignore[assignment]
    resistance_sigma: float = 0.15
    threshold_sigma: float = 0.05
    stuck_on_rate: float = 0.0
    stuck_off_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.nominal is None:
            object.__setattr__(self, "nominal", default_parameters())
        if self.resistance_sigma < 0 or self.threshold_sigma < 0:
            raise DeviceError("variation sigmas must be non-negative")
        if not 0 <= self.stuck_on_rate <= 1 or not 0 <= self.stuck_off_rate <= 1:
            raise DeviceError("stuck rates must be probabilities")
        if self.stuck_on_rate + self.stuck_off_rate > 1:
            raise DeviceError("total stuck rate exceeds 1")

    def sample(self, rng: np.random.Generator) -> SampledDevice:
        """Draw one device."""
        return self.sample_many(1, rng)[0]

    def sample_many(
        self, count: int, rng: np.random.Generator
    ) -> list[SampledDevice]:
        """Draw ``count`` devices (vectorised internally)."""
        if count <= 0:
            raise DeviceError(f"count must be positive: {count}")
        nominal = self.nominal
        r_on = nominal.r_on * np.exp(
            rng.normal(0.0, self.resistance_sigma, count)
        )
        r_off = nominal.r_off * np.exp(
            rng.normal(0.0, self.resistance_sigma, count)
        )
        v_on = nominal.v_on * (1 + rng.normal(0, self.threshold_sigma, count))
        v_off = nominal.v_off * (1 + rng.normal(0, self.threshold_sigma, count))
        u = rng.uniform(size=count)
        devices = []
        for i in range(count):
            stuck: str | None = None
            if u[i] < self.stuck_on_rate:
                stuck = "stuck_on"
            elif u[i] < self.stuck_on_rate + self.stuck_off_rate:
                stuck = "stuck_off"
            devices.append(
                SampledDevice(
                    r_on=float(r_on[i]),
                    r_off=float(r_off[i]),
                    v_on=float(abs(v_on[i])),
                    v_off=-float(abs(v_off[i])),
                    stuck=stuck,
                )
            )
        return devices


def nor_margin(
    inputs_on: int,
    inputs_off: int,
    devices: list[SampledDevice],
) -> float:
    """Worst-case MAGIC NOR discrimination margin under sampled devices.

    A NOR evaluates by the current its input devices can drive into the
    output: with at least one '1' input the path conductance is RON-scale;
    with all-'0' inputs it is ROFF-scale.  The margin is the ratio of the
    weakest "must switch" current to the strongest "must not switch"
    current (both per volt of drive); MAGIC functions correctly while it
    stays well above 1 (nominally ~1000, the RON/ROFF ratio).

    ``devices`` supplies one sampled device per input position (the first
    ``inputs_on`` play the '1' role).
    """
    total = inputs_on + inputs_off
    if total <= 0:
        raise DeviceError("NOR needs at least one input")
    if len(devices) < total:
        raise DeviceError(
            f"need {total} sampled devices, got {len(devices)}"
        )
    if inputs_on == 0:
        return float("inf")  # nothing must switch; no misfire possible
    # Weakest switching drive: the single ON device with the highest RON.
    weakest_on = min(1.0 / d.r_on for d in devices[:inputs_on])
    # Strongest leakage: all OFF devices conducting in parallel.
    leakage = sum(1.0 / d.r_off for d in devices[inputs_on:total])
    if inputs_off == 0:
        return float("inf")
    if leakage == 0:
        return float("inf")
    return weakest_on / leakage


class FaultInjector:
    """Applies stuck-at faults to a crossbar block.

    The injector freezes the chosen cells at their stuck level: subsequent
    writes to them are silently ineffective (as on real hardware), which
    the reliability analyses then observe as arithmetic errors.
    """

    def __init__(self, model: VariationModel, seed: int = 0) -> None:
        if model.stuck_on_rate + model.stuck_off_rate <= 0:
            raise DeviceError("fault injection needs a non-zero stuck rate")
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.injected: list[tuple[int, int, str]] = []

    def inject(
        self, array: CrossbarArray, pin: bool = False
    ) -> list[tuple[int, int, str]]:
        """Sample and apply faults to every cell of ``array``.

        Returns the list of (row, col, kind) hits in row-major cell order.
        The array's cells are set to the stuck level; with ``pin=True`` the
        cells are additionally frozen via
        :meth:`~repro.crossbar.array.CrossbarArray.pin_cell`, so *every*
        subsequent write (driver, MAGIC, bulk clear) is silently
        ineffective — the persistence real stuck-at faults have.  Without
        pinning, the caller re-asserts levels via :meth:`enforce` after
        each operation (or attaches the injector to a fabric with
        :meth:`~repro.crossbar.block.BlockedCrossbar.attach_fault_injector`).

        The fault draw is vectorised: one uniform matrix, thresholded, and
        ``np.argwhere`` extracts the hits — identical RNG stream and hit
        list to the per-cell scan, ~100x faster at 1024x1024.
        """
        u = self.rng.uniform(size=(array.rows, array.cols))
        on_rate = self.model.stuck_on_rate
        off_rate = self.model.stuck_off_rate
        on_mask = u < on_rate
        off_mask = ~on_mask & (u < on_rate + off_rate)
        hits = [
            (int(row), int(col),
             "stuck_on" if on_mask[row, col] else "stuck_off")
            for row, col in np.argwhere(on_mask | off_mask)
        ]
        self.injected = hits
        if pin:
            self.pin(array)
        else:
            self.enforce(array)
        return hits

    def pin(self, array: CrossbarArray) -> None:
        """Freeze every injected fault into the array's stuck-cell map."""
        for row, col, kind in self.injected:
            array.pin_cell(row, col, 1.0 if kind == "stuck_on" else 0.0)

    def enforce(self, array: CrossbarArray) -> None:
        """Re-assert the stuck levels (call after every crossbar op)."""
        for row, col, kind in self.injected:
            level = 1.0 if kind == "stuck_on" else 0.0
            if array.is_pinned(row, col):
                continue  # pinned cells cannot drift
            array.set_state(row, col, level)
