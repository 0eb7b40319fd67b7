"""The adaptive accuracy controller (paper Sections 4.1 and 4.3).

"To find a proper level of accuracy, our framework computes APIM at the
maximum level of approximation (32 relax bits).  In case of large
inaccuracy, it increases the level of accuracy in 4-bit steps until
ensuring the acceptable quality of service. [...] our design detects the
application at runtime and then sets the pre-calculated value of m."

:class:`AdaptiveTuner` implements exactly that ladder: evaluate
``m = 32, 28, 24, ...`` on a calibration input until the QoS policy
accepts, then report the selected ``m`` together with every trial (the
per-``m`` QoL/EDP grid is Table 1's raw material).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.approximation import ApproxSpec
from repro.errors import QoSError
from repro.quality.qos import QoSPolicy, relax_ladder
from repro.runtime.executor import APIMExecutor, ExecutionResult
from repro.workloads.base import Workload

__all__ = ["AdaptiveTuner", "TuningResult", "TuningTrial"]


@dataclass(frozen=True)
class TuningTrial:
    """One rung of the relax-bit ladder."""

    relax_bits: int
    qol_percent: float
    qos_ok: bool
    edp: float
    time: float
    energy: float


@dataclass(frozen=True)
class TuningResult:
    """Outcome of adaptive tuning for one application."""

    workload: str
    selected_relax_bits: int
    trials: tuple[TuningTrial, ...]

    @property
    def selected_trial(self) -> TuningTrial:
        """The accepted rung."""
        for trial in self.trials:
            if trial.relax_bits == self.selected_relax_bits:
                return trial
        raise QoSError(f"selected rung {self.selected_relax_bits} not in trials")


class AdaptiveTuner:
    """Walks the relax-bit ladder against a QoS policy."""

    def __init__(
        self,
        executor: APIMExecutor | None = None,
        max_relax_bits: int = 32,
        step: int = 4,
    ) -> None:
        if max_relax_bits <= 0 or step <= 0:
            raise QoSError("max_relax_bits and step must be positive")
        self.executor = executor or APIMExecutor()
        self.max_relax_bits = max_relax_bits
        self.step = step

    @property
    def qos(self) -> QoSPolicy:
        """The executor's acceptance policy."""
        return self.executor.qos

    def tune(
        self,
        workload: Workload,
        elements: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> TuningResult:
        """Find the largest acceptable ``m`` for a workload.

        All rungs are evaluated on the *same* calibration input.  Raises
        :class:`QoSError` if even exact mode (m = 0) fails — impossible by
        construction, but guarded because a workload whose reference
        differs from its exact run is a bug worth surfacing loudly.
        """
        rng = rng or np.random.default_rng(2017)
        data = workload.generate(
            elements or workload.default_elements, rng
        )
        trials: list[TuningTrial] = []
        # The shared ladder (qos.relax_ladder) always terminates at m = 0,
        # so exact mode is evaluated even when max is not a step multiple.
        for m in relax_ladder(self.max_relax_bits, self.step):
            result: ExecutionResult = self.executor.run(
                workload, spec=ApproxSpec.last_stage(m), data=data
            )
            trials.append(
                TuningTrial(
                    relax_bits=m,
                    qol_percent=result.qol_percent,
                    qos_ok=result.qos_ok,
                    edp=result.edp,
                    time=result.time,
                    energy=result.energy,
                )
            )
            if result.qos_ok:
                return TuningResult(
                    workload=workload.name,
                    selected_relax_bits=m,
                    trials=tuple(trials),
                )
        raise QoSError(
            f"{workload.name}: QoS unmet even in exact mode — the kernel's "
            "exact path diverges from its reference"
        )
