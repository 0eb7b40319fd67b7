"""Quality-of-service acceptance policy (paper Section 4.1).

A :class:`QoSPolicy` decides whether one approximate run is acceptable:
image workloads must reach the PSNR floor (30 dB), everything else must
stay under the relative-error ceiling (10 %).  The adaptive tuner
(:mod:`repro.runtime.tuner`) walks the relax-bit ladder against this
policy, exactly as the paper's framework does ("it increases the level of
accuracy in 4-bit steps until ensuring the acceptable quality of
service").

:func:`relax_ladder` is the single source of that ladder.  The tuner
descends it (most approximate first, seeking the cheapest acceptable
rung); the campaign supervisor ascends the portion *above* a failing
point (:meth:`QoSPolicy.degradation_rungs`) — trading quality for cheaper
re-execution is the graceful alternative to losing the point entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.quality.metrics import average_relative_error, psnr

__all__ = ["QoSPolicy", "relax_ladder"]


def relax_ladder(max_relax_bits: int = 32, step: int = 4) -> tuple[int, ...]:
    """The paper's accuracy ladder: ``max, max-step, ..., 0``.

    Always ends at 0 (exact mode), even when ``max_relax_bits`` is not a
    multiple of ``step`` — the tuner's terminal rung must exist.
    """
    if max_relax_bits <= 0 or step <= 0:
        raise ConfigurationError(
            "max_relax_bits and step must be positive for a relax ladder"
        )
    rungs = list(range(max_relax_bits, 0, -step))
    rungs.append(0)
    return tuple(rungs)


@dataclass(frozen=True)
class QoSPolicy:
    """Acceptance thresholds.

    Attributes
    ----------
    min_psnr_db:
        Floor for image workloads (paper: 30 dB).
    max_relative_error:
        Ceiling for non-image workloads, as a fraction (paper: 0.10).
    """

    min_psnr_db: float = 30.0
    max_relative_error: float = 0.10

    def __post_init__(self) -> None:
        if self.min_psnr_db <= 0:
            raise ConfigurationError("min_psnr_db must be positive")
        if not 0 < self.max_relative_error < 1:
            raise ConfigurationError("max_relative_error must be in (0, 1)")

    def score(self, reference: np.ndarray, output: np.ndarray, kind: str) -> float:
        """The policy's decision metric for a run (dB or error fraction)."""
        if kind == "image":
            return psnr(reference, output)
        if kind == "signal":
            return average_relative_error(reference, output)
        raise ConfigurationError(f"unknown workload kind {kind!r}")

    def accepts(self, reference: np.ndarray, output: np.ndarray, kind: str) -> bool:
        """True when the output meets the paper's acceptance criterion."""
        value = self.score(reference, output, kind)
        if kind == "image":
            return value >= self.min_psnr_db
        return value <= self.max_relative_error

    def degradation_rungs(self, current: int) -> tuple[int, ...]:
        """Rungs of the default :func:`relax_ladder` above ``current``,
        nearest first.

        The supervisor walks these when a point exhausts its retries or
        deadline: each rung relaxes more product bits (cheaper, faster,
        lower quality), degrading the point instead of failing it.  Empty
        when ``current`` already sits at the top of the ladder.
        """
        if current < 0:
            raise ConfigurationError(
                f"current relax level must be non-negative: {current}"
            )
        return tuple(
            rung
            for rung in sorted(relax_ladder())
            if rung > current
        )
