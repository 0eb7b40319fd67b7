"""Quasi-random sequence generation (paper workload #6, "QuasiR").

Generates low-discrepancy Halton points by radical inversion: index ``i``
is written in base ``b`` and its digits are folded back as

    x_b(i) = sum_k digit_k(i) * floor(2^30 / b^(k+1))

— a multiply-accumulate chain per dimension, which is exactly how the
OpenCL sample maps quasi-random generation onto mul/add hardware.  Digits
are extracted on the host (cheap integer division is part of index
bookkeeping, not the measured kernel); the MACs run through the engine.

Per element (point x dimension): ``K`` multiplications and ``K`` additions
for ``K`` digits; one table read and one write.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload
from repro.workloads.datagen import halton_indices

__all__ = ["QuasiRandomWorkload"]

#: Halton bases (dimensions) used by the kernel.
BASES = (2, 3, 5)

#: Fixed-point scale of the generated coordinates.
COORD_BITS = 30

#: Digits folded per index (covers indices up to base**DIGITS).
DIGITS = 8


@register_workload
class QuasiRandomWorkload(Workload):
    """Halton low-discrepancy sequence via MAC chains."""

    name = "QuasiR"
    kind = "signal"
    default_elements = 1 << 14

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        indices = halton_indices(elements, rng)
        return WorkloadData(arrays={"indices": indices}, elements=elements)

    @staticmethod
    def _digits(indices: np.ndarray, base: int) -> list[np.ndarray]:
        digits = []
        rest = indices.copy()
        for _ in range(DIGITS):
            digits.append(rest % base)
            rest = rest // base
        return digits

    @staticmethod
    def _weights(base: int) -> list[int]:
        return [(1 << COORD_BITS) // base ** (k + 1) for k in range(DIGITS)]

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        indices = data.array("indices")
        coords = []
        for base in BASES:
            digits = self._digits(indices, base)
            weights = self._weights(base)
            acc = engine.mul(digits[0], weights[0])
            for digit, weight in zip(digits[1:], weights[1:]):
                term = engine.mul(digit, weight)
                acc = engine.add(acc, term, width=48)
            coords.append(acc)
        return np.stack(coords)

    def reference(self, data: WorkloadData) -> np.ndarray:
        indices = data.array("indices")
        coords = []
        for base in BASES:
            digits = self._digits(indices, base)
            weights = self._weights(base)
            acc = digits[0] * weights[0]
            for digit, weight in zip(digits[1:], weights[1:]):
                acc = acc + digit * weight
            coords.append(acc)
        return np.stack(coords)

    def profile(self) -> WorkloadProfile:
        k = float(DIGITS * len(BASES))
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=2 * k,  # K muls + K adds across dimensions
            reads_per_element=1.0,
            writes_per_element=float(len(BASES)),
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        out_base = 1 << 28
        for i in range(elements):
            yield i * self.element_bytes, False
            for d in range(len(BASES)):
                yield out_base + (i * len(BASES) + d) * self.element_bytes, True
