"""1-D Haar discrete wavelet transform (paper workload #4, "DwtHaar1D").

The AMD OpenCL sample's kernel: each level turns pairs ``(a, b)`` into the
orthonormal approximation/detail coefficients

    approx = (a + b) / sqrt(2)        detail = (a - b) / sqrt(2)

with ``1/sqrt(2)`` quantised to Q15 (23170).  Successive levels process the
approximation half until one coefficient remains; the output is the usual
packed ``[approx_L, detail_L, detail_{L-1}, ..., detail_1]`` layout.

Per element per pass: one multiplication and one addition (two of each per
pair); the level sizes halve, so the whole transform touches ``2n``
elements — the GPU profile models this as 2 passes over the dataset.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload
from repro.workloads.datagen import power_of_two_length, smooth_noisy_signal

__all__ = ["DwtHaar1DWorkload"]

#: 1/sqrt(2) in Q15.
INV_SQRT2_Q15 = 23170
Q15_BITS = 15


@register_workload
class DwtHaar1DWorkload(Workload):
    """Multi-level Haar DWT over synthetic 8-bit signals."""

    name = "DwtHaar1D"
    kind = "signal"
    default_elements = 1 << 14

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        n = power_of_two_length(elements)
        noisy = smooth_noisy_signal(n, rng)
        return WorkloadData(
            arrays={"signal": noisy << self.scale_bits}, elements=n
        )

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        signal = data.array("signal").copy()
        n = signal.size
        if n & (n - 1):
            raise WorkloadError(f"DWT length {n} is not a power of two")
        out = np.empty_like(signal)
        current = signal
        write_pos = n
        while current.size > 1:
            a, b = current[0::2], current[1::2]
            # Multiply first, combine at product scale, rescale last: the
            # live values then occupy > 32 bits, the regime Table 1 sweeps.
            pa = engine.mul(a, INV_SQRT2_Q15)
            pb = engine.mul(b, INV_SQRT2_Q15)
            approx = engine.shift_right(engine.add(pa, pb, width=52), Q15_BITS)
            detail = engine.shift_right(engine.sub(pa, pb, width=52), Q15_BITS)
            half = current.size // 2
            out[write_pos - half : write_pos] = detail
            write_pos -= half
            current = approx
        out[0] = current[0]
        return out

    def reference(self, data: WorkloadData) -> np.ndarray:
        signal = data.array("signal").copy()
        n = signal.size
        out = np.empty_like(signal)
        current = signal
        write_pos = n
        while current.size > 1:
            a, b = current[0::2], current[1::2]
            pa, pb = a * INV_SQRT2_Q15, b * INV_SQRT2_Q15
            approx = (pa + pb) >> Q15_BITS
            detail = (pa - pb) >> Q15_BITS
            half = current.size // 2
            out[write_pos - half : write_pos] = detail
            write_pos -= half
            current = approx
        out[0] = current[0]
        return out

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=2.0,  # 1 mul + 1 add per element per pass
            reads_per_element=1.0,
            writes_per_element=1.0,
            passes=lambda n: 2.0,  # sum of halving levels = 2 sweeps
            trace=self._trace,
        )

    def _trace(self, elements: int):
        """Cache-measurement trace over a beyond-L2 tile: at the paper's
        dataset sizes every level that matters streams from memory, so the
        first three (dominant-traffic) levels stand in for the full
        cascade; the GPU model scales by the true pass count."""
        n = 1 << 19  # 2 MB of samples: twice the R9 390's L2
        size = n
        approx_base = 1 << 28  # ping-pong buffer for approximations
        for _level in range(3):
            for i in range(0, size, 2):
                yield i * self.element_bytes, False
                yield (i + 1) * self.element_bytes, False
                yield approx_base + (i // 2) * self.element_bytes, True
                yield (n - size + i // 2) * self.element_bytes, True
            size //= 2
