"""Unsharp-mask sharpening filter (paper workload #5).

The standard 3x3 sharpening stencil ``[[0,-1,0],[-1,5,-1],[0,-1,0]]``:
centre pixel boosted by 5x, 4-neighbours subtracted.  Output is clamped to
the input's dynamic range, as the OpenCL sample does — the clamp is a
comparison (free on the controller), not an arithmetic operation.

Per pixel and pass: 5 tap multiplications, 4 additions, 5 reads, 1 write.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload
from repro.workloads.images import image_shape_for, synthetic_image
from repro.workloads.stencil import COEFF_BITS, convolve2d, convolve2d_exact

__all__ = ["SharpenWorkload"]

KERNEL = np.array([[0, -1, 0], [-1, 5, -1], [0, -1, 0]], dtype=np.int64)


@register_workload
class SharpenWorkload(Workload):
    """3x3 sharpening over synthetic natural images."""

    name = "Sharpen"
    kind = "image"
    default_elements = 128 * 128

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        shape = image_shape_for(elements)
        pixels = synthetic_image(shape, rng).astype(np.int64) << self.scale_bits
        return WorkloadData(arrays={"pixels": pixels}, elements=pixels.size)

    def _clamp(self, values: np.ndarray) -> np.ndarray:
        peak = 255 << self.scale_bits
        return np.clip(values, 0, peak)

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        pixels = data.array("pixels")
        sharpened = convolve2d(engine, pixels, KERNEL)
        return self._clamp(engine.shift_right(sharpened, COEFF_BITS))

    def reference(self, data: WorkloadData) -> np.ndarray:
        pixels = data.array("pixels")
        return self._clamp(convolve2d_exact(pixels, KERNEL) >> COEFF_BITS)

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=9.0,  # 5 muls + 4 adds
            reads_per_element=5.0,
            writes_per_element=1.0,
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        rows, cols = image_shape_for(elements)
        offsets = [-cols, -1, 0, 1, cols]
        base = self.element_bytes * (cols + 1)
        yield from self._strided_trace(base, offsets, elements, self.element_bytes)
