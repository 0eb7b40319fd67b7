"""Roberts-cross edge detection (paper workload #2).

The 2x2 cross-gradient operator: ``gx = p(y, x) - p(y+1, x+1)`` and
``gy = p(y, x+1) - p(y+1, x)``, magnitude ``|gx| + |gy|`` (square root
approximated away, as in the paper's OpenCL sources).  Unlike Sobel this
kernel is almost pure addition — its Table 1 row therefore tracks the
adder's approximation behaviour.

Per pixel and pass: 4 tap multiplications (coefficients +-1, as the naive
kernel multiplies), 5 additions, 4 reads, 1 write.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload
from repro.workloads.images import image_shape_for, synthetic_image
from repro.workloads.stencil import COEFF_BITS, convolve2d, convolve2d_exact

__all__ = ["RobertWorkload"]

RX = np.array([[1, 0], [0, -1]], dtype=np.int64)
RY = np.array([[0, 1], [-1, 0]], dtype=np.int64)


@register_workload
class RobertWorkload(Workload):
    """2x2 Roberts-cross gradient magnitude over synthetic images."""

    name = "Robert"
    kind = "image"
    default_elements = 128 * 128

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        shape = image_shape_for(elements)
        pixels = synthetic_image(shape, rng).astype(np.int64) << self.scale_bits
        return WorkloadData(arrays={"pixels": pixels}, elements=pixels.size)

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        pixels = data.array("pixels")
        gx = convolve2d(engine, pixels, RX)
        gy = convolve2d(engine, pixels, RY)
        magnitude = engine.add(np.abs(gx), np.abs(gy), width=52)
        return engine.shift_right(magnitude, COEFF_BITS)

    def reference(self, data: WorkloadData) -> np.ndarray:
        pixels = data.array("pixels")
        gx = convolve2d_exact(pixels, RX)
        gy = convolve2d_exact(pixels, RY)
        return (np.abs(gx) + np.abs(gy)) >> COEFF_BITS

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=9.0,  # 4 muls + 5 adds
            reads_per_element=4.0,
            writes_per_element=1.0,
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        rows, cols = image_shape_for(elements)
        offsets = [0, 1, cols, cols + 1]
        yield from self._strided_trace(0, offsets, elements, self.element_bytes)
