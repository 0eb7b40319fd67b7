"""Sobel edge detection (paper workload #1).

The classic 3x3 gradient operator: horizontal and vertical convolutions
followed by the gradient magnitude.  The square root of the textbook
magnitude is replaced by ``|gx| + |gy|`` — the paper states that "common
operations such as square root has been approximated by these two
functions [addition and multiplication] in OpenCL code".

Per pixel and pass: 12 tap multiplications (6 non-zero taps per kernel),
11 additions (two 6-term reductions and the magnitude add), 9 neighbour
reads and 1 result write.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload
from repro.workloads.images import image_shape_for, synthetic_image
from repro.workloads.stencil import COEFF_BITS, convolve2d, convolve2d_exact

__all__ = ["SobelWorkload"]

GX = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int64)
GY = GX.T.copy()


@register_workload
class SobelWorkload(Workload):
    """3x3 Sobel gradient magnitude over synthetic natural images."""

    name = "Sobel"
    kind = "image"
    default_elements = 128 * 128

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        shape = image_shape_for(elements)
        pixels = synthetic_image(shape, rng).astype(np.int64) << self.scale_bits
        return WorkloadData(arrays={"pixels": pixels}, elements=pixels.size)

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        pixels = data.array("pixels")
        gx = convolve2d(engine, pixels, GX)
        gy = convolve2d(engine, pixels, GY)
        # |.| is free on the sign-magnitude datapath (drop the sign bit);
        # combine at product scale, rescale once at the end.
        magnitude = engine.add(np.abs(gx), np.abs(gy), width=52)
        return engine.shift_right(magnitude, COEFF_BITS)

    def reference(self, data: WorkloadData) -> np.ndarray:
        pixels = data.array("pixels")
        gx = convolve2d_exact(pixels, GX)
        gy = convolve2d_exact(pixels, GY)
        return (np.abs(gx) + np.abs(gy)) >> COEFF_BITS

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=23.0,  # 12 muls + 11 adds
            reads_per_element=9.0,
            writes_per_element=1.0,
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        rows, cols = image_shape_for(elements)
        offsets = [dy * cols + dx for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        base = self.element_bytes * (cols + 1)  # keep offsets non-negative
        yield from self._strided_trace(
            base, offsets, elements, self.element_bytes
        )
