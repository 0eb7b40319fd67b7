"""Dense matrix multiplication on APIM (extension workload).

Not one of the paper's six applications, but the kernel its introduction
motivates — "machine learning algorithms such as classification or neural
networks" are GEMM-bound.  The kernel computes ``C = A x B`` over Q8
fixed-point matrices by rank-1 updates: for every inner index ``k``, one
engine multiplication produces the outer-product slab and one wide
addition accumulates it, all vectorised over the full ``C`` tile.

Available through :func:`repro.workloads.extension_workloads`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload

__all__ = ["GEMMWorkload"]


@register_workload(category="extension")
class GEMMWorkload(Workload):
    """Square fixed-point GEMM via rank-1 accumulation."""

    name = "GEMM"
    kind = "signal"
    scale_bits = 8  # Q8 entries keep 32x32x32 products inside the range
    default_elements = 32 * 32

    def matrix_side(self, elements: int) -> int:
        """Side length of the square matrices for an element budget."""
        side = max(8, int(np.sqrt(elements)))
        return min(side, 64)

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        side = self.matrix_side(elements)
        a = rng.integers(0, 256, (side, side)).astype(np.int64) << self.scale_bits
        b = rng.integers(0, 256, (side, side)).astype(np.int64)
        return WorkloadData(arrays={"a": a, "b": b}, elements=side * side)

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        a = data.array("a")
        b = data.array("b")
        if a.shape != b.shape or a.shape[0] != a.shape[1]:
            raise WorkloadError(f"need square matrices, got {a.shape}")
        side = a.shape[0]
        acc = np.zeros((side, side), dtype=np.int64)
        for k in range(side):
            slab = engine.mul(
                np.broadcast_to(a[:, k : k + 1], (side, side)),
                np.broadcast_to(b[k : k + 1, :], (side, side)),
            )
            acc = engine.add(acc, slab, width=56)
        return engine.shift_right(acc, self.scale_bits)

    def reference(self, data: WorkloadData) -> np.ndarray:
        a = data.array("a")
        b = data.array("b")
        return (a @ b) >> self.scale_bits

    def profile(self) -> WorkloadProfile:
        # Per element of C at side S: S multiplies + S adds; S ~ sqrt(n).
        side = self.matrix_side(self.default_elements)
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=2.0 * side,
            reads_per_element=2.0 * side,
            writes_per_element=1.0,
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        side = self.matrix_side(elements)
        b_base = 1 << 27
        c_base = 1 << 28
        for i in range(side):
            for j in range(side):
                for k in range(side):
                    yield (i * side + k) * self.element_bytes, False
                    yield b_base + (k * side + j) * self.element_bytes, False
                yield c_base + (i * side + j) * self.element_bytes, True
