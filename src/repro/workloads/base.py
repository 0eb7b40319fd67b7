"""Workload abstraction: fixed-point kernels running on the APIM engine.

A :class:`Workload` bundles everything one of the paper's six OpenCL
applications needs:

- :meth:`~Workload.generate` — synthesize an input of a given element
  count (images from the Caltech-101-like generator, signals from the
  random generators — see DESIGN.md's substitution table);
- :meth:`~Workload.run` — the kernel itself, every multiply/add routed
  through an :class:`~repro.core.engine.APIMEngine`;
- :meth:`~Workload.reference` — the golden exact output ("calculating
  exactly", paper Section 4.1) against which QoL is scored;
- :meth:`~Workload.profile` — operation counts, pass structure and an
  address trace for the GPU baseline.

Fixed-point convention: 8-bit sample data is scaled by ``scale_bits`` into
the integer domain before entering the engine, so approximation acting on
product LSBs maps onto the value range the way the hardware would see it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.errors import WorkloadError

__all__ = ["Workload", "WorkloadData"]


@dataclass(frozen=True)
class WorkloadData:
    """One generated input instance.

    ``arrays`` holds named integer arrays (already fixed-point scaled);
    ``elements`` is the element count the dataset-size axis refers to.
    """

    arrays: dict[str, np.ndarray]
    elements: int

    def __post_init__(self) -> None:
        if self.elements <= 0:
            raise WorkloadError("element count must be positive")
        if not self.arrays:
            raise WorkloadError("workload data needs at least one array")

    def array(self, name: str) -> np.ndarray:
        """Fetch one named array."""
        if name not in self.arrays:
            raise WorkloadError(
                f"array {name!r} missing; have {sorted(self.arrays)}"
            )
        return self.arrays[name]


class Workload(abc.ABC):
    """Base class of the paper's six applications."""

    #: Paper name (Table 1 row label).
    name: str = "abstract"

    #: ``"image"`` (PSNR criterion) or ``"signal"`` (relative error).
    kind: str = "signal"

    #: Bytes per element on the dataset-size axis (8-bit samples widened
    #: to 32-bit words on the device, 4 B as stored).
    element_bytes: int = 4

    #: Fixed-point scaling applied to 8-bit input samples.
    scale_bits: int = 12

    #: Default element count for QoL evaluation runs.
    default_elements: int = 1 << 14

    # -- interface -----------------------------------------------------------

    @abc.abstractmethod
    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        """Synthesize an input with ``elements`` elements."""

    @abc.abstractmethod
    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        """Execute the kernel on the engine; returns the fixed-point output."""

    @abc.abstractmethod
    def reference(self, data: WorkloadData) -> np.ndarray:
        """Golden exact output at the same fixed-point scale as :meth:`run`."""

    @abc.abstractmethod
    def profile(self) -> WorkloadProfile:
        """Per-element operation/memory profile for the GPU baseline."""

    # -- helpers -----------------------------------------------------------------

    def validate_elements(self, elements: int) -> None:
        """Common sanity check for :meth:`generate` implementations."""
        if elements <= 0:
            raise WorkloadError(f"element count must be positive: {elements}")

    @staticmethod
    def _strided_trace(
        base: int,
        offsets: Iterable[int],
        elements: int,
        element_bytes: int,
    ) -> Iterable[tuple[int, bool]]:
        """Row-scan stencil trace helper: per element, read at each offset
        then write one output element 1 GiB above ``base``."""
        out_base = base + (1 << 30)
        offs = list(offsets)
        for i in range(elements):
            addr = base + i * element_bytes
            for off in offs:
                yield addr + off * element_bytes, False
            yield out_base + i * element_bytes, True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"
