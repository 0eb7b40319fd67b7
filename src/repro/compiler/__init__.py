"""Kernel compiler: express computations once, run them on APIM (S21).

The paper maps OpenCL kernels onto APIM by hand; this subpackage provides
the programmable equivalent — a small dataflow IR plus the tooling to run
it on the engine and to schedule it onto the machine's SIMD lanes:

- :mod:`repro.compiler.ir` — the kernel IR: a DAG of fixed-point
  operations built through :class:`KernelBuilder`.
- :mod:`repro.compiler.evaluate` — execute a kernel on an
  :class:`~repro.core.engine.APIMEngine` (any approximation setting, full
  cost accounting) or against the exact NumPy reference.
- :mod:`repro.compiler.scheduler` — a list scheduler that maps kernel
  operations onto a bounded number of lanes and reports makespan,
  critical path and utilisation, using the canonical cycle formulas.

No experiment driver or serving path imports this package;
``examples/custom_kernels.py`` walks through it end to end.
"""

from repro.compiler.evaluate import evaluate, exact_reference
from repro.compiler.ir import Kernel, KernelBuilder, Node, OpKind
from repro.compiler.scheduler import ListScheduler, Schedule, op_cycles

__all__ = [
    "OpKind",
    "Node",
    "Kernel",
    "KernelBuilder",
    "evaluate",
    "exact_reference",
    "ListScheduler",
    "Schedule",
    "op_cycles",
]
