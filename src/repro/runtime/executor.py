"""Workload execution on APIM with quality scoring and cost roll-up.

The executor owns the common experiment loop: generate an input, run the
kernel through an engine at some approximation setting, score the result
against the golden reference, and convert the engine's accumulated
:class:`~repro.core.cost.Cost` into wall-clock time, energy and EDP under
the machine's SIMD lane model (see
:meth:`~repro.core.config.APIMConfig.parallel_lanes`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.core.engine import APIMEngine
from repro.errors import KernelExecutionError, ReproError, WorkloadError
from repro.observability.instruments import record_execution
from repro.observability.tracing import timed_event, trace_event
from repro.quality.metrics import quality_loss_percent
from repro.quality.qos import QoSPolicy
from repro.workloads.base import Workload, WorkloadData

if TYPE_CHECKING:
    from repro.resilience.engine import ResilienceContext

__all__ = ["APIMExecutor", "ExecutionResult"]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of one workload execution on APIM.

    Time/energy/EDP are for the *executed tile* (``elements`` elements
    resident, all lanes of that allocation active); the comparison harness
    extrapolates to full dataset sizes.
    """

    workload: str
    spec: ApproxSpec
    elements: int
    dataset_bytes: int
    output: np.ndarray
    reference: np.ndarray
    qol_percent: float
    qos_ok: bool
    qos_score: float
    cost: Cost
    mul_count: int
    add_count: int
    time: float
    energy: float
    faults_detected: int = 0
    repairs: int = 0
    retries: int = 0
    #: Terminal outcome: ``ok`` (clean first pass), ``retried`` (elements
    #: re-executed by the resilience loop), ``degraded`` (corruption kept
    #: per policy), ``fallback`` / ``failed`` (set by the supervisor for
    #: runs it rescued or lost — the executor itself raises instead).
    status: str = "ok"
    #: Execution passes consumed (resilience re-execution rounds + 1).
    attempts: int = 1

    @property
    def edp(self) -> float:
        """Energy-delay product in joule-seconds."""
        return self.energy * self.time


class APIMExecutor:
    """Runs workloads on APIM engines and scores them."""

    def __init__(
        self,
        config: APIMConfig | None = None,
        qos: QoSPolicy | None = None,
    ) -> None:
        self.config = config or default_config()
        self.qos = qos or QoSPolicy()

    def run(
        self,
        workload: Workload,
        spec: ApproxSpec = EXACT,
        elements: int | None = None,
        rng: np.random.Generator | None = None,
        data: WorkloadData | None = None,
        resilience: "ResilienceContext | None" = None,
    ) -> ExecutionResult:
        """Execute ``workload`` at approximation ``spec``.

        Either pass pre-generated ``data`` (so several specs score against
        identical inputs, as the tuner does) or let the executor generate
        ``elements`` elements with ``rng``.

        With a ``resilience`` context the kernel runs on a fault-aware
        engine bound to that context's (possibly faulty) fabric: outputs
        are corrupted by its stuck cells, and — policy permitting —
        scrubbed back to correctness by the BIST/spare-row/retry loop,
        whose activity lands in ``faults_detected`` / ``repairs`` /
        ``retries`` and in the reliability overheads billed to ``cost``.
        """
        if data is None:
            elements = elements or workload.default_elements
            rng = rng or np.random.default_rng(2017)
            data = workload.generate(elements, rng)
        if resilience is not None:
            engine = resilience.make_engine(self.config, spec)
        else:
            engine = APIMEngine(self.config, spec)
        trace_event(
            "executor", "run", workload=workload.name,
            relax_bits=spec.relax_bits, elements=data.elements,
        )
        try:
            with timed_event("executor", "kernel", workload=workload.name):
                output = workload.run(engine, data)
            reference = workload.reference(data)
        except ReproError as exc:
            trace_event(
                "executor", "kernel_error", f"{type(exc).__name__}: {exc}",
                workload=workload.name,
            )
            raise
        except Exception as exc:  # normalise raw kernel escapes
            trace_event(
                "executor", "kernel_error", f"{type(exc).__name__}: {exc}",
                workload=workload.name,
            )
            raise KernelExecutionError(
                f"{workload.name}: kernel raised "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        if np.asarray(output).shape != np.asarray(reference).shape:
            raise WorkloadError(
                f"{workload.name}: output shape {np.asarray(output).shape} "
                f"!= reference {np.asarray(reference).shape}"
            )
        qol = quality_loss_percent(reference, output, workload.kind)
        score = self.qos.score(reference, output, workload.kind)
        qos_ok = self.qos.accepts(reference, output, workload.kind)

        dataset_bytes = data.elements * workload.element_bytes
        lanes = self.config.parallel_lanes(dataset_bytes)
        blocks = self.config.blocks_for(dataset_bytes)
        cost = engine.total_cost
        retries = int(getattr(engine, "retries", 0))
        degraded = int(getattr(engine, "degraded", 0))
        status = "degraded" if degraded else ("retried" if retries else "ok")
        result = ExecutionResult(
            workload=workload.name,
            spec=spec,
            elements=data.elements,
            dataset_bytes=dataset_bytes,
            output=output,
            reference=reference,
            qol_percent=qol,
            qos_ok=qos_ok,
            qos_score=score,
            cost=cost,
            mul_count=engine.mul_count,
            add_count=engine.add_count,
            time=cost.time(self.config, lanes),
            energy=cost.energy(self.config, lanes, active_blocks=blocks),
            faults_detected=int(getattr(engine, "faults_detected", 0)),
            repairs=int(getattr(engine, "repairs", 0)),
            retries=retries,
            status=status,
            attempts=retries + 1,
        )
        record_execution(result)
        trace_event(
            "executor", "done", status=status,
            sim_time_s=result.time, attempts=result.attempts,
        )
        return result
