"""APIM-vs-GPU comparison at arbitrary dataset sizes (paper Section 4.2).

The paper sweeps dataset sizes up to 1 GB.  APIM's per-element cost is
constant (the dataset is resident; computation is local to each block
pair), so the harness measures APIM on a tile and extrapolates the cost
counters linearly — with a pass correction for workloads whose sweep count
depends on the dataset size (FFT's ``log2 n``).  The GPU side comes from
the analytic model fed by the trace-driven cache simulator.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.gpu import GPUEstimate, GPUModel
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig, default_config
from repro.errors import ConfigurationError
from repro.observability.instruments import record_cold_work
from repro.observability.tracing import trace_event
from repro.runtime.executor import APIMExecutor, ExecutionResult

__all__ = ["ComparisonHarness", "ComparisonResult"]

#: The pricing memos, process-wide, so every harness in the process (every
#: in-process shard) reuses one result per key; the third layer is
#: ``repro.baselines.gpu._LOCALITY_MEMO``.  Keys start with the harness's
#: interned identity: priced points ``(identity, workload name, spec,
#: dataset_bytes)``, at most :data:`PRICED_CAPACITY`, oldest evicted first
#: (sizes come from clients); tile executions ``(identity, workload name,
#: spec)``, with read-only arrays.  Lookups take no lock: racing misses
#: compute identical results (seeded RNG) and the first ``setdefault`` wins.
_PRICED: dict[tuple, ComparisonResult] = {}
_TILE_MEMO: dict[tuple, ExecutionResult] = {}
PRICED_CAPACITY = 4096

#: ``(APIM config, GPU config, tile elements, rng seed) -> small int``,
#: interned once per harness so a lookup never rehashes the frozen configs.
#: Never emptied, so an int never names two identities.
_IDENTITIES: dict[tuple, int] = {}
#: Guards interning, and the priced memo's inserts and evictions.
_LOCK = threading.Lock()


@dataclass(frozen=True, slots=True)
class ComparisonResult:
    """APIM vs GPU at one (workload, dataset size, approximation) point.

    Frozen: a harness hands the one memoised instance of a priced point
    to every caller that asks for it."""

    workload: str
    dataset_bytes: int
    spec: ApproxSpec
    apim_time: float
    apim_energy: float
    gpu_time: float
    gpu_energy: float
    qol_percent: float
    qos_ok: bool

    @property
    def speedup(self) -> float:
        """GPU time / APIM time (>1 means APIM is faster)."""
        return self.gpu_time / self.apim_time

    @property
    def energy_improvement(self) -> float:
        """GPU energy / APIM energy."""
        return self.gpu_energy / self.apim_energy

    @property
    def edp_improvement(self) -> float:
        """GPU EDP / APIM EDP — the paper's headline metric."""
        return (self.gpu_energy * self.gpu_time) / (
            self.apim_energy * self.apim_time
        )


class ComparisonHarness:
    """Prices workloads on APIM and the GPU baseline at any dataset size."""

    def __init__(
        self,
        config: APIMConfig | None = None,
        gpu: GPUModel | None = None,
        tile_elements: int = 1 << 14,
        rng_seed: int = 2017,
    ) -> None:
        if tile_elements <= 0:
            raise ConfigurationError("tile_elements must be positive")
        self.config = config or default_config()
        self.gpu = gpu or GPUModel()
        self.executor = APIMExecutor(self.config)
        self.tile_elements = tile_elements
        self.rng_seed = rng_seed
        identity = (self.config, self.gpu.config, tile_elements, rng_seed)
        with _LOCK:
            self._identity = _IDENTITIES.setdefault(identity, len(_IDENTITIES))

    @property
    def _tile_cache(self) -> dict[tuple, ExecutionResult]:
        """The process-wide tile memo, read-only.  Its one reader is
        ``perfbench/spans.py::cold_work``, which compares its length
        before and after a serving window."""
        return _TILE_MEMO

    # -- APIM side ----------------------------------------------------------

    def _tile_result(self, workload, spec: ApproxSpec) -> ExecutionResult:
        key = (self._identity, workload.name, spec)
        result = _TILE_MEMO.get(key)
        if result is not None:
            return result
        start = time.perf_counter()
        result = self.executor.run(
            workload,
            spec=spec,
            elements=self.tile_elements,
            rng=np.random.default_rng(self.rng_seed),
        )
        # Every harness in the process reads this one result.
        result.output.flags.writeable = False
        result.reference.flags.writeable = False
        result = _TILE_MEMO.setdefault(key, result)
        seconds = time.perf_counter() - start
        record_cold_work("executed", seconds)
        trace_event(
            "comparison", "tile", workload.name,
            masked_bits=spec.masked_bits, relax_bits=spec.relax_bits,
            tile=self.tile_elements, source="executed",
            seconds=round(seconds, 6),
        )
        return result

    def apim_estimate(
        self, workload, dataset_bytes: float, spec: ApproxSpec = EXACT
    ) -> tuple[float, float, ExecutionResult]:
        """(time, energy, tile result) of APIM at a dataset size.

        Cost counters measured on the tile scale by element count and by
        the pass-count ratio (FFT does more sweeps over bigger datasets);
        time additionally divides by the larger lane allocation of the
        resident dataset.
        """
        tile = self._tile_result(workload, spec)
        time, energy = self._scaled(tile, workload.profile(), dataset_bytes)
        return time, energy, tile

    def _scaled(
        self, tile: ExecutionResult, profile, dataset_bytes: float
    ) -> tuple[float, float]:
        elements = profile.elements(dataset_bytes)
        pass_ratio = profile.passes(elements) / profile.passes(tile.elements)
        scale = (elements / tile.elements) * pass_ratio
        cost = tile.cost.scaled(scale)
        lanes = self.config.parallel_lanes(dataset_bytes)
        blocks = self.config.blocks_for(dataset_bytes)
        time = cost.time(self.config, lanes)
        energy = cost.energy(self.config, lanes, active_blocks=blocks)
        return time, energy

    # -- comparison ---------------------------------------------------------

    def cpu_fallback(self, workload, dataset_bytes: float) -> ComparisonResult:
        """Price the point on the host-CPU baseline instead of APIM.

        The supervised campaign's last resort: when a point cannot be
        completed on the simulated accelerator at *any* relax level, the
        work still completes — exactly, on a conventional core.  The
        ``apim_*`` fields carry the CPU's cost, so the exported speedup /
        energy / EDP columns honestly read "what this point achieved
        relative to the GPU baseline" (usually < 1).  Quality is exact by
        construction (QoL 0, QoS met).
        """
        from repro.baselines.cpu import CPUModel  # deferred: keeps the
        # CPU baseline out of every non-degraded campaign's import path.

        profile = workload.profile()
        cpu = CPUModel().estimate(profile, dataset_bytes)
        gpu: GPUEstimate = self.gpu.estimate(profile, dataset_bytes)
        return ComparisonResult(
            workload=workload.name,
            dataset_bytes=int(dataset_bytes),
            spec=EXACT,
            apim_time=cpu.time,
            apim_energy=cpu.energy,
            gpu_time=gpu.time,
            gpu_energy=gpu.energy,
            qol_percent=0.0,
            qos_ok=True,
        )

    def compare(
        self, workload, dataset_bytes: float, spec: ApproxSpec = EXACT
    ) -> ComparisonResult:
        """Full APIM-vs-GPU comparison at one point."""
        key = (self._identity, workload.name, spec, dataset_bytes)
        priced = _PRICED.get(key)
        if priced is not None:
            return priced
        tile = self._tile_result(workload, spec)
        profile = workload.profile()
        apim_time, apim_energy = self._scaled(tile, profile, dataset_bytes)
        gpu: GPUEstimate = self.gpu.estimate(profile, dataset_bytes)
        priced = ComparisonResult(
            workload=workload.name,
            dataset_bytes=int(dataset_bytes),
            spec=spec,
            apim_time=apim_time,
            apim_energy=apim_energy,
            gpu_time=gpu.time,
            gpu_energy=gpu.energy,
            qol_percent=tile.qol_percent,
            qos_ok=tile.qos_ok,
        )
        with _LOCK:
            memo = _PRICED
            priced = memo.setdefault(key, priced)
            if len(memo) > PRICED_CAPACITY:
                del memo[next(iter(memo))]
        return priced

    def sweep_sizes(
        self, workload, sizes: list[float], spec: ApproxSpec = EXACT
    ) -> list[ComparisonResult]:
        """The Figure 5 sweep: one comparison per dataset size."""
        return [self.compare(workload, size, spec) for size in sizes]
