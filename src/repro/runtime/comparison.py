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
from repro.observability.instruments import COMPARISON_TILE_MISSES
from repro.observability.tracing import trace_event
from repro.runtime.executor import APIMExecutor, ExecutionResult

__all__ = ["ComparisonHarness", "ComparisonResult"]

#: Process-wide APIM tile memo: ``(config, workload name, spec, tile
#: elements, rng seed) -> ExecutionResult``.  A tile execution is a pure
#: function of its key, so every harness in the process (every in-process
#: shard) reuses one execution per key; the stored result's arrays are
#: read-only.
_TILE_MEMO: dict[tuple, ExecutionResult] = {}

#: Priced points each harness keeps, oldest evicted first.  Dataset sizes
#: come from clients, so the memo is bounded however many a server sees.
PRICED_CAPACITY = 4096


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
        #: Per-harness front of the process-wide :data:`_TILE_MEMO`, keyed
        #: ``(workload name, spec)``: the warm path is one dict lookup.
        self._tile_cache: dict[tuple[str, ApproxSpec], ExecutionResult] = {}
        #: Priced points in front of the tile cache, keyed ``(workload
        #: name, spec, dataset_bytes)``: a point is a pure function of its
        #: key, so a warm :meth:`compare` is one dict lookup.  At most
        #: :data:`PRICED_CAPACITY` entries, in insertion order.
        self._priced: dict[tuple, ComparisonResult] = {}
        self._cpu = None  # lazy CPUModel, built on first cpu_fallback
        # Guards the lazy CPU model, so one harness shared across threads
        # builds it once, and the priced memo's inserts and evictions.
        # Lookups need no lock: ``get`` and ``setdefault`` are atomic, and
        # racing misses compute identical results (seeded RNG), so the
        # first write wins.
        self._lock = threading.Lock()

    # -- APIM side ----------------------------------------------------------

    def _tile_result(self, workload, spec: ApproxSpec) -> ExecutionResult:
        key = (workload.name, spec)
        cached = self._tile_cache.get(key)
        if cached is not None:
            return cached
        start = time.perf_counter()
        shared_key = (
            self.config, workload.name, spec, self.tile_elements, self.rng_seed
        )
        result = _TILE_MEMO.get(shared_key)
        source = "shared"
        if result is None:
            source = "executed"
            result = self.executor.run(
                workload,
                spec=spec,
                elements=self.tile_elements,
                rng=np.random.default_rng(self.rng_seed),
            )
            # Every harness in the process reads this one result.
            result.output.flags.writeable = False
            result.reference.flags.writeable = False
            result = _TILE_MEMO.setdefault(shared_key, result)
        seconds = time.perf_counter() - start
        COMPARISON_TILE_MISSES.inc(source=source)
        trace_event(
            "comparison", "tile", workload.name,
            masked_bits=spec.masked_bits, relax_bits=spec.relax_bits,
            tile=self.tile_elements, source=source, seconds=round(seconds, 6),
        )
        return self._tile_cache.setdefault(key, result)

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

        with self._lock:
            if self._cpu is None:
                self._cpu = CPUModel()
        profile = workload.profile()
        cpu = self._cpu.estimate(profile, dataset_bytes)
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
        key = (workload.name, spec, dataset_bytes)
        priced = self._priced.get(key)
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
        memo = self._priced
        with self._lock:  # an eviction's iterator must not race an insert
            priced = memo.setdefault(key, priced)
            if len(memo) > PRICED_CAPACITY:
                del memo[next(iter(memo))]
        return priced

    def sweep_sizes(
        self, workload, sizes: list[float], spec: ApproxSpec = EXACT
    ) -> list[ComparisonResult]:
        """The Figure 5 sweep: one comparison per dataset size."""
        return [self.compare(workload, size, spec) for size in sizes]
