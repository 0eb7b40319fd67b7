"""APIM-vs-GPU comparison at arbitrary dataset sizes (paper Section 4.2).

The paper sweeps dataset sizes up to 1 GB.  APIM's per-element cost is
constant (the dataset is resident; computation is local to each block
pair), so the harness measures APIM on a tile and extrapolates the cost
counters linearly — with a pass correction for workloads whose sweep count
depends on the dataset size (FFT's ``log2 n``).  The GPU side comes from
the analytic model fed by the trace-driven cache simulator.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, fields
from importlib import resources
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.gpu import GPUEstimate, GPUModel
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.errors import ConfigurationError, ReproError, TransientError
from repro.observability.instruments import record_cold_work
from repro.observability.tracing import trace_event
from repro.runtime.executor import APIMExecutor

if TYPE_CHECKING:
    from repro.runtime.campaign import CampaignPoint

__all__ = [
    "ComparisonHarness",
    "ComparisonResult",
    "PricedEntry",
    "TileCost",
    "TileFailure",
]

#: The pricing memos, process-wide, so every harness in the process (every
#: in-process shard) reuses one result per key; the third layer is
#: ``repro.baselines.gpu._LOCALITY_MEMO``.  Keys start with the harness's
#: interned identity: priced points ``(identity, workload name, spec,
#: dataset_bytes)``, each kept as a :class:`PricedEntry`, at most
#: :data:`PRICED_CAPACITY`, oldest evicted first (sizes come from
#: clients); tile executions ``(identity, workload name, spec)``, each kept
#: as the :class:`TileCost` pricing reads, not the executed arrays, or as
#: the :class:`TileFailure` it raised.  Lookups take no lock: racing misses
#: compute identical results (seeded RNG) and the first ``setdefault``
#: wins.
_PRICED: dict[tuple, PricedEntry] = {}
_TILE_MEMO: dict[tuple, TileCost | TileFailure] = {}
PRICED_CAPACITY = 4096

#: ``(APIM config, GPU config, tile elements, rng seed) -> small int``,
#: interned once per harness so a lookup never rehashes the frozen configs.
#: Never emptied, so an int never names two identities.
_IDENTITIES: dict[tuple, int] = {}
#: Guards interning, and the priced memo's inserts and evictions.
_LOCK = threading.Lock()

#: Package data: the tile of every registered workload at every relax level
#: that executes, for the APIM config, tile and seed recorded beside them
#: (the serving defaults).  Pinned against the executor, and regenerated,
#: by tests/test_tile_table.py.
TILE_TABLE = "tile_table.json"


def seed_tiles(
    identity: int, config: APIMConfig, tile_elements: int, rng_seed: int
) -> None:
    """Pre-fill the tile memo with the shipped table's entries under
    ``identity`` when the table was generated for this APIM config, tile
    and seed; otherwise leave the memo alone, so every key executes.  The
    GPU config does not enter a tile's cost.

    The table's ``entries`` come last, so the header before them parses
    alone and rules an identity out before the entries are decoded."""
    text = resources.files(__package__).joinpath(TILE_TABLE).read_text()
    head, _, _ = text.partition('"entries"')
    header = json.loads(head.rstrip(", \n") + "}")
    recorded = {f.name: getattr(config, f.name) for f in fields(config)}
    if (header["tile"], header["seed"], header["config"]) != (
        tile_elements, rng_seed, recorded
    ):
        return
    for name, levels in json.loads(text)["entries"].items():
        for relax, (elements, *cost, qol, qos) in levels.items():
            key = (identity, name, ApproxSpec(relax_bits=int(relax)))
            _TILE_MEMO.setdefault(
                key, TileCost(elements, Cost(*cost), qol, qos)
            )


@dataclass(frozen=True, slots=True)
class TileCost:
    """What pricing reads of one executed tile: its element count, its
    measured cost and its quality verdict.  The tile's output and
    reference arrays are dropped once it is scored."""

    elements: int
    cost: Cost
    qol_percent: float
    qos_ok: bool


@dataclass(frozen=True, slots=True)
class TileFailure:
    """The :class:`~repro.errors.ReproError` one tile execution raised,
    kept so every later lookup of the key raises it again (same type and
    message) instead of executing again."""

    error: type[ReproError]
    message: str


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


@dataclass(slots=True)
class PricedEntry:
    """One priced-memo entry: the point's comparison, and the clean
    :class:`~repro.runtime.campaign.CampaignPoint` that
    :func:`~repro.runtime.campaign.run_point` builds on the entry's first
    hit and hands to every later one."""

    comparison: ComparisonResult
    point: CampaignPoint | None = None


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
            interned = _IDENTITIES.get(identity)
            if interned is None:
                interned = _IDENTITIES[identity] = len(_IDENTITIES)
                seed_tiles(interned, self.config, tile_elements, rng_seed)
            self._identity = interned

    @property
    def _tile_cache(self) -> dict[tuple, TileCost | TileFailure]:
        """The process-wide tile memo, read-only.  Its one reader is
        ``perfbench/spans.py::cold_work``, which compares its length
        before and after a serving window."""
        return _TILE_MEMO

    # -- APIM side ----------------------------------------------------------

    def _tile_result(self, workload, spec: ApproxSpec) -> TileCost:
        key = (self._identity, workload.name, spec)
        tile = _TILE_MEMO.get(key)
        if tile is None:
            tile = _TILE_MEMO.setdefault(key, self._execute(workload, spec))
        if type(tile) is TileFailure:
            raise tile.error(tile.message)
        return tile

    def _execute(self, workload, spec: ApproxSpec) -> TileCost | TileFailure:
        """Execute one tile, counted and traced as ``executed`` cold work
        whether it prices or raises.  A transient error is expected to
        clear on re-execution, so it propagates unkept."""
        start = time.perf_counter()
        try:
            result = self.executor.run(
                workload,
                spec=spec,
                elements=self.tile_elements,
                rng=np.random.default_rng(self.rng_seed),
            )
            tile = TileCost(
                result.elements, result.cost, result.qol_percent,
                result.qos_ok,
            )
        except TransientError:
            raise
        except ReproError as exc:
            tile = TileFailure(type(exc), str(exc))
        seconds = time.perf_counter() - start
        record_cold_work("executed", seconds)
        trace_event(
            "comparison", "tile", workload.name,
            masked_bits=spec.masked_bits, relax_bits=spec.relax_bits,
            tile=self.tile_elements, source="executed",
            seconds=round(seconds, 6),
        )
        return tile

    def apim_estimate(
        self, workload, dataset_bytes: float, spec: ApproxSpec = EXACT
    ) -> tuple[float, float, TileCost]:
        """(time, energy, tile cost) of APIM at a dataset size.

        Cost counters measured on the tile scale by element count and by
        the pass-count ratio (FFT does more sweeps over bigger datasets);
        time additionally divides by the larger lane allocation of the
        resident dataset.
        """
        tile = self._tile_result(workload, spec)
        time, energy = self._scaled(tile, workload.profile(), dataset_bytes)
        return time, energy, tile

    def _scaled(
        self, tile: TileCost, profile, dataset_bytes: float
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

    def priced(
        self, workload, dataset_bytes: float, spec: ApproxSpec
    ) -> PricedEntry | None:
        """The priced memo's entry for one point, or None when it is not
        priced yet; prices nothing and records nothing."""
        return _PRICED.get((self._identity, workload.name, spec, dataset_bytes))

    def compare(
        self, workload, dataset_bytes: float, spec: ApproxSpec = EXACT
    ) -> ComparisonResult:
        """Full APIM-vs-GPU comparison at one point."""
        key = (self._identity, workload.name, spec, dataset_bytes)
        entry = _PRICED.get(key)
        if entry is not None:
            return entry.comparison
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
            entry = memo.setdefault(key, PricedEntry(priced))
            if len(memo) > PRICED_CAPACITY:
                del memo[next(iter(memo))]
        return entry.comparison

    def sweep_sizes(
        self, workload, sizes: list[float]
    ) -> list[ComparisonResult]:
        """The Figure 5 sweep: one exact comparison per dataset size."""
        return [self.compare(workload, size) for size in sizes]
