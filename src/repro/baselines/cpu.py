"""A conventional-CPU baseline (breadth model).

The paper's quantitative comparison targets the R9 390 GPU, but its
argument is about *traditional cores* generally — "running data intensive
workloads ... on traditional cores results in high energy consumption and
slow processing speed".  This model prices a contemporary (2017-class)
desktop CPU on the same workload profiles, giving the comparison harness a
second conventional reference point:

- 4 cores x 8-wide SIMD x ~3.5 GHz ~ 0.1 TFLOP/s sustained;
- three-level cache behaviour approximated by the same trace-driven L1/L2
  measurement as the GPU model (capacities differ), over the same DDR4;
- the same TLB/page-walk degradation mechanism, with a smaller TLB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.dram import DRAMModel
from repro.baselines.gpu import (
    GPUEstimate,
    GPUModel,
    WorkloadProfile,
    seed_locality,
    tlb_miss_rate,
    walk_cost,
)
from repro.errors import ConfigurationError
from repro.units import PJ, US

__all__ = ["CPUConfig", "CPUModel"]


@dataclass(frozen=True)
class CPUConfig:
    """Skylake-class desktop CPU constants.

    - ``peak_flops``: 4 cores x 8-lane AVX2 x 2 ops x 3.5 GHz = 224
      GFLOP/s peak; we model sustained throughput via ``utilization``.
    - ``e_flop``: ~65 W package over 0.1 TFLOP/s sustained ~ 0.6 nJ/op; we
      charge 150 pJ dynamic and the rest as static power.
    - caches: 128 KB aggregate L1-D, 8 MB shared L3 (modelled as 'L2').
    """

    peak_flops: float = 224e9
    utilization: float = 0.45
    e_flop: float = 150 * PJ
    l1_bytes: int = 128 * 1024
    l2_bytes: int = 8 * 1024 * 1024
    line_bytes: int = 64
    e_l1: float = 15 * PJ
    e_l2: float = 60 * PJ
    static_power: float = 35.0
    dispatch_overhead: float = 5 * US
    tlb_entries: int = 1536
    page_bytes: int = 4096
    l2_latency: float = 12e-9
    dram_latency: float = 70e-9
    dram: DRAMModel = field(default_factory=DRAMModel)

    def __post_init__(self) -> None:
        if self.peak_flops <= 0 or not 0 < self.utilization <= 1:
            raise ConfigurationError("bad compute parameters")
        if min(self.e_flop, self.e_l1, self.e_l2, self.static_power) < 0:
            raise ConfigurationError("energies must be non-negative")


class CPUModel:
    """Prices a :class:`WorkloadProfile` on the CPU baseline.

    Structurally the same component model as
    :class:`~repro.baselines.gpu.GPUModel` — compute, measured cache
    locality, DDR4 traffic, address translation, static power — with CPU
    constants.  The two models deliberately share no code paths with APIM,
    so comparisons never leak modelling assumptions across the divide.
    """

    DEFAULT_TILE_ELEMENTS = 1 << 16

    def __init__(self) -> None:
        self.config = CPUConfig()

    #: The GPU model's lookup in the process-wide locality memo, which
    #: keys it by this model's config.
    measure_locality = GPUModel.measure_locality

    def estimate(
        self, profile: WorkloadProfile, dataset_bytes: float
    ) -> GPUEstimate:
        """Time/energy of the workload on the CPU baseline."""
        cfg = self.config
        elements = profile.elements(dataset_bytes)
        passes = profile.passes(elements)
        if passes < 1:
            raise ConfigurationError(f"pass count {passes} below 1")
        ops = elements * profile.flops_per_element * passes
        accesses = (
            elements
            * (profile.reads_per_element + profile.writes_per_element)
            * passes
        )
        frac_l1, frac_l2, frac_dram = self.measure_locality(profile)

        compute_time = ops / (cfg.peak_flops * cfg.utilization)
        dram_bytes = accesses * frac_dram * cfg.line_bytes
        mem_time = cfg.dram.transfer_time(dram_bytes, dataset_bytes)
        tlb_rate = tlb_miss_rate(cfg, profile, dataset_bytes)
        walk_time = accesses * tlb_rate * walk_cost(cfg, dataset_bytes)
        time = cfg.dispatch_overhead + max(compute_time, mem_time) + walk_time

        e_compute = ops * cfg.e_flop
        e_l1 = accesses * cfg.e_l1
        e_l2 = accesses * (frac_l2 + frac_dram) * cfg.e_l2
        e_dram = cfg.dram.transfer_energy(dram_bytes, dataset_bytes)
        e_static = cfg.static_power * time
        return GPUEstimate(
            time=time,
            energy=e_compute + e_l1 + e_l2 + e_dram + e_static,
            breakdown={
                "compute_time": compute_time,
                "mem_time": mem_time,
                "walk_time": walk_time,
                "e_compute": e_compute,
                "e_l1": e_l1,
                "e_l2": e_l2,
                "e_dram": e_dram,
                "e_static": e_static,
            },
        )


seed_locality(CPUConfig(), "cpu")
