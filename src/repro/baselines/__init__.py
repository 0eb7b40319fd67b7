"""Baseline models (S12-S13): the GPU the paper compares against, its memory
hierarchy, and the two prior in-memory adders of Figure 6.

- :mod:`repro.baselines.cache` — set-associative LRU cache and TLB
  simulators (trace-driven).
- :mod:`repro.baselines.dram` — DDR4 DIMM timing/energy (the paper preloads
  all data into 64 GB DDR4-2100 DIMMs).
- :mod:`repro.baselines.gpu` — the AMD Radeon R9 390-class analytic model
  fed by the cache/TLB simulators (multi2sim substitute).
- :mod:`repro.baselines.talati` — MAGIC serial adder of [Talati, TNANO'16].
- :mod:`repro.baselines.pc_adder` — CRS PC-Adder of [Siemon, JETCAS'15].
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("Cache", "CacheHierarchy", "TLB"),
    "cpu": ("CPUConfig", "CPUModel"),
    "dram": ("DRAMModel",),
    "gpu": ("GPUConfig", "GPUModel", "WorkloadProfile"),
    "talati": ("TalatiAdderModel",),
    "pc_adder": ("PCAdderModel",),
})

__all__ = [
    "Cache",
    "CPUConfig",
    "CPUModel",
    "CacheHierarchy",
    "TLB",
    "DRAMModel",
    "GPUConfig",
    "GPUModel",
    "WorkloadProfile",
    "TalatiAdderModel",
    "PCAdderModel",
]
