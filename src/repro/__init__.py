"""APIM: Ultra-Efficient Processing In-Memory for Data Intensive Applications.

A full-system Python reproduction of Imani, Gupta and Rosing's DAC 2017
paper: an RRAM crossbar architecture computing addition and multiplication
in memory with MAGIC NOR, a configurable blocked-memory interconnect, a
majority-function sense amplifier, and two runtime-tunable approximation
mechanisms.

Quick start::

    import numpy as np
    from repro import APIMEngine, ApproxSpec

    engine = APIMEngine(spec=ApproxSpec.last_stage(16))
    products = engine.mul(np.arange(1000), np.arange(1000))
    print(engine.total_cost.cycles, "lane-cycles")

Package map (see DESIGN.md for the full inventory):

- :mod:`repro.core` — functional models, cost accounting, configuration.
- :mod:`repro.device` / :mod:`repro.crossbar` — VTEAM devices and the
  structural (micro-op level) crossbar simulator.
- :mod:`repro.baselines` — the GPU model (with cache/TLB/DRAM simulators)
  and the two prior in-memory adders.
- :mod:`repro.workloads` — the paper's six OpenCL applications.
- :mod:`repro.quality` / :mod:`repro.runtime` — QoS metrics, executor,
  APIM-vs-GPU comparison, adaptive tuner.
- :mod:`repro.analysis` — one driver per paper table/figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(__name__, {
    "core": ("APIMAdder", "APIMConfig", "APIMEngine", "APIMMultiplier",
             "ApproxSpec", "Cost", "EXACT", "default_config"),
    "quality": ("QoSPolicy",),
    "runtime": ("AdaptiveTuner", "APIMExecutor", "ComparisonHarness"),
})

__all__ = [
    "APIMConfig",
    "default_config",
    "APIMEngine",
    "APIMMultiplier",
    "APIMAdder",
    "ApproxSpec",
    "EXACT",
    "Cost",
    "QoSPolicy",
    "APIMExecutor",
    "ComparisonHarness",
    "AdaptiveTuner",
    "__version__",
]
