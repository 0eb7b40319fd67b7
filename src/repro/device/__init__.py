"""Memristor device substrate (S1).

This subpackage models the RRAM bit cell used by APIM:

- :mod:`repro.device.vteam` — the VTEAM voltage-controlled memristor model
  (Kvatinsky et al., TCAS-II 2015), the same device model the paper uses for
  its Virtuoso simulations, with RON = 10 kOhm and ROFF = 10 MOhm.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "vteam": ("VTEAMModel", "VTEAMParameters", "default_parameters"),
    "variation": ("FaultInjector", "VariationModel", "nor_margin"),
    "endurance": ("EnduranceModel", "WearTracker", "RotatingAllocator"),
})

__all__ = [
    "VTEAMModel",
    "VTEAMParameters",
    "default_parameters",
    "VariationModel",
    "FaultInjector",
    "nor_margin",
    "EnduranceModel",
    "WearTracker",
    "RotatingAllocator",
]
