"""Structural crossbar simulator (S2-S8).

This subpackage models the APIM memory unit at the level of Figure 1(a):
crossbar blocks of VTEAM cells, row/column decoders, MAGIC NOR execution,
the configurable inter-block interconnect (barrel shifter), and the modified
sense amplifier with its MAJ mode.  On top of those primitives it implements
the paper's adders and multiplier as explicit micro-op sequences, and
:mod:`repro.crossbar.controller` drives a fabric through an assembly-level
command set (WR/RD/NOR/CPY/MAJ...) with replayable transcripts.

The structural model is bit-exact and cycle-exact but slow; it exists to
validate the fast functional models in :mod:`repro.core` (see
``tests/test_cross_validation.py``) and to serve device-level experiments.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "array": ("CrossbarArray",),
    "block": ("BlockedCrossbar",),
    "interconnect": ("ConfigurableInterconnect",),
    "magic": ("MagicEngine",),
    "sense_amp": ("SenseAmplifier",),
    "structural_adder": ("StructuralAdder",),
    "structural_multiplier": ("StructuralMultiplier",),
    "controller": ("MemoryController",),
})

__all__ = [
    "CrossbarArray",
    "BlockedCrossbar",
    "ConfigurableInterconnect",
    "MagicEngine",
    "SenseAmplifier",
    "StructuralAdder",
    "StructuralMultiplier",
    "MemoryController",
]
