"""In-memory binarized similarity search (XNOR+popcount via MAGIC).

The subsystem has three layers: :mod:`~repro.search.codebook` packs
bit-vectors into the 64-bit words resident in crossbar blocks and
evaluates exact Hamming distances; :mod:`~repro.search.kernel` is the
MAGIC-NOR witness and per-word price of that evaluation; and
:mod:`~repro.search.index` ranks codewords with exact/approximate tiers
keyed to the relax-bits QoS ladder.  The `Similarity` workload
(:mod:`repro.workloads.similarity`) and the serving `/search` endpoint
build on these.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "codebook": ("WORD_BITS", "BinaryCodebook", "pack_bits", "popcount"),
    "index": ("SearchIndex", "TopK", "build_planted_index",
              "default_search_index", "distance_shift", "recall_at_k"),
    "kernel": ("MagicHammingKernel",),
})

__all__ = [
    "WORD_BITS",
    "BinaryCodebook",
    "MagicHammingKernel",
    "SearchIndex",
    "TopK",
    "build_planted_index",
    "default_search_index",
    "distance_shift",
    "pack_bits",
    "popcount",
    "recall_at_k",
]
