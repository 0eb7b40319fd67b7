"""Top-k retrieval over a binary codebook, with approximate tiers.

Exact/approximate tiers ride the existing relax-bits QoS ladder
(:func:`~repro.quality.qos.relax_ladder`): at ``relax_bits = 0``
distances are exact and top-k matches the numpy brute-force reference
bit-for-bit.  Positive relax drops the low ``relax_bits // 4`` bits of
every distance before ranking — the peripheral comparator tree compares
fewer bit-planes, the in-memory analogue of the APIM adder dropping
carry chains — so near-ties collapse and recall degrades monotonically
down the ladder while the sort gets shallower.

Ties (exact or quantization-induced) always break toward the lower
codeword index: ranking is a stable argsort over distance, so results
are deterministic and replay-identical — the property the serving
journal's exactly-once contract needs.

``recall@k`` is the fraction of the exact top-k ids an approximate
top-k retains (order-insensitive, |approx ∩ exact| / k).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SearchError
from repro.search.codebook import BinaryCodebook

__all__ = [
    "SearchIndex",
    "TopK",
    "build_planted_index",
    "default_search_index",
    "distance_shift",
    "recall_at_k",
]

#: Bits flipped in each planted query of :func:`build_planted_index`.
PLANTED_FLIP_BITS = 6
#: Shape of the serving codebook: entries, and bits per entry.
CODEBOOK_ENTRIES = 512
CODEBOOK_DIM = 256


def distance_shift(relax_bits: int) -> int:
    """Distance bits dropped at a QoS rung: one per 4 relax bits."""
    if relax_bits < 0:
        raise SearchError(f"relax_bits must be non-negative: {relax_bits}")
    return int(relax_bits) // 4


def recall_at_k(exact_ids: np.ndarray, approx_ids: np.ndarray) -> float:
    """|approx ∩ exact| / k, the order-insensitive retrieval quality."""
    exact = np.asarray(exact_ids).ravel()
    approx = np.asarray(approx_ids).ravel()
    if exact.size == 0:
        raise SearchError("recall@k needs a non-empty exact id set")
    return float(np.isin(approx, exact).sum() / exact.size)


@dataclass(frozen=True)
class TopK:
    """One retrieval: codeword ids, their (possibly quantized) distances,
    and the quantization shift that produced the ranking."""

    ids: tuple[int, ...]
    distances: tuple[int, ...]
    shift: int

    def to_dict(self) -> dict:
        return {
            "ids": list(self.ids),
            "distances": list(self.distances),
            "shift": self.shift,
        }


class SearchIndex:
    """A queryable codebook: distances + tiered stable top-k."""

    def __init__(self, codebook: BinaryCodebook) -> None:
        self.codebook = codebook

    @property
    def entries(self) -> int:
        return self.codebook.entries

    @property
    def dim(self) -> int:
        return self.codebook.dim

    def validate_k(self, k: int) -> int:
        k = int(k)
        if not 1 <= k <= self.entries:
            raise SearchError(
                f"k must be in [1, {self.entries}], got {k}"
            )
        return k

    def quantized_distances(
        self, query_bits: np.ndarray, relax_bits: int = 0
    ) -> np.ndarray:
        """Distances with the rung's low bits dropped (exact at rung 0)."""
        shift = distance_shift(relax_bits)
        distances = self.codebook.distances(query_bits)
        return (distances >> shift) << shift

    def top_k(
        self, query_bits: np.ndarray, k: int, relax_bits: int = 0
    ) -> TopK:
        """The ``k`` nearest codewords under the rung's quantization.

        Stable: equal (quantized) distances rank by ascending codeword
        index, so the result is deterministic under ties.
        """
        k = self.validate_k(k)
        shift = distance_shift(relax_bits)
        quantized = self.quantized_distances(query_bits, relax_bits)
        order = np.argsort(quantized, kind="stable")[:k]
        return TopK(
            ids=tuple(int(i) for i in order),
            distances=tuple(int(d) for d in quantized[order]),
            shift=shift,
        )


def build_planted_index(
    entries: int = 256,
    dim: int = 256,
    queries: int = 16,
    seed: int = 2017,
) -> tuple[SearchIndex, np.ndarray, np.ndarray]:
    """A seeded index with planted near-neighbours.

    Each query is a codeword with :data:`PLANTED_FLIP_BITS` random bits
    flipped, so its true nearest neighbour sits that close while
    the random background concentrates around ``dim / 2`` — the
    separation that keeps recall@k high through the first relax rungs
    and makes degradation curves well-behaved in tests and benches.

    Returns ``(index, query_bits, planted_ids)`` where ``query_bits`` is
    ``(queries, dim)`` and ``planted_ids[i]`` is the codeword query ``i``
    was perturbed from.
    """
    if entries < 2 or dim < 8:
        raise SearchError(
            f"planted index needs entries >= 2 and dim >= 8, "
            f"got {entries}, {dim}"
        )
    if PLANTED_FLIP_BITS >= dim // 2:
        raise SearchError(
            f"dim must exceed {2 * PLANTED_FLIP_BITS + 1}, got {dim}"
        )
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (entries, dim), dtype=np.uint8)
    planted = rng.integers(0, entries, queries)
    query_bits = bits[planted].copy()
    for i in range(queries):
        flips = rng.choice(dim, size=PLANTED_FLIP_BITS, replace=False)
        query_bits[i, flips] ^= 1
    return SearchIndex(BinaryCodebook.from_bits(bits)), query_bits, planted


def default_search_index(seed: int = 2017) -> SearchIndex:
    """The serving tier's codebook: a seeded random index of
    :data:`CODEBOOK_ENTRIES` entries of :data:`CODEBOOK_DIM` bits.

    Deterministic in ``seed`` alone, so every shard, every restart, and
    every client that knows the pool's seed reconstructs the *same*
    codebook — which is what lets the `/search` HTTP test compare server
    results against a client-side numpy brute force, and what keeps
    journal replays bit-identical across process lives.
    """
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (CODEBOOK_ENTRIES, CODEBOOK_DIM), dtype=np.uint8)
    return SearchIndex(BinaryCodebook.from_bits(bits))
