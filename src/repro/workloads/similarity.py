"""Binarized Hamming similarity search as a first-class workload.

Each element is one packed 256-bit codeword resident in crossbar blocks;
the kernel evaluates every (query, codeword) Hamming distance by
XNOR+popcount — priced at the measured MAGIC per-word cost of
:class:`~repro.search.kernel.MagicHammingKernel` — and accumulates the
per-word popcounts through the engine's tree adder.

Approximation enters at the *comparator*, not the accumulator: distance
sums stay exact (a relaxed adder would scatter ±2^m error across every
distance and destroy recall outright), and the QoS rung instead drops
the low ``relax_bits // 4`` bits of each distance before ranking — a
shallower peripheral compare tree.  Output is the quantized distance
matrix, so the standard signal-QoL machinery sees a monotone error
curve, and :meth:`SimilarityWorkload.recall_at_k` scores the behavioural
metric retrieval cares about.

Datasets are planted: each of the 8 queries owns a 12-codeword cluster
at odd distances 1, 3, ..., 23 (cluster ids ascend with distance), so
exact top-10 sets are unambiguous and recall degrades cleanly down the
relax ladder instead of collapsing into background noise at ``dim/2``.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.approximation import EXACT
from repro.core.cost import Cost
from repro.core.engine import APIMEngine
from repro.search.codebook import BinaryCodebook, pack_bits, popcount
from repro.search.index import distance_shift, recall_at_k
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload

__all__ = ["SimilarityWorkload"]

#: Codeword width in bits (4 packed 64-bit words).
DIM = 256

#: Queries evaluated per dataset.
QUERIES = 8

#: Planted near-neighbours per query, at odd distances 1, 3, ..., 23.
NEIGHBOURS = 12


@functools.lru_cache(maxsize=1)
def _word_cost() -> Cost:
    """Measured MAGIC price of one 64-bit XNOR+popcount evaluation."""
    # Deferred: the kernel runs on the structural crossbar simulator,
    # which nothing else on a serving path loads.
    from repro.search.kernel import MagicHammingKernel

    return MagicHammingKernel().measure_word_cost()


@register_workload(category="extension")
class SimilarityWorkload(Workload):
    """Top-k Hamming search over a planted binary codebook."""

    name = "Similarity"
    kind = "signal"
    element_bytes = DIM // 8
    scale_bits = 8
    default_elements = 1 << 10

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        entries = max(2 * QUERIES * NEIGHBOURS, elements)
        bits = rng.integers(0, 2, (entries, DIM), dtype=np.uint8)
        queries = rng.integers(0, 2, (QUERIES, DIM), dtype=np.uint8)
        # Scatter each query's cluster across the codebook; sorting the
        # slots makes codeword id ascend with planted distance, so stable
        # tie-breaks under quantization preserve the exact ranking.
        slots = rng.permutation(entries)[: QUERIES * NEIGHBOURS]
        slots = np.sort(slots).reshape(QUERIES, NEIGHBOURS)
        slots = np.sort(slots, axis=1)
        for q in range(QUERIES):
            for j in range(NEIGHBOURS):
                member = queries[q].copy()
                flips = rng.choice(DIM, size=2 * j + 1, replace=False)
                member[flips] ^= 1
                bits[slots[q, j]] = member
        return WorkloadData(
            arrays={"codebook": bits, "queries": queries, "planted": slots},
            elements=entries,
        )

    # -- distance evaluation ----------------------------------------------

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        codebook = BinaryCodebook.from_bits(data.array("codebook"))
        query_words = pack_bits(data.array("queries"))
        # (queries, entries, words): per-word popcounts of the XOR planes,
        # the quantity the MAGIC kernel produces per resident word.
        per_word = popcount(
            codebook.words[None, :, :] ^ query_words[:, None, :]
        )
        comparisons = int(np.prod(per_word.shape))
        engine.ledger.charge("hamming", _word_cost().scaled(comparisons))
        distances = engine.sum_many(
            [per_word[:, :, w] for w in range(codebook.words_per_code)],
            width=16,
            spec=EXACT,
        )
        shift = distance_shift(engine.spec.relax_bits)
        if shift:
            distances = engine.shift_left(
                engine.shift_right(distances, shift), shift
            )
        return distances

    def reference(self, data: WorkloadData) -> np.ndarray:
        codebook = BinaryCodebook.from_bits(data.array("codebook"))
        queries = data.array("queries")
        return np.stack(
            [codebook.reference_distances(q) for q in queries]
        )

    # -- retrieval-level quality ------------------------------------------

    @staticmethod
    def top_k_ids(distances: np.ndarray, k: int = 10) -> np.ndarray:
        """Per-query top-k codeword ids, stable under ties."""
        distances = np.asarray(distances)
        return np.argsort(distances, axis=1, kind="stable")[:, :k]

    def recall_at_k(
        self,
        reference_distances: np.ndarray,
        output_distances: np.ndarray,
        k: int = 10,
    ) -> float:
        """Mean recall@k of the approximate ranking vs the exact one."""
        exact = self.top_k_ids(reference_distances, k)
        approx = self.top_k_ids(output_distances, k)
        return float(
            np.mean(
                [recall_at_k(exact[q], approx[q]) for q in range(len(exact))]
            )
        )

    # -- GPU profile -------------------------------------------------------

    def profile(self) -> WorkloadProfile:
        words = DIM // 64
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            # Per codeword per query: `words` XNOR+popcount word ops and
            # `words` distance accumulations.
            flops_per_element=2.0 * QUERIES * words,
            reads_per_element=float(QUERIES * words),
            writes_per_element=float(QUERIES),
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        out_base = 1 << 28
        for i in range(min(elements, 1 << 16)):
            for w in range(DIM // 64):
                yield (i * (DIM // 64) + w) * 8, False
            yield out_base + i * 8, True
