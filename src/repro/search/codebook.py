"""Packed binary codebooks for Hamming-distance similarity search.

Bit-packing layout
------------------
A codeword is a ``dim``-bit vector.  :func:`pack_bits` packs it MSB-first
with :func:`numpy.packbits` (bit ``i`` of the vector lands in bit
``7 - (i % 8)`` of byte ``i // 8``), zero-pads the byte string to a
multiple of 8 bytes, and reinterprets it as native-endian ``uint64``
words.  Padding bits are zero in every codeword *and* every query, so
they cancel under XOR and never contribute to a distance.

Distances are evaluated word-wise: ``popcount(a ^ b)`` summed over the
words of a code.  (The crossbar computes the complement — XNOR match
bits — but ``matches = dim - distance`` makes the two views equivalent;
we keep distances, the quantity top-k sorts on.)  The popcount uses a
256-entry byte lookup table, which is exact and portable across numpy
versions; :meth:`BinaryCodebook.reference_distances` recomputes the same
quantity through :func:`numpy.unpackbits` as an independent oracle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchError

__all__ = ["WORD_BITS", "BinaryCodebook", "pack_bits", "popcount"]

#: Width of one packed machine word (one crossbar-resident operand).
WORD_BITS = 64

#: Per-byte popcounts; indexing by a uint8 view popcounts any word array.
_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack ``(n, dim)`` 0/1 vectors into ``(n, ceil(dim/64))`` uint64 words."""
    bits = np.asarray(bits)
    if bits.ndim == 1:
        bits = bits[None, :]
    if bits.ndim != 2 or bits.shape[1] == 0:
        raise SearchError(
            f"bit-vectors must be a non-empty 2-D (n, dim) array, "
            f"got shape {bits.shape}"
        )
    if bits.dtype == bool:
        bits = bits.astype(np.uint8)
    elif not ((bits == 0) | (bits == 1)).all():
        raise SearchError("bit-vectors must contain only 0 and 1")
    packed = np.packbits(bits.astype(np.uint8), axis=1)
    pad = (-packed.shape[1]) % (WORD_BITS // 8)
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return packed.view(np.uint64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-word popcounts of a uint64 array (same shape, int64)."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    per_byte = _POPCOUNT[words.view(np.uint8)]
    return per_byte.reshape(*words.shape, WORD_BITS // 8).sum(axis=-1)


class BinaryCodebook:
    """``entries`` packed bit-vectors of ``dim`` bits resident as words.

    The words array is exactly what the serving pool writes into crossbar
    data blocks: row ``i`` holds codeword ``i``, one 64-bit operand per
    block column group (see :class:`~repro.search.kernel.MagicHammingKernel`
    for the per-word in-memory evaluation these distances extrapolate).
    """

    def __init__(self, words: np.ndarray, dim: int) -> None:
        words = np.ascontiguousarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[0] == 0:
            raise SearchError(
                f"codebook needs a non-empty (entries, words) array, "
                f"got shape {words.shape}"
            )
        if dim <= 0 or dim > words.shape[1] * WORD_BITS:
            raise SearchError(
                f"dim {dim} does not fit {words.shape[1]} words of "
                f"{WORD_BITS} bits"
            )
        self.words = words
        self.dim = int(dim)

    @classmethod
    def from_bits(cls, bits: np.ndarray) -> "BinaryCodebook":
        """Build from an ``(entries, dim)`` 0/1 array."""
        bits = np.asarray(bits)
        words = pack_bits(bits)
        return cls(words, bits.shape[-1])

    @property
    def entries(self) -> int:
        """Number of codewords."""
        return self.words.shape[0]

    @property
    def words_per_code(self) -> int:
        """64-bit words per codeword (including zero padding)."""
        return self.words.shape[1]

    def pack_query(self, query_bits: np.ndarray) -> np.ndarray:
        """Pack one query vector; validates its dimensionality."""
        query = np.asarray(query_bits)
        if query.ndim != 1:
            raise SearchError(
                f"query must be a 1-D bit-vector, got shape {query.shape}"
            )
        if query.shape[0] != self.dim:
            raise SearchError(
                f"query dim {query.shape[0]} != codebook dim {self.dim}"
            )
        return pack_bits(query)[0]

    def distances(self, query_bits: np.ndarray) -> np.ndarray:
        """Hamming distance of the query to every codeword (int64)."""
        query_words = self.pack_query(query_bits)
        return popcount(self.words ^ query_words[None, :]).sum(axis=1)

    def reference_distances(self, query_bits: np.ndarray) -> np.ndarray:
        """The same distances through :func:`numpy.unpackbits` — the
        independent oracle the property tests pin bit-identity against."""
        query = np.asarray(query_bits)
        if query.ndim != 1 or query.shape[0] != self.dim:
            raise SearchError(
                f"query shape {query.shape} != ({self.dim},)"
            )
        stored = np.unpackbits(self.words.view(np.uint8), axis=1)
        stored = stored[:, : self.dim]
        return (stored != query[None, :].astype(np.uint8)).sum(
            axis=1, dtype=np.int64
        )
