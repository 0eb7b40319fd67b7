"""Shared synthetic-input generators for the non-image workloads.

The paper: "for non-image processing applications inputs are generated
randomly".  These helpers centralise the generators the signal workloads
(and user notebooks) draw from, each returning plain integer arrays ready
for fixed-point scaling:

- :func:`uniform_samples` — 8-bit uniform random samples (FFT inputs);
- :func:`smooth_noisy_signal` — a band-limited base plus sensor noise
  (DWT inputs: wavelets exist for piecewise-smooth data);
- :func:`halton_indices` — sequence indices with a random offset
  (quasi-random generator inputs);
- :func:`power_of_two_length` — the length convention the transform
  kernels require;
- :func:`seeded_stream` — one independent deterministic random stream per
  (seed, key path), the randomness source every supervised/chaos code path
  draws from so reruns are reproducible bit for bit.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.errors import WorkloadError

__all__ = [
    "power_of_two_length",
    "uniform_samples",
    "smooth_noisy_signal",
    "halton_indices",
    "seeded_stream",
]


def seeded_stream(seed: int, *key: int | str) -> np.random.Generator:
    """An independent, deterministic generator for one (seed, key) path.

    Key parts (workload names, point keys, attempt indices) are folded into
    the seed material via CRC-32 — stable across processes and Python
    versions, unlike :func:`hash` — so every random decision made by the
    chaos injector, the backoff jitter and the campaign runner is a pure
    function of the user's seed and the decision's identity.  Two calls
    with the same arguments always yield identical streams.
    """
    if seed < 0:
        raise WorkloadError(f"stream seed must be non-negative: {seed}")
    words = [zlib.crc32(str(part).encode("utf-8")) for part in key]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


def power_of_two_length(elements: int) -> int:
    """The smallest power of two >= ``elements`` (and >= 8)."""
    if elements <= 0:
        raise WorkloadError(f"element count must be positive: {elements}")
    return 1 << max(3, (elements - 1).bit_length())


def uniform_samples(
    n: int, rng: np.random.Generator, bits: int = 8
) -> np.ndarray:
    """``n`` uniform unsigned samples of ``bits`` bits, as int64."""
    if n <= 0:
        raise WorkloadError(f"sample count must be positive: {n}")
    if not 1 <= bits <= 32:
        raise WorkloadError(f"bits {bits} outside [1, 32]")
    return rng.integers(0, 1 << bits, n).astype(np.int64)


def smooth_noisy_signal(n: int, rng: np.random.Generator) -> np.ndarray:
    """Four periods of a sinusoid of amplitude 100 around 100, with
    Gaussian sensor noise (sigma 12), clipped to [0, 255].

    The piecewise-smooth statistics wavelet transforms are designed for;
    returned as int64 sample values.
    """
    if n <= 0:
        raise WorkloadError(f"sample count must be positive: {n}")
    t = np.linspace(0.0, 2.0 * np.pi * 4.0, n)
    base = (np.sin(t) + 1.0) * 100.0
    noisy = base + rng.normal(0.0, 12.0, n)
    return np.clip(noisy, 0, 255).astype(np.int64)


def halton_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sequence indices ``offset .. offset + n`` with a random start in
    ``[1, 2**16]``.

    Low-discrepancy generators are evaluated from arbitrary stream
    positions; randomising the offset keeps QoL runs from always probing
    the (atypically regular) head of the sequence.
    """
    if n <= 0:
        raise WorkloadError(f"index count must be positive: {n}")
    start = int(rng.integers(1, (1 << 16) + 1))
    return np.arange(start, start + n, dtype=np.int64)
