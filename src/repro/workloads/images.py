"""Synthetic natural-image generator (Caltech-101 substitute).

The paper draws test images from the Caltech-101 library, which is not
redistributable here.  QoL metrics (PSNR, relative error) depend on image
*statistics* rather than semantics, so we synthesise images that match the
relevant statistics of natural photographs:

- a ``1/f`` amplitude spectrum (the hallmark of natural-image statistics),
  realised by shaping white noise in the frequency domain;
- piecewise-smooth objects (random ellipses) that create the strong edges
  edge-detection kernels exist for;
- fine-grain texture noise.

Images are 8-bit grayscale, like the luminance channel the OpenCL kernels
process.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError

__all__ = ["synthetic_image", "image_shape_for", "percentiles"]


def image_shape_for(elements: int) -> tuple[int, int]:
    """Nearly-square (rows, cols) with ``rows * cols >= elements``."""
    if elements <= 0:
        raise WorkloadError(f"element count must be positive: {elements}")
    side = int(np.ceil(np.sqrt(elements)))
    rows = side
    cols = int(np.ceil(elements / side))
    return rows, max(cols, 1)


def percentiles(values: np.ndarray, q) -> np.ndarray:
    """``np.percentile(values, q)`` (method ``linear``, ``q`` a sequence in
    ``[0, 100]``), bit for bit, without the ``numpy.ma`` import that
    ``np.percentile`` makes.

    The same steps as numpy: virtual index ``(n - 1) * q / 100``, the
    same partition of a flat copy, and numpy's ``_lerp``, which counts
    back from the upper neighbour once the weight reaches 0.5.
    """
    ordered = np.ravel(values).copy()
    last = ordered.size - 1
    virtual = last * (np.asarray(q, dtype=np.float64) / 100)
    lower = np.floor(virtual)
    upper = lower + 1
    lower[virtual >= last] = upper[virtual >= last] = -1
    lower, upper = lower.astype(np.intp), upper.astype(np.intp)
    # np.unique's kth, without np.unique (which imports numpy.ma too).
    ordered.partition(sorted({0, -1, *lower.tolist(), *upper.tolist()}))
    a, b, t = ordered[lower], ordered[upper], virtual - lower
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def _pink_noise(shape: tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """White noise shaped to a 1/f amplitude spectrum, zero-mean, unit-ish."""
    rows, cols = shape
    noise = rng.standard_normal(shape)
    spectrum = np.fft.rfft2(noise)
    fy = np.fft.fftfreq(rows)[:, None]
    fx = np.fft.rfftfreq(cols)[None, :]
    radius = np.sqrt(fy * fy + fx * fx)
    radius[0, 0] = 1.0  # keep DC finite
    shaped = spectrum / radius
    image = np.fft.irfft2(shaped, s=shape)
    std = image.std() or 1.0
    return image / std


def _add_objects(
    image: np.ndarray, rng: np.random.Generator, count: int
) -> None:
    """Stamp random ellipses of random brightness (strong edges)."""
    rows, cols = image.shape
    yy, xx = np.mgrid[0:rows, 0:cols]
    for _ in range(count):
        cy, cx = rng.integers(0, rows), rng.integers(0, cols)
        ry = rng.integers(max(2, rows // 16), max(3, rows // 4))
        rx = rng.integers(max(2, cols // 16), max(3, cols // 4))
        level = rng.uniform(-2.0, 2.0)
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        image[mask] += level


def synthetic_image(
    shape: tuple[int, int], rng: np.random.Generator
) -> np.ndarray:
    """An 8-bit grayscale image with natural-image statistics: six ellipse
    objects stamped onto a 1/f base.

    Parameters
    ----------
    shape:
        (rows, cols); both must be at least 8.
    rng:
        Source of randomness (pass a seeded generator for reproducibility).
    """
    rows, cols = shape
    if rows < 8 or cols < 8:
        raise WorkloadError(f"image shape {shape} too small (min 8x8)")
    base = _pink_noise(shape, rng)
    _add_objects(base, rng, 6)
    base += 0.15 * rng.standard_normal(shape)  # sensor-grain texture
    lo, hi = percentiles(base, [1, 99])
    if hi <= lo:
        hi = lo + 1.0
    scaled = np.clip((base - lo) / (hi - lo), 0.0, 1.0)
    return (scaled * 255.0).astype(np.uint8)
