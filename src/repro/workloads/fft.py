"""Fixed-point radix-2 FFT (paper workload #3).

An iterative decimation-in-time FFT over Q-format integers, the way the
OpenCL sample maps onto APIM's integer datapath:

- twiddle factors quantised to Q14 (``round(cos * 2^14)``);
- one arithmetic right shift per stage keeps magnitudes bounded
  (standard block-floating fixed-point FFT scaling);
- every butterfly runs four multiplications and six additions through the
  engine, vectorised per stage.

The golden reference executes the *same* quantised algorithm with exact
arithmetic — QoL then isolates the APIM approximation error from the
(shared) fixed-point quantisation, matching the paper's "golden output
from calculating exactly".

FFT is the paper's strongest Table 1 row: its ``log2 n`` passes multiply
the data movement the GPU pays, while APIM computes in place.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload
from repro.workloads.datagen import power_of_two_length, uniform_samples

__all__ = ["FFTWorkload"]

#: Twiddle quantisation (Q14).
TWIDDLE_BITS = 14


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    indices = np.arange(n)
    reversed_indices = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        reversed_indices |= ((indices >> b) & 1) << (bits - 1 - b)
    return reversed_indices


@register_workload
class FFTWorkload(Workload):
    """Radix-2 fixed-point FFT over synthetic complex signals."""

    name = "FFT"
    kind = "signal"
    element_bytes = 8  # complex sample: two 4-byte fixed-point words
    default_elements = 1 << 14

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        n = power_of_two_length(elements)
        # 8-bit samples (like audio/imaging front-ends), fixed-point scaled.
        re = uniform_samples(n, rng) << self.scale_bits
        im = uniform_samples(n, rng) << self.scale_bits
        return WorkloadData(arrays={"re": re, "im": im}, elements=n)

    # -- the kernel, twice: engine-routed and exact ------------------------

    def _twiddles(self, half: int, n: int) -> tuple[np.ndarray, np.ndarray]:
        k = np.arange(half)
        angle = -2.0 * np.pi * k / n
        scale = 1 << TWIDDLE_BITS
        return (
            np.round(np.cos(angle) * scale).astype(np.int64),
            np.round(np.sin(angle) * scale).astype(np.int64),
        )

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        re = data.array("re").copy()
        im = data.array("im").copy()
        n = re.size
        if n & (n - 1):
            raise WorkloadError(f"FFT length {n} is not a power of two")
        order = _bit_reverse_indices(n)
        re, im = re[order], im[order]
        half = 1
        while half < n:
            w_re, w_im = self._twiddles(half, 2 * half)
            groups = n // (2 * half)
            idx = (np.arange(groups)[:, None] * 2 * half + np.arange(half)).ravel()
            top, bot = idx, idx + half
            tw_re = np.tile(w_re, groups)
            tw_im = np.tile(w_im, groups)
            # t = w * b (4 muls, 2 adds); combine with a at *product*
            # scale and rescale once per stage (>> TWIDDLE_BITS + 1, the
            # +1 being the standard overflow-guard stage scaling).
            br, bi = re[bot], im[bot]
            t_re = engine.sub(
                engine.mul(br, tw_re), engine.mul(bi, tw_im), width=52
            )
            t_im = engine.add(
                engine.mul(br, tw_im), engine.mul(bi, tw_re), width=52
            )
            a_re = engine.shift_left(re[top], TWIDDLE_BITS)
            a_im = engine.shift_left(im[top], TWIDDLE_BITS)
            down = TWIDDLE_BITS + 1
            re[top] = engine.shift_right(engine.add(a_re, t_re, width=52), down)
            im[top] = engine.shift_right(engine.add(a_im, t_im, width=52), down)
            re[bot] = engine.shift_right(engine.sub(a_re, t_re, width=52), down)
            im[bot] = engine.shift_right(engine.sub(a_im, t_im, width=52), down)
            half *= 2
        return np.stack([re, im])

    def reference(self, data: WorkloadData) -> np.ndarray:
        re = data.array("re").copy()
        im = data.array("im").copy()
        n = re.size
        order = _bit_reverse_indices(n)
        re, im = re[order], im[order]
        half = 1
        while half < n:
            w_re, w_im = self._twiddles(half, 2 * half)
            groups = n // (2 * half)
            idx = (np.arange(groups)[:, None] * 2 * half + np.arange(half)).ravel()
            top, bot = idx, idx + half
            tw_re = np.tile(w_re, groups)
            tw_im = np.tile(w_im, groups)
            br, bi = re[bot], im[bot]
            t_re = br * tw_re - bi * tw_im
            t_im = br * tw_im + bi * tw_re
            a_re = re[top] << TWIDDLE_BITS
            a_im = im[top] << TWIDDLE_BITS
            down = TWIDDLE_BITS + 1
            re[top], im[top] = (a_re + t_re) >> down, (a_im + t_im) >> down
            re[bot], im[bot] = (a_re - t_re) >> down, (a_im - t_im) >> down
            half *= 2
        return np.stack([re, im])

    # -- GPU profile -------------------------------------------------------

    def profile(self) -> WorkloadProfile:
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=5.0,  # (4 muls + 6 adds) / 2 elements
            reads_per_element=2.0,  # re+im of one end of a butterfly
            writes_per_element=2.0,
            passes=lambda n: float(max(1, int(np.log2(max(2, n))))),
            trace=self._trace,
        )

    def _trace(self, elements: int):
        """Cache-measurement trace: representative passes over a tile that
        exceeds L2, since at the paper's dataset sizes (32 MB+) every pass
        re-streams the whole array from memory.  One early pass (butterfly
        partners share cache lines) and two wide-stride passes stand in for
        the ``log2 n`` real ones; the GPU model scales traffic by the true
        pass count."""
        n = 1 << 18  # 2 MB of complex samples: twice the R9 390's L2
        for half in (4, n // 8, n // 2):
            for group_start in range(0, n, 2 * half):
                for k in range(half):
                    top = (group_start + k) * self.element_bytes
                    bot = (group_start + k + half) * self.element_bytes
                    yield top, False
                    yield bot, False
                    yield top, True
                    yield bot, True
