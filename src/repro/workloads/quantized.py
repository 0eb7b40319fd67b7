"""A Q8 fixed-point conv1d + dense layer on APIM (Neural-PIM style).

One element is a 32-sample signal window whose class sets its dominant
frequency.  The layer is a 4-channel, 5-tap valid conv1d, ReLU, mean
pooling (a free fixed-point shift), and a dense projection to 4 classes
— every multiply and accumulate routed through the APIM multiplier and
relaxed adder, in Q8 weights and activations throughout.

Quality is behavioural, as in :mod:`repro.workloads.neural`: the
prediction-flip rate against the exact fixed-point model is the metric
an inference service cares about, while the logits still feed the
standard QoL/relative-error machinery for the campaign grid.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload

__all__ = ["QuantizedLayerWorkload"]

#: Samples per signal window.
LENGTH = 32

#: Conv1d geometry: output channels x taps, 'valid' padding.
CHANNELS = 4
TAPS = 5

#: Classifier output width.
CLASSES = 4

#: Q format of weights and activations.
Q = 8

#: Conv output width under 'valid' padding.
CONV_OUT = LENGTH - TAPS + 1

#: Mean pooling as a shift: 2**5 = 32 ~ CONV_OUT.
POOL_SHIFT = 5


@register_workload(category="extension")
class QuantizedLayerWorkload(Workload):
    """Conv1d(4x5) + dense(4) Q8 inference over synthetic waveforms."""

    name = "QuantizedLayer"
    kind = "signal"
    scale_bits = Q
    default_elements = 512

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        batch = max(16, elements)
        labels = rng.integers(0, CLASSES, batch)
        t = np.arange(LENGTH) / LENGTH
        phase = rng.uniform(0, 2 * np.pi, (batch, 1))
        # Class c rides frequency c + 1; noise keeps decisions non-trivial.
        wave = 0.5 + 0.35 * np.sin(
            2 * np.pi * (labels[:, None] + 1) * t[None, :] + phase
        )
        x = np.clip(wave + rng.normal(0, 0.05, (batch, LENGTH)), 0, 1)
        quant = lambda v: np.round(v * (1 << Q)).astype(np.int64)
        return WorkloadData(
            arrays={
                "x": quant(x),
                "w1": quant(rng.normal(0, 0.5, (CHANNELS, TAPS))),
                "b1": quant(rng.normal(0, 0.2, CHANNELS)),
                "w2": quant(rng.normal(0, 0.5, (CLASSES, CHANNELS))),
                "b2": quant(rng.normal(0, 0.2, CLASSES)),
            },
            elements=batch,
        )

    # -- the layer, engine-routed and exact --------------------------------

    def _forward(self, data: WorkloadData, engine: APIMEngine | None):
        x = data.array("x")          # (batch, LENGTH), Q8
        w1, b1 = data.array("w1"), data.array("b1")
        w2, b2 = data.array("w2"), data.array("b2")
        batch = x.shape[0]

        def mul(a, b):
            if engine is None:
                return a * b
            return engine.mul(a, b)

        def add(a, b):
            if engine is None:
                return a + b
            return engine.add(a, b, width=48)

        def shift(a, n):
            if engine is None:
                return a >> n
            return engine.shift_right(a, n)

        pooled = np.empty((batch, CHANNELS), dtype=np.int64)
        for ch in range(CHANNELS):
            acc = np.full((batch, CONV_OUT), b1[ch] << Q, dtype=np.int64)
            for tap in range(TAPS):
                seg = x[:, tap : tap + CONV_OUT]
                coeff = np.broadcast_to(np.int64(w1[ch, tap]), seg.shape)
                acc = add(acc, mul(seg, coeff))
            acc = np.maximum(shift(acc, Q), 0)  # Q8 again; ReLU is free
            # Mean pooling as a fixed-point shift of the running sum.
            total = acc[:, 0]
            for j in range(1, CONV_OUT):
                total = add(total, acc[:, j])
            pooled[:, ch] = shift(total, POOL_SHIFT)

        logits = np.broadcast_to(
            b2[None, :] << Q, (batch, CLASSES)
        ).astype(np.int64).copy()
        for ch in range(CHANNELS):
            col = np.broadcast_to(
                pooled[:, ch : ch + 1], (batch, CLASSES)
            )
            row = np.broadcast_to(w2[None, :, ch], (batch, CLASSES))
            logits = add(logits, mul(col, row))
        return shift(logits, Q)

    def run(self, engine: APIMEngine, data: WorkloadData) -> np.ndarray:
        return self._forward(data, engine)

    def reference(self, data: WorkloadData) -> np.ndarray:
        return self._forward(data, None)

    # -- classifier-level quality -----------------------------------------

    def predictions(self, logits: np.ndarray) -> np.ndarray:
        """Class decisions from logits."""
        return np.argmax(logits, axis=1)

    def decision_flip_rate(
        self, reference_logits: np.ndarray, output_logits: np.ndarray
    ) -> float:
        """Fraction of inputs whose predicted class changed."""
        ref = self.predictions(np.asarray(reference_logits))
        out = self.predictions(np.asarray(output_logits))
        if ref.shape != out.shape:
            raise WorkloadError("logit shapes differ")
        return float(np.mean(ref != out))

    def profile(self) -> WorkloadProfile:
        macs = CHANNELS * TAPS * CONV_OUT + CHANNELS * CLASSES
        adds = CHANNELS * (CONV_OUT - 1)  # pooling
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=2.0 * macs + adds,
            reads_per_element=float(LENGTH + CHANNELS * TAPS),
            writes_per_element=float(CLASSES),
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        weight_base = 1 << 27
        out_base = 1 << 28
        weight_words = CHANNELS * TAPS + CLASSES * CHANNELS
        for i in range(min(elements, 4096)):
            for s in range(LENGTH):
                yield (i * LENGTH + s) * self.element_bytes, False
            for w in range(weight_words):
                yield weight_base + w * self.element_bytes, False
            for c in range(CLASSES):
                yield out_base + (i * CLASSES + c) * self.element_bytes, True
