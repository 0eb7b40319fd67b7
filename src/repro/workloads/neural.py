"""A quantised MLP inference layer on APIM (extension workload).

The paper's introduction motivates APIM with IoT classification/neural
workloads; this extension workload makes that concrete: a one-hidden-layer
perceptron classifying synthetic Gaussian clusters, with all matrix-vector
arithmetic (Q8 weights, Q8 activations) routed through the engine.

Quality is behavioural, the metric that matters for classifiers: the
fraction of predictions that *change* relative to the exact fixed-point
model — approximation is acceptable while decisions are stable.  The
standard QoL/relative-error machinery still works on the logits.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import WorkloadProfile
from repro.core.engine import APIMEngine
from repro.errors import WorkloadError
from repro.workloads.base import Workload, WorkloadData
from repro.workloads.registry import register_workload

__all__ = ["NeuralWorkload"]

#: Network shape: inputs -> hidden -> classes.
INPUT_DIM = 16
HIDDEN_DIM = 24
CLASSES = 4

#: Q format of weights and activations.
Q = 8


@register_workload(category="extension")
class NeuralWorkload(Workload):
    """MLP (16-24-4, ReLU) inference over synthetic Gaussian clusters."""

    name = "NeuralNet"
    kind = "signal"
    scale_bits = Q
    default_elements = 512

    def generate(self, elements: int, rng: np.random.Generator) -> WorkloadData:
        self.validate_elements(elements)
        batch = max(16, elements)
        # Class-conditional Gaussian clusters in the unit box.
        centers = rng.uniform(0.2, 0.8, (CLASSES, INPUT_DIM))
        labels = rng.integers(0, CLASSES, batch)
        x = np.clip(
            centers[labels] + rng.normal(0, 0.08, (batch, INPUT_DIM)), 0, 1
        )
        # A random (but fixed per input instance) quantised network.
        w1 = rng.normal(0, 0.5, (HIDDEN_DIM, INPUT_DIM))
        b1 = rng.normal(0, 0.2, HIDDEN_DIM)
        w2 = rng.normal(0, 0.5, (CLASSES, HIDDEN_DIM))
        b2 = rng.normal(0, 0.2, CLASSES)
        quant = lambda v: np.round(v * (1 << Q)).astype(np.int64)
        return WorkloadData(
            arrays={
                "x": quant(x),
                "w1": quant(w1),
                "b1": quant(b1),
                "w2": quant(w2),
                "b2": quant(b2),
            },
            elements=batch,
        )

    # -- the layer, engine-routed and exact --------------------------------

    def _forward(self, data: WorkloadData, engine: APIMEngine | None):
        x = data.array("x")          # (batch, IN), Q8
        w1, b1 = data.array("w1"), data.array("b1")
        w2, b2 = data.array("w2"), data.array("b2")
        batch = x.shape[0]

        def matvec(weights, biases, activations):
            """(out_dim, in_dim) x (batch, in_dim) -> (batch, out_dim)."""
            out_dim, in_dim = weights.shape
            acc = np.broadcast_to(
                biases[None, :] << Q, (batch, out_dim)
            ).astype(np.int64).copy()
            for k in range(in_dim):
                col = activations[:, k : k + 1]       # (batch, 1), Q8
                row = weights[None, :, k][0]          # (out_dim,), Q8
                if engine is None:
                    slab = col * row[None, :]
                else:
                    slab = engine.mul(
                        np.broadcast_to(col, (batch, out_dim)),
                        np.broadcast_to(row[None, :], (batch, out_dim)),
                    )
                if engine is None:
                    acc = acc + slab
                else:
                    acc = engine.add(acc, slab, width=48)
            # Products are Q16; rescale to Q8 for the next layer.
            if engine is None:
                return acc >> Q
            return engine.shift_right(acc, Q)

        hidden = matvec(w1, b1, x)
        hidden = np.maximum(hidden, 0)  # ReLU: a comparison, free
        return matvec(w2, b2, hidden)

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
        macs = INPUT_DIM * HIDDEN_DIM + HIDDEN_DIM * CLASSES
        return WorkloadProfile(
            name=self.name,
            element_bytes=self.element_bytes,
            flops_per_element=2.0 * macs,
            reads_per_element=float(INPUT_DIM + macs // 8),
            writes_per_element=float(CLASSES),
            passes=lambda n: 1.0,
            trace=self._trace,
        )

    def _trace(self, elements: int):
        weight_base = 1 << 27
        out_base = 1 << 28
        weight_words = INPUT_DIM * HIDDEN_DIM + HIDDEN_DIM * CLASSES
        for i in range(min(elements, 4096)):
            for k in range(INPUT_DIM):
                yield (i * INPUT_DIM + k) * self.element_bytes, False
            for w in range(0, weight_words, 8):
                yield weight_base + w * self.element_bytes, False
            for c in range(CLASSES):
                yield out_base + (i * CLASSES + c) * self.element_bytes, True
