"""Quality-of-result metrics and QoS policy (S16).

The paper's acceptance criteria (Section 4.1): image-processing outputs
must reach **30 dB PSNR**; all other applications must stay under **10 %
average relative error**.  Table 1 reports "Quality of Loss" percentages;
we compute QoL as the workload-kind-appropriate relative error measure.

:mod:`repro.quality.metrics` computes the scores and
:mod:`repro.quality.qos` holds the acceptance thresholds and the
relax-bit ladder the tuner walks.
"""

from repro.quality.metrics import (
    average_relative_error,
    normalized_rmse,
    psnr,
    quality_loss_percent,
)
from repro.quality.qos import QoSPolicy

__all__ = [
    "psnr",
    "average_relative_error",
    "normalized_rmse",
    "quality_loss_percent",
    "QoSPolicy",
]
