"""Experiment drivers and paper-style result rendering (S20).

One driver per paper artifact:

- :func:`~repro.analysis.experiments.run_figure4` — error vs EDP of the
  two approximation modes (32x32 multiplication).
- :func:`~repro.analysis.experiments.run_figure5` — exact-APIM energy/
  speedup vs GPU over dataset sizes, per workload.
- :func:`~repro.analysis.experiments.run_figure6` — multi-operand addition
  latency vs the two prior in-memory adders.
- :func:`~repro.analysis.experiments.run_table1` — QoL and EDP improvement
  per application per approximation level.
- :func:`~repro.analysis.experiments.run_adaptive` — the adaptive tuner's
  selected settings and the resulting EDP gain (the 480x headline).

:mod:`repro.analysis.tables` renders each result the way the paper prints
it, so bench output reads side by side with the original.
"""

from repro.analysis.experiments import (
    Figure4Result,
    Figure5Result,
    Figure6Result,
    Table1Result,
    AdaptiveResult,
    run_adaptive,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
)
from repro.analysis.tables import (
    render_figure4,
    render_figure5,
    render_figure6,
    render_table1,
    render_adaptive,
)
from repro.analysis.area import AreaModel, AreaReport
from repro.analysis.report import generate_report
from repro.analysis.sensitivity import SensitivityResult, sweep_parameter
from repro.analysis.pareto import ParetoPoint, operating_point, pareto_frontier
from repro.analysis.export import to_csv

__all__ = [
    "Figure4Result",
    "Figure5Result",
    "Figure6Result",
    "Table1Result",
    "AdaptiveResult",
    "run_figure4",
    "run_figure5",
    "run_figure6",
    "run_table1",
    "run_adaptive",
    "render_figure4",
    "render_figure5",
    "render_figure6",
    "render_table1",
    "render_adaptive",
    "AreaModel",
    "AreaReport",
    "generate_report",
    "sweep_parameter",
    "SensitivityResult",
    "ParetoPoint",
    "pareto_frontier",
    "operating_point",
    "to_csv",
]
