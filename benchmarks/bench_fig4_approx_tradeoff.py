"""E1 — Figure 4: error vs EDP of the two approximation approaches.

Regenerates the paper's comparison of first-stage (multiplier masking) and
last-stage (MAJ sum approximation) for 32x32 multiplication, and asserts
its central claim: at matched EDP, last-stage error is orders of magnitude
below first-stage.
"""

from __future__ import annotations

from repro.analysis.experiments import FIGURE4_SAMPLES, run_figure4
from repro.analysis.tables import render_figure4


def test_fig4_error_vs_edp(benchmark, bench_rounds):
    result = benchmark.pedantic(
        run_figure4, rounds=bench_rounds, iterations=1
    )
    print()
    print(render_figure4(result))

    # Paper shape: both curves trade error for EDP monotonically ...
    for points in (result.first_stage, result.last_stage):
        errors = [p.mean_relative_error for p in points]
        edps = [p.edp for p in points]
        assert errors == sorted(errors)
        assert edps == sorted(edps, reverse=True)
    # ... and the last-stage approach wins by orders of magnitude at the
    # paper's matched-EDP anchor (quoted as ~5 orders at 1.4e-16 J*s).
    assert result.error_gap_at_edp(1.4e-16) > 1e3


def test_fig4_first_stage_propagates_error(benchmark, bench_rounds):
    """The paper's qualitative argument: masking injects error early, so at
    the *same number of approximated bits* the first stage is far less
    accurate than the last stage."""
    result = benchmark.pedantic(
        run_figure4,
        kwargs={
            "samples": FIGURE4_SAMPLES // 2,
            "first_stage_bits": (16,),
            "last_stage_bits": (16,),
        },
        rounds=bench_rounds,
        iterations=1,
    )
    first = result.first_stage[0].mean_relative_error
    last = result.last_stage[0].mean_relative_error
    assert first > 100 * last
