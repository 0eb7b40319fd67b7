"""E4/E5 — Table 1: QoL and EDP improvement per application per relax level,
plus the adaptive-mode headline.

Regenerates the six-application grid over m in {0, 4, 8, 16, 24, 32} relax
bits and then runs the paper's adaptive controller, asserting:

- EDP improvement grows monotonically with m for every application;
- QoL grows monotonically with m (0 % in exact mode);
- the paper's application ordering at m = 0 (FFT strongest, QuasiR weakest);
- the adaptive mode reaches the paper's "up to 480x" EDP band.
"""

from __future__ import annotations

from repro.analysis.experiments import run_adaptive, run_table1
from repro.analysis.tables import render_adaptive, render_table1


def test_table1_grid(benchmark, bench_rounds):
    result = benchmark.pedantic(
        run_table1, rounds=bench_rounds, iterations=1
    )
    print()
    print(render_table1(result))

    for name, row in result.cells.items():
        edps = [c.edp_improvement for c in row]
        qols = [c.qol_percent for c in row]
        assert edps == sorted(edps), name
        assert all(a <= b + 1e-9 for a, b in zip(qols, qols[1:])), name
        assert qols[0] == 0.0, name
        # m = 32 buys a multiple of exact-mode EDP (paper: ~4.7x).
        assert 2.0 <= edps[-1] / edps[0] <= 8.0, name

    # Paper ordering at m = 0: FFT > Robert > Sobel, QuasiR the weakest.
    exact = {name: row[0].edp_improvement for name, row in result.cells.items()}
    assert exact["FFT"] > exact["Robert"] > exact["Sobel"]
    assert exact["QuasiR"] == min(exact.values())
    # Exact-mode magnitudes in the paper's band for the calibrated trio
    # (paper: Sobel 94x, Robert 177x, FFT 203x; factor-2 tolerance).
    assert 47 <= exact["Sobel"] <= 188
    assert 88 <= exact["Robert"] <= 354
    assert 101 <= exact["FFT"] <= 406


def test_table1_adaptive_headline(benchmark, bench_rounds):
    result = benchmark.pedantic(
        run_adaptive, rounds=bench_rounds, iterations=1
    )
    print()
    print(render_adaptive(result))

    # Every application meets QoS at its selected setting ...
    for tuning in result.tunings.values():
        assert tuning.selected_trial.qos_ok
        assert 0 <= tuning.selected_relax_bits <= 32
    # ... different applications pick different m (the paper's point) ...
    selections = {t.selected_relax_bits for t in result.tunings.values()}
    assert len(selections) >= 2
    # ... and the headline band: "up to 480x EDP improvement".
    assert result.best_edp_improvement >= 240
