"""E3 — Figure 6: N-operand N-bit addition vs prior in-memory adders.

Regenerates the latency comparison against the serial MAGIC adder
[Talati, TNANO'16] and the CRS PC-Adder [Siemon, JETCAS'15], in exact and
99.9 %-accuracy (approximate) APIM modes, and pins the paper's claims:
"at least 2x speed up compared to previous designs in exact mode" and
"at least 6x faster with 99.9 % accuracy".
"""

from __future__ import annotations

import random

from repro.analysis.experiments import run_figure6
from repro.analysis.tables import render_figure6
from repro.core.adder import APIMAdder
from repro.core.config import APIMConfig


def test_fig6_latency_comparison(benchmark, bench_rounds):
    result = benchmark.pedantic(
        run_figure6, rounds=bench_rounds, iterations=1
    )
    print()
    print(render_figure6(result))

    for row in result.rows:
        # Everyone beats the serial MAGIC baseline...
        assert row.apim_cycles < row.talati_cycles
        assert row.pc_adder_cycles < row.talati_cycles
        if row.operands >= 16:
            # ... and APIM beats the best prior by the paper's margins
            # (the 6x approximate figure is reached at N = 32, the top of
            # the paper's swept range).
            assert row.speedup_vs_best_prior >= 2.0
        if row.operands >= 32:
            assert row.approx_speedup_vs_best_prior >= 6.0
    ratios = [r.speedup_vs_best_prior for r in result.rows]
    assert ratios == sorted(ratios)  # advantage grows with N


def test_fig6_approximate_mode_accuracy(benchmark, bench_rounds):
    """The '99.9 % accuracy' qualifier: with all but the top
    FIG6_EXACT_MSBS result bits produced by the MAJ shortcut, the
    range-normalised error (the PSNR-style convention) stays under 0.1 %
    on random operands."""

    def measure() -> float:
        import numpy as np

        from repro.analysis.experiments import FIG6_EXACT_MSBS
        from repro.core.timing import reduction_stages

        adder = APIMAdder(APIMConfig())
        rnd = np.random.default_rng(6)
        n = 32
        count = 9
        operands = [
            rnd.integers(0, 1 << n, 4000).astype(np.uint64)
            for _ in range(count)
        ]
        exact = operands[0].copy()
        for op in operands[1:]:
            exact = exact + op
        final_width = n + reduction_stages(count) - 1
        relax = final_width - FIG6_EXACT_MSBS
        approx = adder.add_many(operands, relax_bits=relax, width=n).sums
        scale = float(2.0 ** (final_width + 1))  # output range
        return float(
            abs(approx.astype(float) - exact.astype(float)).mean() / scale
        )

    error = benchmark.pedantic(measure, rounds=bench_rounds, iterations=1)
    assert error < 1e-3  # >= 99.9 % accurate


def test_fig6_structural_adder_throughput(benchmark):
    """Microbenchmark: structural serial additions per second — the cost of
    full micro-op simulation, for the performance table."""
    from repro.crossbar.block import BlockedCrossbar
    from repro.crossbar.structural_adder import RowPool, StructuralAdder

    fabric = BlockedCrossbar(2, 64, 20)
    adder = StructuralAdder(fabric)
    pool = RowPool(64, reserved=[0, 1, 2])
    rnd = random.Random(0)

    def run_one():
        a, b = rnd.randrange(256), rnd.randrange(256)
        fabric.block(0).clear()
        fabric.write_word(0, 0, a, 8)
        fabric.write_word(0, 1, b, 8)
        adder.serial_add(0, 0, 1, 2, 8, pool)
        assert fabric.read_word(0, 2, 9) == a + b

    benchmark(run_one)
