"""E2/E5 — Figure 5: exact APIM vs GPU over dataset sizes 32 MB .. 1 GB.

Regenerates the four panels (Sobel, Robert, FFT, DwtHaar1D) of Figure 5 —
energy improvement and speedup normalised to the GPU — and asserts the
paper's shape: the GPU wins small datasets, APIM crosses over near a few
hundred megabytes, and the 1 GB anchors land in the paper's band (28x
energy, 4.8x speed for the stencil workloads).
"""

from __future__ import annotations

from repro.analysis.experiments import run_figure5
from repro.analysis.tables import render_figure5
from repro.units import GIB, MIB


def test_fig5_energy_and_speedup_vs_dataset(benchmark, bench_rounds):
    result = benchmark.pedantic(
        run_figure5, rounds=bench_rounds, iterations=1
    )
    print()
    print(render_figure5(result))

    for name, points in result.curves.items():
        speedups = [p.speedup for p in points]
        energies = [p.energy_improvement for p in points]
        # Monotone rising curves, as in every panel of Figure 5.
        assert speedups == sorted(speedups), name
        assert all(e > 1 for e in energies), name
        # GPU wins the smallest dataset; APIM wins at 1 GB.
        assert speedups[0] < 1.0, name
        assert speedups[-1] > 1.0, name
        # Crossover in the paper's "datasets larger than 200MB" region.
        crossover = result.crossover_bytes(name)
        assert crossover is not None and crossover <= GIB, name

    # Headline anchor (paper: 28x energy, 4.8x speed at 1 GB): the stencil
    # panels must land within a factor-2 band of the quoted numbers.
    sobel = result.at_one_gib("Sobel")
    assert 2.4 <= sobel.speedup <= 9.6
    assert 14 <= sobel.energy_improvement <= 56


def test_fig5_gpu_per_element_cost_grows(benchmark, bench_rounds):
    """The mechanism behind Figure 5: GPU per-element cost rises with the
    dataset footprint (cache/TLB/row-locality), APIM's stays flat."""
    result = benchmark.pedantic(
        run_figure5,
        kwargs={"sizes": (32 * MIB, GIB)},
        rounds=bench_rounds,
        iterations=1,
    )
    for name, points in result.curves.items():
        small, large = points
        gpu_small = small.gpu_time / (small.dataset_bytes)
        gpu_large = large.gpu_time / (large.dataset_bytes)
        assert gpu_large > gpu_small, name
