"""A2 — Ablation: SA-gated partial-product generation vs the naive AND array.

Paper Section 3.3 rejects building partial products from explicit AND
gates: AND is three NORs, and an N x N multiplication would need an
``N * N``-cell scratch region and ``3 * N * N`` cycles.  The proposed
design instead reads the multiplier through the sense amplifier and gates
shifted copies of the multiplicand — ``popcount + 1`` cycles, writing
nothing for zero bits.  This bench quantifies both the latency and the
write-energy sides of that choice.
"""

from __future__ import annotations

from repro.core.config import default_config
from repro.core.cost import Cost
from repro.core.timing import cost_ppgen


def _ppgen_naive_and(n: int) -> Cost:
    """The rejected design: one 3-NOR AND per product-matrix cell.

    All N bits of one partial-product row can evaluate in SIMD, but each
    row needs its own 3-cycle AND sequence; every cell fires regardless of
    the multiplier bit's value.
    """
    return Cost(cycles=3 * n, nor_ops=3 * n * n)


def test_ppgen_latency_ablation(benchmark, bench_rounds):
    def sweep():
        rows = []
        for n in (8, 16, 32):
            gated = cost_ppgen(n, n // 2)  # random multiplier: N/2 ones
            naive = _ppgen_naive_and(n)
            rows.append((n, gated, naive))
        return rows

    rows = benchmark.pedantic(sweep, rounds=bench_rounds, iterations=1)
    print()
    print("partial-product generation: SA-gated copy vs naive AND array")
    for n, gated, naive in rows:
        print(
            f"  N={n:3d}: gated={gated.cycles:4.0f} cycles "
            f"naive={naive.cycles:5.0f} cycles "
            f"({naive.cycles / gated.cycles:.1f}x)"
        )
        assert gated.cycles < naive.cycles


def test_ppgen_energy_ablation(benchmark, bench_rounds):
    """Zero multiplier bits write nothing in the gated design ("we avoid
    writing data when the bit is zero, thus saving energy")."""
    config = default_config()

    def measure():
        n = 32
        sparse = cost_ppgen(n, 4).energy(config)     # 4 ones
        dense = cost_ppgen(n, 28).energy(config)     # 28 ones
        naive = _ppgen_naive_and(n).energy(config)   # fires all cells
        return sparse, dense, naive

    sparse, dense, naive = benchmark.pedantic(
        measure, rounds=bench_rounds, iterations=1
    )
    print()
    print(
        f"ppgen energy (32-bit): sparse multiplier={sparse:.3e} J, "
        f"dense={dense:.3e} J, naive AND={naive:.3e} J"
    )
    assert sparse < dense < naive


def test_ppgen_data_dependence(benchmark, bench_rounds):
    """Latency tracks the multiplier's popcount — the data-dependence the
    paper quotes ('the actual delay would vary depending upon the number
    of 1s in M2')."""

    def sweep():
        return [cost_ppgen(32, ones).cycles for ones in range(0, 33, 4)]

    cycles = benchmark.pedantic(sweep, rounds=bench_rounds, iterations=1)
    assert cycles == sorted(cycles)
    assert cycles[0] == 0      # zero multiplier: nothing to copy
    assert cycles[-1] == 33    # the paper's N + 1 worst case
