"""Fault-injection campaigns: yield and overhead versus spare budget.

Sweeps stuck-cell rate x spare-row budget over structurally-executed
multiplications with the full self-healing loop engaged, and reports per
grid point:

- **yield** — fraction of trials that end bit-correct (recovery may have
  been needed);
- **recovered fraction** — trials that survived *because* rows were
  retired (repairs > 0), i.e. dies the spare budget saved;
- **repair effort** — average rows retired and re-execution rounds;
- **EDP overhead** — energy-delay of the guarded faulty operations over a
  clean unguarded baseline of the same operations.  Residue checks,
  in-operation scans, retirements and retries are included; the one-time
  power-on BIST sweep is not (it amortises over the die's lifetime, so
  folding it into a handful of operations would drown the per-op trend).

Backs the ``repro faults`` CLI subcommand and
``benchmarks/bench_resilience.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import APIMConfig, default_config
from repro.core.cost import Cost
from repro.crossbar.structural_multiplier import StructuralMultiplier
from repro.device.variation import FaultInjector, VariationModel
from repro.errors import FaultError, RecoveryError
from repro.resilience.manager import ResilienceManager
from repro.resilience.policy import ResiliencePolicy

__all__ = ["ResilienceCampaignPoint", "run_fault_campaign", "campaign_table"]


@dataclass(frozen=True)
class ResilienceCampaignPoint:
    """Aggregate outcome of all trials at one (rate, spare budget) point."""

    fault_rate: float
    spare_fraction: float
    trials: int
    survived: int
    recovered: int
    avg_repairs: float
    avg_retries: float
    edp_overhead: float

    @property
    def yield_fraction(self) -> float:
        """Fraction of dies delivering bit-correct results."""
        return self.survived / self.trials if self.trials else 0.0

    @property
    def recovered_fraction(self) -> float:
        """Fraction of dies that needed (and survived on) repair."""
        return self.recovered / self.trials if self.trials else 0.0


def _trial_multiplier(word_bits: int) -> StructuralMultiplier:
    return StructuralMultiplier(word_bits)


def _clean_edp(
    mult: StructuralMultiplier,
    pairs: Sequence[tuple[int, int]],
    config: APIMConfig,
) -> float:
    """EDP of the same operand pairs, unguarded, on a fault-free fabric."""
    total = Cost()
    for a, b in pairs:
        product, cost = mult.multiply(a, b)
        assert product == a * b
        total += cost
    return total.edp(config)


def run_fault_campaign(
    rates: Sequence[float],
    spare_fractions: Sequence[float],
    trials: int = 8,
    word_bits: int = 8,
    ops_per_trial: int = 3,
    seed: int = 2017,
) -> list[ResilienceCampaignPoint]:
    """Run the grid; one fresh die (fabric + fault draw) per trial.

    Trials count as *survived* when every product comes out bit-correct
    (silent corruption — residue aliasing that escapes detection — counts
    as a loss, exactly as a customer would score it) and as *recovered*
    when survival involved retiring at least one row.
    """
    config = default_config()
    base_policy = ResiliencePolicy()
    points: list[ResilienceCampaignPoint] = []
    clean_mult = _trial_multiplier(word_bits)
    limit = 1 << word_bits
    for rate in rates:
        for spare_fraction in spare_fractions:
            point_policy = base_policy.with_overrides(
                spare_fraction=spare_fraction
            )
            survived = recovered = 0
            repairs = retries = 0
            overhead_sum = 0.0
            overhead_count = 0
            for trial in range(trials):
                rng = np.random.default_rng(
                    [seed, trial, int(rate * 1e6), int(spare_fraction * 1e6)]
                )
                mult = _trial_multiplier(word_bits)
                if rate > 0.0:
                    model = VariationModel(
                        stuck_on_rate=rate / 2, stuck_off_rate=rate / 2
                    )
                    for block in range(len(mult.fabric.blocks)):
                        injector = FaultInjector(
                            model, seed=int(rng.integers(1 << 31))
                        )
                        mult.fabric.attach_fault_injector(block, injector)
                manager = ResilienceManager(point_policy)
                pairs = [
                    tuple(int(v) for v in rng.integers(0, limit, size=2))
                    for _ in range(ops_per_trial)
                ]
                guarded_cost = Cost()
                try:
                    if point_policy.scan_on_start:
                        manager.heal_multiplier(mult)
                    ok = True
                    for a, b in pairs:
                        guarded = manager.guarded_multiply(mult, a, b)
                        guarded_cost += guarded.cost
                        if guarded.product != a * b:
                            ok = False  # silent corruption escaped the net
                            break
                except (FaultError, RecoveryError):
                    ok = False
                if ok:
                    survived += 1
                    if manager.repairs > 0:
                        recovered += 1
                    baseline = _clean_edp(clean_mult, pairs, config)
                    if baseline > 0:
                        overhead_sum += guarded_cost.edp(config) / baseline
                        overhead_count += 1
                repairs += manager.repairs
                retries += manager.retries
            points.append(
                ResilienceCampaignPoint(
                    fault_rate=float(rate),
                    spare_fraction=float(spare_fraction),
                    trials=trials,
                    survived=survived,
                    recovered=recovered,
                    avg_repairs=repairs / trials if trials else 0.0,
                    avg_retries=retries / trials if trials else 0.0,
                    edp_overhead=(
                        overhead_sum / overhead_count
                        if overhead_count
                        else float("nan")
                    ),
                )
            )
    return points


def campaign_table(points: Sequence[ResilienceCampaignPoint]) -> str:
    """Render campaign points as the fixed-width table the CLI prints."""
    header = (
        f"{'rate':>8} {'spares':>7} {'yield':>6} {'recov':>6} "
        f"{'repairs':>8} {'retries':>8} {'EDP x':>7}"
    )
    lines = [header, "-" * len(header)]
    for p in points:
        edp = "nan" if p.edp_overhead != p.edp_overhead else f"{p.edp_overhead:.2f}"
        lines.append(
            f"{p.fault_rate:>8.4f} {p.spare_fraction:>7.3f} "
            f"{p.yield_fraction:>6.2f} {p.recovered_fraction:>6.2f} "
            f"{p.avg_repairs:>8.2f} {p.avg_retries:>8.2f} {edp:>7}"
        )
    return "\n".join(lines)
