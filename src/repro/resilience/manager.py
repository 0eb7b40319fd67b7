"""The recovery loop over structural fabrics: detect, retire, re-execute.

:class:`ResilienceManager` drives self-healing for bit-accurate structural
execution (:class:`~repro.crossbar.structural_multiplier.StructuralMultiplier`):

1. **detect** — the mod-3 residue of the produced product is checked
   against the operands (no golden reference); structural protocol
   violations caused by stuck cells (e.g. a carry operand frozen at '1')
   surface as :class:`~repro.errors.CrossbarError` and count as detections
   too;
2. **repair** — a BIST march scan locates every stuck cell and condemns
   its row; rows within the spare budget are *repaired*, rows beyond it
   are *relocated* (or the run fails, per policy);
3. **re-execute** — the multiply runs again on healthy rows, up to
   ``max_retries`` rounds.

Every step appends a :class:`ReliabilityEvent`, so traces and QoS
accounting see reliability activity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.cost import Cost
from repro.crossbar.structural_multiplier import StructuralMultiplier
from repro.errors import CrossbarError, FaultError, RecoveryError
from repro.resilience.bist import MarchTester
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.residue import product_residue_ok, residue_cost

__all__ = ["ReliabilityEvent", "GuardedProduct", "ResilienceManager"]


@dataclass(frozen=True)
class ReliabilityEvent:
    """One reliability incident on the fabric timeline.

    ``kind`` is one of ``bist_scan``, ``fault_detected``, ``row_retired``,
    ``row_relocated``, ``retry``, ``degraded``; ``cycle`` is the global
    fabric clock when it happened.
    """

    kind: str
    cycle: float
    detail: str


@dataclass(frozen=True)
class GuardedProduct:
    """Outcome of one self-healed structural multiplication."""

    product: int
    cost: Cost
    faults_detected: int
    repairs: int
    retries: int


class ResilienceManager:
    """Self-healing driver for structural execution on a blocked crossbar."""

    def __init__(
        self,
        policy: ResiliencePolicy | None = None,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.tester = MarchTester()
        self.events: list[ReliabilityEvent] = []
        self.faults_detected = 0
        self.repairs = 0
        self.retries = 0

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, kind: str, cycle: float, detail: str) -> None:
        self.events.append(ReliabilityEvent(kind, cycle, detail))

    def spare_budget(self, rows: int) -> int:
        """Rows per block the spare budget allows to be retired."""
        return math.ceil(rows * self.policy.spare_fraction)

    # -- repair --------------------------------------------------------------

    def heal_multiplier(self, mult: StructuralMultiplier) -> int:
        """BIST-scan the multiplier's fabric and retire condemned rows.

        Rows within the per-block spare budget count as repairs; beyond the
        budget the policy decides between relocation onto remaining healthy
        rows and failure.  Returns the number of rows newly retired.
        """
        fabric = mult.fabric
        scan = self.tester.scan_fabric(fabric)
        self._record(
            "bist_scan", fabric.cycles,
            f"{len(scan.faults)} stuck cells in {len(fabric.blocks)} blocks",
        )
        budget = self.spare_budget(mult.rows)
        newly_retired = 0
        for block, rows in sorted(scan.faulty_rows_by_block().items()):
            fresh = sorted(rows - mult.retired_rows(block))
            if not fresh:
                continue
            already = len(mult.retired_rows(block))
            for row in fresh:
                within_budget = already + 1 <= budget
                if not within_budget and self.policy.on_exhausted == "fail":
                    raise RecoveryError(
                        f"block {block}: spare budget of {budget} rows "
                        f"exhausted and policy forbids relocation"
                    )
                mult.retire_rows(block, [row])
                already += 1
                newly_retired += 1
                self.repairs += 1
                kind = "row_retired" if within_budget else "row_relocated"
                self._record(
                    kind, fabric.cycles, f"block {block} row {row}"
                )
        return newly_retired

    # -- guarded execution ---------------------------------------------------

    def guarded_multiply(
        self,
        mult: StructuralMultiplier,
        a: int,
        b: int,
    ) -> GuardedProduct:
        """Exact multiply with the full detect/retire/re-execute loop: a
        structural violation or (under ``policy.residue_checks``) a residue
        mismatch retires the faulty rows and re-executes."""
        fabric = mult.fabric
        start = fabric.total_cost
        check_residue = self.policy.residue_checks
        retries = 0
        detected = 0
        repairs_before = self.repairs
        while True:
            failure: str | None = None
            product = None
            try:
                product, _ = mult.multiply(a, b)
            except CrossbarError as exc:
                failure = f"structural violation: {exc}"
            if failure is None and check_residue:
                fabric.charge(residue_cost())
                if not product_residue_ok(a, b, product):
                    failure = (
                        f"residue mismatch on {a}*{b} -> {product}"
                    )
            if failure is None:
                delta = self._delta(fabric.total_cost, start)
                return GuardedProduct(
                    product=int(product),
                    cost=delta,
                    faults_detected=detected,
                    repairs=self.repairs - repairs_before,
                    retries=retries,
                )
            detected += 1
            self.faults_detected += 1
            self._record("fault_detected", fabric.cycles, failure)
            if not self.policy.enabled:
                raise FaultError(
                    f"fault detected with recovery disabled: {failure}"
                )
            if retries >= self.policy.max_retries:
                raise FaultError(
                    f"corruption survived {retries} repair rounds: {failure}"
                )
            if self.heal_multiplier(mult) == 0:
                raise FaultError(
                    f"BIST found no repairable rows for: {failure}"
                )
            retries += 1
            self.retries += 1
            self._record("retry", fabric.cycles, f"attempt {retries + 1}")

    @staticmethod
    def _delta(now: Cost, start: Cost) -> Cost:
        return Cost(
            cycles=now.cycles - start.cycles,
            nor_ops=now.nor_ops - start.nor_ops,
            cell_writes=now.cell_writes - start.cell_writes,
            sa_reads=now.sa_reads - start.sa_reads,
            maj_ops=now.maj_ops - start.maj_ops,
            interconnect_bits=now.interconnect_bits - start.interconnect_bits,
        )
