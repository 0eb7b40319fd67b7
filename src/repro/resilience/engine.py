"""Fault-aware workload execution: a self-healing :class:`APIMEngine`.

The functional engine computes on NumPy arrays, but on hardware every
element lives in a row of a real (faulty) fabric.  :class:`FabricHealth`
binds the two: it maps element indices onto ``(block, logical row)`` slots
of a :class:`~repro.crossbar.block.BlockedCrossbar` and answers which bits
of a slot are held by stuck cells.  :class:`ResilientEngine` then

- **corrupts** every operation's outputs exactly as the pinned cells of
  the backing physical rows dictate (magnitude bits for the
  sign-magnitude multiply datapath, low ``width`` bits of the
  two's-complement encoding for additions);
- **detects** corruption with the mod-3 residue checker — the residue of
  the produced word is compared against the residue carried through the
  operation (equivalent to checking against the operand residues for
  exact arithmetic, with no false alarms on accumulator wrap);
- **repairs** by a targeted march scan of the flagged row followed by
  retirement onto a spare (or relocation onto wear-levelled headroom once
  spares run out, per policy);
- **re-executes** the flagged elements, up to ``max_retries`` rounds,
  then degrades or raises :class:`~repro.errors.FaultError` per policy.

Approximate specs skip the residue check (a relaxed final stage
legitimately changes the residue); the power-on BIST sweep still protects
them by retiring faulty rows before data lands.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig
from repro.core.cost import Cost
from repro.core.engine import APIMEngine
from repro.crossbar.block import BlockedCrossbar
from repro.device.endurance import RotatingAllocator
from repro.errors import DeviceError, FaultError, RecoveryError
from repro.observability.instruments import (
    RESIDUE_MISMATCHES,
    RESILIENCE_DEGRADED,
    RESILIENCE_REPAIRS,
    RESILIENCE_RETRIES,
    record_bist_scan,
)
from repro.resilience.bist import MarchTester
from repro.resilience.manager import ReliabilityEvent
from repro.resilience.policy import ResiliencePolicy
from repro.resilience.residue import residue3, residue_cost

__all__ = ["FabricHealth", "ResilientEngine", "ResilienceContext"]

#: Fraction of each block's data rows kept free as relocation headroom.
RELOCATION_HEADROOM = 0.25


class FabricHealth:
    """Element-to-row placement and repair state for one faulty fabric.

    Reserves the policy's spare fraction on the fabric, spreads element
    slots round-robin over the blocks through
    :class:`~repro.device.endurance.RotatingAllocator` instances (leaving
    :data:`RELOCATION_HEADROOM` of the data rows unallocated so relocation
    has somewhere to go), and tracks which physical rows the last BIST
    sweep condemned.
    """

    def __init__(
        self,
        fabric: BlockedCrossbar,
        policy: ResiliencePolicy | None = None,
        tester: MarchTester | None = None,
    ) -> None:
        self.fabric = fabric
        self.policy = policy or ResiliencePolicy()
        self.tester = tester or MarchTester()
        fabric.reserve_spares(self.policy.spare_fraction)
        data = fabric.data_rows
        per_block = max(1, int(data * (1.0 - RELOCATION_HEADROOM)))
        self.allocators = [
            RotatingAllocator(data) for _ in fabric.blocks
        ]
        columns = [
            alloc.alloc(per_block) for alloc in self.allocators
        ]
        # Interleave across blocks so consecutive elements land on
        # different blocks (the lane-parallel layout).
        self.slots: list[tuple[int, int]] = [
            (block, rows[i])
            for i in range(per_block)
            for block, rows in enumerate(columns)
        ]
        self.faulty: list[set[int]] = [set() for _ in fabric.blocks]
        self.repairs = 0
        self.relocations = 0

    # -- placement -----------------------------------------------------------

    def slot_for(self, index: int) -> tuple[int, int]:
        """The ``(block, logical row)`` slot backing element ``index``."""
        return self.slots[index % len(self.slots)]

    def stuck_bits(self, index: int) -> list[tuple[int, float]]:
        """``(bit position, stuck level)`` pairs afflicting a slot's word."""
        block, row = self.slot_for(index)
        physical = self.fabric.resolve_row(block, row)
        array = self.fabric.block(block)
        return [
            (col, level)
            for (r, col), level in array.pinned_cells().items()
            if r == physical
        ]

    # -- scanning ------------------------------------------------------------

    def scan_and_retire(self) -> tuple[int, int, Cost]:
        """Power-on repair: full BIST sweep, retire every condemned slot.

        Returns ``(stuck cells found, rows retired, scan cost)``.
        """
        scan = self.tester.scan_fabric(self.fabric)
        by_block = scan.faulty_rows_by_block()
        self.faulty = [
            set(by_block.get(i, set())) for i in range(len(self.fabric.blocks))
        ]
        retired = 0
        for block, row in self.slots:
            if self.fabric.resolve_row(block, row) in self.faulty[block]:
                self.retire_row(block, row)
                retired += 1
        return len(scan.faults), retired, scan.cost

    # -- repair --------------------------------------------------------------

    def retire_row(self, block: int, row: int) -> str:
        """Move a logical row off its condemned physical row.

        Prefers the block's spare pool; once it is exhausted the policy
        either relocates onto wear-levelled headroom rows or lets the
        :class:`~repro.errors.RecoveryError` propagate.  Every replacement
        row is march-verified before it is accepted (spares and headroom
        rows can be stuck too); condemned replacements are burned and the
        search continues.  Returns the mechanism used (``"repair"`` or
        ``"relocate"``).
        """
        mechanism = "repair"
        while True:
            old_physical = self.fabric.resolve_row(block, row)
            try:
                replacement = self.fabric.retire_row(block, row)
                self.repairs += 1
            except RecoveryError:
                if self.policy.on_exhausted == "fail":
                    raise
                replacement = self._relocate(block, row, old_physical)
                self.relocations += 1
                mechanism = "relocate"
            self._drop_from_rotation(block, old_physical)
            if self._row_healthy(block, replacement):
                return mechanism

    def _row_healthy(self, block: int, physical: int) -> bool:
        """Verify-after-repair: march one row, remember what it found."""
        scan = self.tester.scan_block(self.fabric, block, rows=[physical])
        if scan.faults:
            self.faulty[block].update(site[0] for site in scan.faults)
            return False
        return True

    def _relocate(self, block: int, row: int, old_physical: int) -> int:
        """Point a logical row at a fresh healthy headroom row."""
        alloc = self.allocators[block]
        faulty = self.faulty[block]
        while True:
            try:
                candidate = alloc.alloc(1)[0]
            except DeviceError as exc:
                raise RecoveryError(
                    f"block {block}: spares and relocation headroom both "
                    f"exhausted"
                ) from exc
            if candidate not in faulty:
                break
            self._drop_from_rotation(block, candidate)
        array = self.fabric.block(block)
        for col in range(self.fabric.cols):
            array.set_value(candidate, col, array.value(old_physical, col))
        self.fabric.remap.retire(block, row, candidate)
        self.fabric.charge_writes(self.fabric.cols)
        self.fabric.advance_clock(2)  # row read-out + driver rewrite
        return candidate

    def _drop_from_rotation(self, block: int, physical: int) -> None:
        """Stop wear levelling from cycling through a dead row."""
        if not 0 <= physical < self.fabric.data_rows:
            return  # spare region: never in the rotation
        try:
            self.allocators[block].retire(physical)
        except DeviceError:
            pass  # rotation empty or row never allocatable: nothing to level

    @property
    def rows_replaced(self) -> int:
        """Rows moved off faulty cells, by either mechanism."""
        return self.repairs + self.relocations


class ResilientEngine(APIMEngine):
    """An :class:`APIMEngine` whose outputs suffer, and survive, the fabric.

    Every operation's results are corrupted bit-accurately by the stuck
    cells of the rows backing each element, then guarded by the
    detect/repair/re-execute loop described in the module docstring.
    Reliability activity is billed to the ledger under ``residue`` and
    ``repair`` and surfaced through ``faults_detected`` / ``repairs`` /
    ``retries`` / ``degraded`` and the event log.
    """

    def __init__(
        self,
        health: FabricHealth,
        config: APIMConfig | None = None,
        spec: ApproxSpec = EXACT,
    ) -> None:
        super().__init__(config, spec)
        self.health = health
        self.policy = health.policy
        self.faults_detected = 0
        self.retries = 0
        self.degraded = 0
        self.events: list[ReliabilityEvent] = []
        if self.policy.enabled and self.policy.scan_on_start:
            found, retired, scan_cost = health.scan_and_retire()
            record_bist_scan(found)
            self.ledger.charge("repair", scan_cost)
            if retired:
                self.ledger.charge(
                    "repair",
                    Cost(cycles=2, cell_writes=self.health.fabric.cols)
                    .scaled(retired),
                )
            self.faults_detected += found
            self._record(
                "bist_scan",
                f"power-on sweep: {found} stuck cells, {retired} rows retired",
            )

    @property
    def repairs(self) -> int:
        """Rows moved off faulty cells (spares used + relocations)."""
        return self.health.rows_replaced

    def _record(self, kind: str, detail: str) -> None:
        self.events.append(
            ReliabilityEvent(kind, self.health.fabric.cycles, detail)
        )

    # -- guarded operations --------------------------------------------------

    def mul(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        spec: ApproxSpec | None = None,
    ) -> np.ndarray:
        spec_eff = self.spec if spec is None else spec
        clean = super().mul(a, b, spec)
        return self._guard(
            clean,
            spec_eff,
            kind="magnitude",
            width=self._product_width(a, b),
            redo=lambda idx: super(ResilientEngine, self).mul(
                self._take(a, clean, idx), self._take(b, clean, idx), spec
            ),
        )

    def add(
        self,
        a: np.ndarray | int,
        b: np.ndarray | int,
        width: int | None = None,
        spec: ApproxSpec | None = None,
    ) -> np.ndarray:
        spec_eff = self.spec if spec is None else spec
        width_eff = width or self.config.word_bits
        clean = super().add(a, b, width=width, spec=spec)
        return self._guard(
            clean,
            spec_eff,
            kind="twos",
            width=width_eff,
            redo=lambda idx: super(ResilientEngine, self).add(
                self._take(a, clean, idx),
                self._take(b, clean, idx),
                width=width,
                spec=spec,
            ),
        )

    def sum_many(
        self,
        operands,
        width: int | None = None,
        spec: ApproxSpec | None = None,
    ) -> np.ndarray:
        spec_eff = self.spec if spec is None else spec
        width_eff = width or self.config.word_bits
        clean = super().sum_many(operands, width=width, spec=spec)
        return self._guard(
            clean,
            spec_eff,
            kind="twos",
            width=width_eff,
            redo=lambda idx: super(ResilientEngine, self).sum_many(
                [self._take(op, clean, idx) for op in operands],
                width=width,
                spec=spec,
            ),
        )

    # -- the detect/repair/re-execute loop ----------------------------------

    def _guard(self, clean, spec_eff, kind, width, redo):
        shape = np.shape(clean)
        flat_clean = np.atleast_1d(np.asarray(clean, dtype=np.int64)).ravel()
        observed = np.array(
            [
                self._corrupt(int(value), i, kind, width)
                for i, value in enumerate(flat_clean)
            ],
            dtype=np.int64,
        )
        checking = (
            self.policy.enabled
            and self.policy.residue_checks
            and spec_eff.relax_bits == 0
            and spec_eff.masked_bits == 0
        )
        if checking:
            attempts = 0
            while True:
                self.ledger.charge("residue", residue_cost(observed.size))
                bad = np.flatnonzero(
                    residue3(self._encode(observed, kind, width))
                    != residue3(self._encode(flat_clean, kind, width))
                )
                if bad.size == 0:
                    break
                self.faults_detected += int(bad.size)
                RESIDUE_MISMATCHES.inc(int(bad.size))
                self._record(
                    "fault_detected",
                    f"residue flagged {bad.size} element(s)",
                )
                if attempts >= self.policy.max_retries:
                    if self.policy.on_unrecoverable == "degrade":
                        self.degraded += int(bad.size)
                        RESILIENCE_DEGRADED.inc(int(bad.size))
                        self._record(
                            "degraded",
                            f"{bad.size} element(s) kept corrupted after "
                            f"{attempts} repair rounds",
                        )
                        break
                    raise FaultError(
                        f"corruption in {bad.size} element(s) survived "
                        f"{attempts} repair rounds"
                    )
                healed = [self._heal_slot(int(i)) for i in bad]
                if not any(healed):
                    if self.policy.on_unrecoverable == "degrade":
                        self.degraded += int(bad.size)
                        RESILIENCE_DEGRADED.inc(int(bad.size))
                        self._record(
                            "degraded",
                            f"no stuck cells found under {bad.size} "
                            f"flagged element(s)",
                        )
                        break
                    raise FaultError(
                        f"residue flagged {bad.size} element(s) but BIST "
                        f"found no stuck cells under them"
                    )
                attempts += 1
                self.retries += 1
                RESILIENCE_RETRIES.inc()
                self._record("retry", f"re-executing {bad.size} element(s)")
                redone = np.atleast_1d(
                    np.asarray(redo(bad), dtype=np.int64)
                ).ravel()
                for slot, value in zip(bad, redone):
                    observed[slot] = self._corrupt(
                        int(value), int(slot), kind, width
                    )
        if shape == ():
            return observed.reshape(()).astype(np.int64)
        return observed.reshape(shape)

    def _heal_slot(self, index: int) -> bool:
        """Targeted scan + retirement of the row under a flagged element."""
        health = self.health
        block, row = health.slot_for(index)
        physical = health.fabric.resolve_row(block, row)
        scan = health.tester.scan_block(health.fabric, block, rows=[physical])
        record_bist_scan(len(scan.faults))
        self.ledger.charge("repair", scan.cost)
        if not scan.faults:
            return False
        health.faulty[block].update(site[0] for site in scan.faults)
        mechanism = health.retire_row(block, row)
        RESILIENCE_REPAIRS.inc(
            mechanism="spare" if mechanism == "repair" else "relocate"
        )
        self.ledger.charge(
            "repair", Cost(cycles=2, cell_writes=health.fabric.cols)
        )
        self._record(
            "row_retired" if mechanism == "repair" else "row_relocated",
            f"block {block} row {physical} ({len(scan.faults)} stuck cells)",
        )
        return True

    # -- fault application ---------------------------------------------------

    def _corrupt(self, value: int, index: int, kind: str, width) -> int:
        """Apply a slot's stuck bits to one result word."""
        stuck = self.health.stuck_bits(index)
        if not stuck:
            return value
        if kind == "magnitude":
            sign = -1 if value < 0 else 1
            word = abs(value)
            limit = width
        else:
            limit = width
            word = value % (1 << width)
        for bit, level in stuck:
            if bit >= limit:
                continue
            if level > 0.5:
                word |= 1 << bit
            else:
                word &= ~(1 << bit)
        if kind == "magnitude":
            return sign * word
        half = 1 << (width - 1)
        return word - (1 << width) if word >= half else word

    @staticmethod
    def _product_width(a, b) -> int:
        """Columns a sign-magnitude product of these operands occupies.

        Stuck cells past the stored word's last column cannot touch it, so
        corruption is bounded by the physical product width.
        """
        widths = []
        for operand in (a, b):
            peak = int(np.max(np.abs(np.asarray(operand, dtype=np.int64))))
            widths.append(max(1, peak.bit_length()))
        return min(62, widths[0] + widths[1])

    @staticmethod
    def _encode(values: np.ndarray, kind: str, width) -> np.ndarray:
        """The unsigned datapath encoding the residue checker folds over."""
        if kind == "magnitude":
            return np.abs(values)
        return values % np.int64(1 << width)

    @staticmethod
    def _take(operand, clean, idx: np.ndarray) -> np.ndarray:
        """Slice an (possibly scalar) operand down to flagged elements."""
        arr = np.broadcast_to(
            np.asarray(operand, dtype=np.int64), np.shape(clean)
        )
        return np.atleast_1d(arr).ravel()[idx]


class ResilienceContext:
    """Everything the runtime needs to execute on one faulty fabric.

    Bundles the fabric, the policy, the tester and the placement/repair
    state; :meth:`make_engine` hands the executor a fault-aware engine
    bound to them.  Build it *after* attaching fault injectors so the
    power-on sweep sees the faults.
    """

    def __init__(
        self,
        fabric: BlockedCrossbar,
        policy: ResiliencePolicy | None = None,
    ) -> None:
        self.policy = policy or ResiliencePolicy()
        self.tester = MarchTester()
        self.health = FabricHealth(fabric, self.policy, self.tester)

    @property
    def fabric(self) -> BlockedCrossbar:
        return self.health.fabric

    def make_engine(
        self,
        config: APIMConfig | None = None,
        spec: ApproxSpec = EXACT,
    ) -> ResilientEngine:
        """A fault-aware engine executing on this context's fabric."""
        return ResilientEngine(self.health, config, spec)
