"""Lane scheduling of kernel DAGs onto the APIM machine.

One crossbar block pair executes one operation chain at a time; the
machine's parallelism is its lane count
(:meth:`~repro.core.config.APIMConfig.parallel_lanes`).  Given a kernel
DAG, the :class:`ListScheduler` assigns every arithmetic node to a lane
and a start cycle, respecting data dependencies, and reports

- **makespan** — cycles until the last node finishes;
- **critical path** — the dependence-bound lower limit;
- **utilisation** — busy lane-cycles over makespan * lanes.

Costs come from the canonical formulas (:func:`op_cycles`); multiplies are
priced at the random-operand average (popcount = N/2), matching how the
runtime's aggregate accounting behaves in expectation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.compiler.ir import Kernel, Node, OpKind
from repro.core.approximation import EXACT, ApproxSpec
from repro.core.config import APIMConfig, default_config
from repro.core.timing import cost_hybrid_final_add, cost_multiply, cost_wallace_reduce
from repro.errors import ConfigurationError

__all__ = ["op_cycles", "ListScheduler", "Schedule", "ScheduledNode"]


def op_cycles(
    node: Node, config: APIMConfig | None = None, spec: ApproxSpec = EXACT
) -> int:
    """Expected APIM cycles of one IR node under an approximation spec."""
    config = config or default_config()
    n = config.word_bits
    if node.kind is OpKind.MUL:
        relax = min(spec.relax_bits, 2 * n)
        return int(cost_multiply(n, n // 2, relax).cycles)
    if node.kind in (OpKind.ADD, OpKind.SUB):
        width = node.attrs.get("width", n)
        relax = min(spec.relax_bits, width)
        return int(cost_hybrid_final_add(width, relax).cycles)
    if node.kind is OpKind.SUM:
        width = node.attrs.get("width", n)
        operands = len(node.operands)
        relax = min(spec.relax_bits, width)
        reduce_cycles = cost_wallace_reduce(operands, width).cycles
        return int(reduce_cycles + cost_hybrid_final_add(width, relax).cycles)
    # INPUT/CONST/SHR/SHL/ABS are free in latency.
    return 0


@dataclass(frozen=True)
class ScheduledNode:
    """Placement of one node: lane and cycle interval [start, end)."""

    node_id: int
    lane: int
    start: int
    end: int


@dataclass(frozen=True)
class Schedule:
    """A complete lane assignment for a kernel."""

    kernel: str
    lanes: int
    placements: tuple[ScheduledNode, ...]
    makespan: int
    critical_path: int

    @property
    def utilization(self) -> float:
        """Busy lane-cycles over available lane-cycles."""
        busy = sum(p.end - p.start for p in self.placements)
        available = self.makespan * self.lanes
        return busy / available if available else 1.0


class ListScheduler:
    """Critical-path list scheduling onto a fixed lane count."""

    def __init__(
        self,
        lanes: int,
        spec: ApproxSpec = EXACT,
    ) -> None:
        if lanes <= 0:
            raise ConfigurationError(f"lanes must be positive: {lanes}")
        self.lanes = lanes
        self.config = default_config()
        self.spec = spec

    # -- analysis ----------------------------------------------------------

    def _costs(self, kernel: Kernel) -> list[int]:
        return [op_cycles(n, self.config, self.spec) for n in kernel.nodes]

    def critical_path(self, kernel: Kernel) -> int:
        """Longest dependence chain in cycles (schedule lower bound)."""
        costs = self._costs(kernel)
        longest = [0] * len(kernel.nodes)
        for node in kernel.nodes:  # topological order
            base = max(
                (longest[i] for i in node.operands), default=0
            )
            longest[node.id] = base + costs[node.id]
        return max(longest, default=0)

    # -- scheduling -----------------------------------------------------------

    def schedule(self, kernel: Kernel) -> Schedule:
        """Assign every node a lane and start cycle.

        Classic list scheduling: nodes become ready when their operands
        complete; the ready node with the longest remaining critical path
        wins the next free lane.  Free (zero-cost) nodes complete at their
        operands' finish time without occupying a lane slot.
        """
        costs = self._costs(kernel)
        consumers = kernel.consumers()

        # Downstream critical path (priority).
        downstream = [0] * len(kernel.nodes)
        for node in reversed(kernel.nodes):
            tail = max(
                (downstream[c] for c in consumers[node.id]), default=0
            )
            downstream[node.id] = costs[node.id] + tail

        pending = {
            n.id: len(n.operands) for n in kernel.nodes
        }
        finish = [0] * len(kernel.nodes)
        placements: list[ScheduledNode] = []
        # Lane availability as a min-heap of (free_at, lane).
        lanes = [(0, lane) for lane in range(self.lanes)]
        heapq.heapify(lanes)
        # Ready heap: (-priority, node_id, earliest_start).
        ready: list[tuple[int, int, int]] = []
        for node in kernel.nodes:
            if pending[node.id] == 0:
                heapq.heappush(ready, (-downstream[node.id], node.id, 0))

        scheduled = 0
        while ready:
            _, node_id, earliest = heapq.heappop(ready)
            cost = costs[node_id]
            if cost == 0:
                start = end = earliest
                lane = -1  # free nodes occupy no lane
            else:
                free_at, lane = heapq.heappop(lanes)
                start = max(free_at, earliest)
                end = start + cost
                heapq.heappush(lanes, (end, lane))
            finish[node_id] = end
            placements.append(
                ScheduledNode(node_id=node_id, lane=lane, start=start, end=end)
            )
            scheduled += 1
            for consumer in consumers[node_id]:
                pending[consumer] -= 1
                if pending[consumer] == 0:
                    earliest_start = max(
                        finish[i] for i in kernel.nodes[consumer].operands
                    )
                    heapq.heappush(
                        ready,
                        (-downstream[consumer], consumer, earliest_start),
                    )
        if scheduled != len(kernel.nodes):  # pragma: no cover - defensive
            raise ConfigurationError("scheduler failed to place every node")
        return Schedule(
            kernel=kernel.name,
            lanes=self.lanes,
            placements=tuple(placements),
            makespan=max(finish, default=0),
            critical_path=self.critical_path(kernel),
        )
