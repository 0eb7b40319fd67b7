"""The kernel IR: a dataflow DAG of fixed-point operations.

A :class:`Kernel` is an immutable DAG built through a
:class:`KernelBuilder`.  Nodes are fixed-point operations over signed
values (the engine's domain); edges are data dependencies.  The builder
enforces well-formedness at construction time — operands must already
exist, so the graph is acyclic by construction and the node list is a
valid topological order.

Example::

    b = KernelBuilder("saxpy")
    x = b.input("x")
    y = b.input("y")
    a = b.const(3 << 14)               # Q14 coefficient
    b.output("out", b.shr(b.add(b.mul(a, x), b.shl(y, 14)), 14))
    kernel = b.build()
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import WorkloadError

__all__ = ["OpKind", "Node", "Kernel", "KernelBuilder"]


class OpKind(enum.Enum):
    """Operation kinds of the kernel IR."""

    INPUT = "input"
    CONST = "const"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    SUM = "sum"  # n-ary fast-adder reduction
    SHR = "shr"
    SHL = "shl"
    ABS = "abs"

    @property
    def is_arithmetic(self) -> bool:
        """True for operations that consume APIM cycles."""
        return self in (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.SUM)


#: Required operand counts (None = variadic with a minimum of 1).
_ARITY: dict[OpKind, int | None] = {
    OpKind.INPUT: 0,
    OpKind.CONST: 0,
    OpKind.ADD: 2,
    OpKind.SUB: 2,
    OpKind.MUL: 2,
    OpKind.SUM: None,
    OpKind.SHR: 1,
    OpKind.SHL: 1,
    OpKind.ABS: 1,
}


@dataclass(frozen=True)
class Node:
    """One IR node.

    Attributes
    ----------
    id:
        Dense index into the kernel's node list (also its topological
        position).
    kind:
        The operation.
    operands:
        Ids of this node's inputs.
    attrs:
        Kind-specific attributes: ``name`` (INPUT), ``value`` (CONST),
        ``shift`` (SHR/SHL), ``width`` (ADD/SUB/SUM accumulator width).
    """

    id: int
    kind: OpKind
    operands: tuple[int, ...] = ()
    attrs: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Kernel:
    """An immutable, validated kernel DAG."""

    name: str
    nodes: tuple[Node, ...]
    inputs: dict[str, int]      # name -> node id
    outputs: dict[str, int]     # name -> node id

    def node(self, node_id: int) -> Node:
        """Fetch one node by id."""
        if not 0 <= node_id < len(self.nodes):
            raise WorkloadError(f"node id {node_id} outside the kernel")
        return self.nodes[node_id]

    def consumers(self) -> dict[int, tuple[int, ...]]:
        """Reverse edges: node id -> ids of nodes that read it."""
        out: dict[int, list[int]] = {n.id: [] for n in self.nodes}
        for node in self.nodes:
            for operand in node.operands:
                out[operand].append(node.id)
        return {k: tuple(v) for k, v in out.items()}

    def arithmetic_ops(self) -> int:
        """Number of cycle-consuming operations."""
        return sum(1 for n in self.nodes if n.kind.is_arithmetic)

    def __len__(self) -> int:
        return len(self.nodes)


class KernelBuilder:
    """Constructs a :class:`Kernel` one operation at a time.

    Every factory method returns the new node's id, which later operations
    consume — the ids double as SSA value names.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise WorkloadError("kernel needs a non-empty name")
        self.name = name
        self._nodes: list[Node] = []
        self._inputs: dict[str, int] = {}
        self._outputs: dict[str, int] = {}

    # -- node factories ------------------------------------------------------

    def _emit(self, kind: OpKind, operands: tuple[int, ...], **attrs) -> int:
        arity = _ARITY[kind]
        if arity is None:
            if not operands:
                raise WorkloadError(f"{kind.value} needs at least one operand")
        elif len(operands) != arity:
            raise WorkloadError(
                f"{kind.value} expects {arity} operands, got {len(operands)}"
            )
        for operand in operands:
            if not 0 <= operand < len(self._nodes):
                raise WorkloadError(
                    f"operand {operand} does not exist yet "
                    f"(kernel has {len(self._nodes)} nodes)"
                )
        node = Node(
            id=len(self._nodes), kind=kind, operands=operands, attrs=attrs
        )
        self._nodes.append(node)
        return node.id

    def input(self, name: str) -> int:
        """Declare a named input array."""
        if name in self._inputs:
            raise WorkloadError(f"duplicate input {name!r}")
        node_id = self._emit(OpKind.INPUT, (), name=name)
        self._inputs[name] = node_id
        return node_id

    def const(self, value: int) -> int:
        """A compile-time scalar constant."""
        return self._emit(OpKind.CONST, (), value=int(value))

    def add(self, a: int, b: int, width: int = 48) -> int:
        """Signed addition at ``width`` bits."""
        return self._emit(OpKind.ADD, (a, b), width=width)

    def sub(self, a: int, b: int, width: int = 48) -> int:
        """Signed subtraction at ``width`` bits."""
        return self._emit(OpKind.SUB, (a, b), width=width)

    def mul(self, a: int, b: int) -> int:
        """Signed multiplication (full product)."""
        return self._emit(OpKind.MUL, (a, b))

    def sum(self, operands: list[int], width: int = 52) -> int:
        """N-ary fast-adder reduction."""
        return self._emit(OpKind.SUM, tuple(operands), width=width)

    def shr(self, a: int, shift: int) -> int:
        """Arithmetic right shift (fixed-point rescale; free latency)."""
        if shift < 0:
            raise WorkloadError(f"shift must be >= 0: {shift}")
        return self._emit(OpKind.SHR, (a,), shift=shift)

    def shl(self, a: int, shift: int) -> int:
        """Left shift (free latency)."""
        if shift < 0:
            raise WorkloadError(f"shift must be >= 0: {shift}")
        return self._emit(OpKind.SHL, (a,), shift=shift)

    def abs(self, a: int) -> int:
        """Magnitude (free on the sign-magnitude datapath)."""
        return self._emit(OpKind.ABS, (a,))

    def output(self, name: str, node_id: int) -> None:
        """Mark a node as a named kernel output."""
        if name in self._outputs:
            raise WorkloadError(f"duplicate output {name!r}")
        if not 0 <= node_id < len(self._nodes):
            raise WorkloadError(f"output refers to unknown node {node_id}")
        self._outputs[name] = node_id

    # -- finalisation -------------------------------------------------------

    def build(self) -> Kernel:
        """Validate and freeze the kernel."""
        if not self._outputs:
            raise WorkloadError(f"kernel {self.name!r} has no outputs")
        live = self._reachable()
        dead = [
            n.id
            for n in self._nodes
            if n.id not in live and n.kind is not OpKind.INPUT
        ]
        if dead:
            raise WorkloadError(
                f"kernel {self.name!r} has dead nodes {dead}; "
                "every non-input node must feed an output"
            )
        return Kernel(
            name=self.name,
            nodes=tuple(self._nodes),
            inputs=dict(self._inputs),
            outputs=dict(self._outputs),
        )

    def _reachable(self) -> set[int]:
        seen: set[int] = set()
        stack = list(self._outputs.values())
        while stack:
            node_id = stack.pop()
            if node_id in seen:
                continue
            seen.add(node_id)
            stack.extend(self._nodes[node_id].operands)
        return seen
