"""The memory controller: APIM's command interface (Figure 1(b)).

The paper's controller sits at the periphery of the memory unit, decodes
commands, sequences MAGIC voltages, configures the interconnect and gates
copies on sensed multiplier bits.  This module provides that interface as
a small command set plus an executor:

========  ============================================  =================
opcode    operands                                      effect
========  ============================================  =================
``WR``    block, row, value, width                      DMA word write
``RD``    block, row, width                             word read (result)
``CLR``   block, row                                    bulk row erase
``INIT``  block, [(row, col), ...]                      SET cells to '1'
``NOR``   block, [(row, col), ...] inputs, (row, col)   one MAGIC NOR
``CPY``   src_block, src_row, dst_block, dst_row,       shifted copy
          width, shift, shared
``MAJ``   block, col, (row, row, row), dst (row, col)   SA majority +
                                                        write-back
``RETIRE``  block, row                                  spare-row remap
``TICK``  cycles                                        controller delay
========  ============================================  =================

Commands have a canonical one-line assembly form (:func:`assemble` /
:func:`format_command`), so micro-programs can be stored, diffed and
replayed — the repository uses this for golden-trace tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core.cost import Cost
from repro.crossbar.block import BlockedCrossbar
from repro.errors import CrossbarError
from repro.observability.instruments import record_controller_command
from repro.observability.tracing import current_trace

__all__ = [
    "Command",
    "MemoryController",
    "assemble",
    "assemble_program",
    "format_command",
]

#: Opcodes accepted by the controller.
OPCODES = ("WR", "RD", "CLR", "INIT", "NOR", "CPY", "MAJ", "RETIRE", "TICK")


@dataclass(frozen=True)
class Command:
    """One controller command: opcode plus positional arguments."""

    opcode: str
    args: tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        if self.opcode not in OPCODES:
            raise CrossbarError(
                f"unknown opcode {self.opcode!r}; expected one of {OPCODES}"
            )


def _cells_to_text(cells: Sequence[tuple[int, int]]) -> str:
    return ",".join(f"{r}:{c}" for r, c in cells)


def _cells_from_text(text: str) -> tuple[tuple[int, int], ...]:
    cells = []
    for item in text.split(","):
        row, _, col = item.partition(":")
        cells.append((int(row), int(col)))
    return tuple(cells)


def format_command(command: Command) -> str:
    """Canonical one-line assembly of a command."""
    op, a = command.opcode, command.args
    if op == "WR":
        return f"WR b{a[0]} r{a[1]} {a[2]:#x} w{a[3]}"
    if op == "RD":
        return f"RD b{a[0]} r{a[1]} w{a[2]}"
    if op == "CLR":
        return f"CLR b{a[0]} r{a[1]}"
    if op == "INIT":
        return f"INIT b{a[0]} {_cells_to_text(a[1])}"
    if op == "NOR":
        return f"NOR b{a[0]} {_cells_to_text(a[1])} -> {a[2][0]}:{a[2][1]}"
    if op == "CPY":
        shared = " shared" if a[6] else ""
        return (
            f"CPY b{a[0]} r{a[1]} -> b{a[2]} r{a[3]} w{a[4]} s{a[5]}{shared}"
        )
    if op == "MAJ":
        return (
            f"MAJ b{a[0]} c{a[1]} {a[2][0]},{a[2][1]},{a[2][2]} "
            f"-> {a[3][0]}:{a[3][1]}"
        )
    if op == "RETIRE":
        return f"RETIRE b{a[0]} r{a[1]}"
    return f"TICK {a[0]}"


def assemble(line: str) -> Command:
    """Parse one assembly line back into a :class:`Command`."""
    tokens = line.split()
    if not tokens:
        raise CrossbarError("empty command line")
    op = tokens[0].upper()

    def block(tok: str) -> int:
        if not tok.startswith("b"):
            raise CrossbarError(f"expected block token, got {tok!r}")
        return int(tok[1:])

    def row(tok: str) -> int:
        if not tok.startswith("r"):
            raise CrossbarError(f"expected row token, got {tok!r}")
        return int(tok[1:])

    def width(tok: str) -> int:
        if not tok.startswith("w"):
            raise CrossbarError(f"expected width token, got {tok!r}")
        return int(tok[1:])

    try:
        if op == "WR":
            return Command(
                "WR",
                (block(tokens[1]), row(tokens[2]), int(tokens[3], 0),
                 width(tokens[4])),
            )
        if op == "RD":
            return Command(
                "RD", (block(tokens[1]), row(tokens[2]), width(tokens[3]))
            )
        if op == "CLR":
            return Command("CLR", (block(tokens[1]), row(tokens[2])))
        if op == "INIT":
            return Command(
                "INIT", (block(tokens[1]), _cells_from_text(tokens[2]))
            )
        if op == "NOR":
            out_row, _, out_col = tokens[4].partition(":")
            return Command(
                "NOR",
                (
                    block(tokens[1]),
                    _cells_from_text(tokens[2]),
                    (int(out_row), int(out_col)),
                ),
            )
        if op == "CPY":
            shared = len(tokens) > 8 and tokens[8] == "shared"
            return Command(
                "CPY",
                (
                    block(tokens[1]), row(tokens[2]),
                    block(tokens[4]), row(tokens[5]),
                    width(tokens[6]), int(tokens[7][1:]), shared,
                ),
            )
        if op == "MAJ":
            rows = tuple(int(t) for t in tokens[3].split(","))
            out_row, _, out_col = tokens[5].partition(":")
            return Command(
                "MAJ",
                (
                    block(tokens[1]), int(tokens[2][1:]), rows,
                    (int(out_row), int(out_col)),
                ),
            )
        if op == "RETIRE":
            return Command("RETIRE", (block(tokens[1]), row(tokens[2])))
        if op == "TICK":
            return Command("TICK", (int(tokens[1]),))
    except (IndexError, ValueError) as exc:
        raise CrossbarError(f"malformed command {line!r}: {exc}") from exc
    raise CrossbarError(f"unknown opcode in {line!r}")


def assemble_program(text: str) -> list[Command]:
    """Parse a multi-line program (``#`` comments and blanks ignored)."""
    program = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            program.append(assemble(line))
    return program


class MemoryController:
    """Executes command streams on a :class:`BlockedCrossbar`.

    Read results accumulate in :attr:`results` in program order; the
    executed command log is kept for golden-trace comparison.
    """

    def __init__(self, fabric: BlockedCrossbar) -> None:
        self.fabric = fabric
        self.results: list[int] = []
        self.log: list[Command] = []

    @property
    def cost(self) -> Cost:
        """The fabric's aggregate cost (commands execute on its clock)."""
        return self.fabric.total_cost

    def execute(self, command: Command) -> int | None:
        """Run one command; RD returns (and records) the word read."""
        self.log.append(command)
        op, a = command.opcode, command.args
        record_controller_command(
            op, cells=len(a[1]) if op in ("INIT", "NOR") else 0
        )
        fabric = self.fabric
        if op == "WR":
            fabric.write_word(a[0], a[1], a[2], a[3])
            return None
        if op == "RD":
            value = fabric.read_word(a[0], a[1], a[2])
            self.results.append(value)
            return value
        if op == "CLR":
            fabric.block(a[0]).clear_row(a[1])
            return None
        if op == "INIT":
            fabric.sync_clocks()
            fabric.engine(a[0]).init_cells(list(a[1]))
            return None
        if op == "NOR":
            fabric.sync_clocks()
            fabric.engine(a[0]).nor_cells(list(a[1]), a[2])
            return None
        if op == "CPY":
            fabric.copy_row_shifted(
                a[0], a[1], a[2], a[3],
                width=a[4], shift=a[5], inverted_ready=a[6],
            )
            return None
        if op == "MAJ":
            blk, col, rows, dst = a
            bit = fabric.sense_amp(blk).majority(col, rows)
            fabric.advance_clock(1)
            fabric.block(blk).set_value(dst[0], dst[1], bit)
            fabric.advance_clock(1)
            fabric.charge_writes(1)
            return None
        if op == "RETIRE":
            fabric.retire_row(a[0], a[1])
            return None
        if op == "TICK":
            fabric.advance_clock(a[0])
            return None
        raise CrossbarError(f"unhandled opcode {op}")  # pragma: no cover

    def run(self, program: Sequence[Command]) -> list[int]:
        """Execute a whole program; returns all RD results in order."""
        start = len(self.results)
        for command in program:
            self.execute(command)
        # One summary event per program, not one per command: command
        # streams run to millions, which would instantly exhaust a trace's
        # event budget and dominate its cost.
        trace = current_trace()
        if trace is not None and program:
            opcodes: dict[str, int] = {}
            for command in program:
                opcodes[command.opcode] = opcodes.get(command.opcode, 0) + 1
            trace.event(
                "controller", "program",
                commands=len(program),
                opcodes=dict(sorted(opcodes.items())),
            )
        return self.results[start:]

    def transcript(self) -> str:
        """The executed command log in assembly form."""
        return "\n".join(format_command(c) for c in self.log)
