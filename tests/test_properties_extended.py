"""Property-based tests over the extension layers (hypothesis).

Random generators probe the controller and the allocator the way
hand-written cases cannot: arbitrary command sequences through the
assembler, arbitrary allocation patterns through the row allocator.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crossbar.controller import Command, assemble, format_command
from repro.device.endurance import RotatingAllocator
from repro.errors import DeviceError


# ---------------------------------------------------------------------------
# controller assembly round-trips
# ---------------------------------------------------------------------------

cells = st.tuples(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
)

commands = st.one_of(
    st.builds(
        lambda b, r, v, w: Command("WR", (b, r, v % (1 << w), w)),
        st.integers(0, 3), st.integers(0, 63),
        st.integers(0, (1 << 16) - 1), st.integers(1, 16),
    ),
    st.builds(
        lambda b, r, w: Command("RD", (b, r, w)),
        st.integers(0, 3), st.integers(0, 63), st.integers(1, 16),
    ),
    st.builds(lambda b, r: Command("CLR", (b, r)),
              st.integers(0, 3), st.integers(0, 63)),
    st.builds(
        lambda b, cs: Command("INIT", (b, tuple(cs))),
        st.integers(0, 3), st.lists(cells, min_size=1, max_size=5),
    ),
    st.builds(
        lambda b, ins, out: Command("NOR", (b, tuple(ins), out)),
        st.integers(0, 3), st.lists(cells, min_size=1, max_size=3), cells,
    ),
    st.builds(
        lambda sb, sr, db, dr, w, s, sh: Command(
            "CPY", (sb, sr, db, dr, w, s, sh)
        ),
        st.integers(0, 3), st.integers(0, 63), st.integers(0, 3),
        st.integers(0, 63), st.integers(1, 32), st.integers(0, 15),
        st.booleans(),
    ),
    st.builds(
        lambda b, c, rows, out: Command("MAJ", (b, c, rows, out)),
        st.integers(0, 3), st.integers(0, 63),
        st.tuples(st.integers(0, 63), st.integers(0, 63),
                  st.integers(0, 63)),
        cells,
    ),
    st.builds(lambda t: Command("TICK", (t,)), st.integers(0, 1000)),
)


class TestControllerProperties:
    @settings(max_examples=200, deadline=None)
    @given(commands)
    def test_assembly_round_trip(self, command):
        assert assemble(format_command(command)) == command


class TestAllocatorProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=4, max_value=64),
        st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                 max_size=30),
    )
    def test_rotating_allocator_never_double_allocates(self, rows, sizes):
        allocator = RotatingAllocator(rows)
        outstanding: set[int] = set()
        for size in sizes:
            if size > rows - len(outstanding):
                with pytest.raises(DeviceError):
                    allocator.alloc(size)
                continue
            taken = allocator.alloc(size)
            assert not (set(taken) & outstanding)
            outstanding.update(taken)
