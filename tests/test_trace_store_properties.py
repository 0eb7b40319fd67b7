"""Property test: :class:`TraceStore` against a plain reference model.

Random programs of ``new_trace`` (with and without an id, some reusing a
resident id, with 0-4 opening events of either tuple shape) and
``append`` calls run against a store of capacity 1-4 and ``max_events``
1-3, with and without a spill file, and against :class:`_ModelStore`, a
list-and-dict restatement of the store's contract.  Both sides must
agree on every ``timeline()``, the ``evicted``/``spilled`` counts, each
trace's ``dropped_events`` (part of its timeline) and the spill file's
lines, in order.  Both read the same kind of counting clock: once per
opened trace and once per stored append.
"""

from __future__ import annotations

import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.observability.tracing import TraceStore

PREFIX = "t"
IDS = ("a-1", "b-2", "c-3")

_attrs = st.dictionaries(
    st.sampled_from(("k", "n", "x")), st.integers(0, 9), max_size=2
)
_event = st.one_of(
    st.tuples(st.sampled_from(("frontend", "campaign")),
              st.sampled_from(("admitted", "hit"))),
    st.tuples(st.sampled_from(("journal", "pool")),
              st.sampled_from(("admitted", "dispatch")),
              st.sampled_from(("", "why")), _attrs),
)
_open = st.tuples(
    st.just("open"),
    st.one_of(st.none(), st.sampled_from(IDS)),
    st.lists(_event, max_size=4),
    st.sampled_from(({}, {"tenant": "pin"})),
)
_append = st.tuples(
    st.just("append"),
    st.sampled_from(IDS + ("t.0", "t.1", "gone")),
    _event,
)


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class _ModelStore:
    """The store's contract restated over a list of ``[id, dict]``."""

    def __init__(self, capacity: int, max_events: int, spill: bool) -> None:
        self.capacity = capacity
        self.max_events = max_events
        self.spill = spill
        self.clock = _Clock()
        self.seq = 0
        self.records: list[list] = []  # oldest first
        self.spill_lines: list[dict] = []
        self.evicted = 0
        self.spilled = 0

    def _index(self, trace_id: str) -> int | None:
        for index, (known, _) in enumerate(self.records):
            if known == trace_id:
                return index
        return None

    @staticmethod
    def _event(ts: float, event: tuple) -> dict:
        layer, kind, *rest = event
        out = {"ts": ts, "layer": layer, "kind": kind}
        if rest and rest[0]:
            out["detail"] = rest[0]
        if len(rest) > 1 and rest[1]:
            out["attrs"] = dict(rest[1])
        return out

    def new_trace(self, trace_id, events, baggage) -> str:
        gone = []
        if trace_id is None:
            trace_id = f"{PREFIX}.{self.seq:x}"
            self.seq += 1
        else:
            index = self._index(trace_id)
            if index is not None:
                gone.append(self.records.pop(index)[1])
        now = self.clock()
        self.records.append([trace_id, {
            "trace_id": trace_id,
            "created_ts": now,
            "baggage": dict(baggage),
            "events": [self._event(now, e) for e in events][: self.max_events],
            "dropped_events": max(0, len(events) - self.max_events),
        }])
        while len(self.records) > self.capacity:
            gone.append(self.records.pop(0)[1])
        self.evicted += len(gone)
        if self.spill and gone:
            self.spill_lines.extend(gone)
            self.spilled += len(gone)
        return trace_id

    def append(self, trace_id, event) -> None:
        index = self._index(trace_id)
        if index is None:
            return
        record = self.records[index][1]
        if len(record["events"]) >= self.max_events:
            record["dropped_events"] += 1
            return
        record["events"].append(self._event(self.clock(), event))

    def timeline(self, trace_id):
        index = self._index(trace_id)
        return None if index is None else self.records[index][1]


@settings(max_examples=150, deadline=None)
@given(
    capacity=st.integers(1, 4),
    max_events=st.integers(1, 3),
    spill=st.booleans(),
    program=st.lists(st.one_of(_open, _append), max_size=14),
)
def test_store_matches_the_reference_model(
    capacity, max_events, spill, program
):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "spill.jsonl") if spill else None
        store = TraceStore(
            capacity=capacity, max_events=max_events, spill_path=path,
            clock=_Clock(), id_prefix=PREFIX,
        )
        model = _ModelStore(capacity, max_events, spill)
        seen = set()
        for step in program:
            if step[0] == "open":
                _, trace_id, events, baggage = step
                # Each side gets its own attrs dicts: the store keeps its.
                got = store.new_trace(
                    trace_id,
                    [e[:3] + (dict(e[3]),) if len(e) == 4 else e
                     for e in events],
                    **baggage,
                ).trace_id
                assert got == model.new_trace(trace_id, events, baggage)
                seen.add(got)
            else:
                _, trace_id, event = step
                live = store.get(trace_id)
                args = event[:3] + (dict(event[3]),) if len(event) == 4 else event
                store.append(trace_id, *args)
                model.append(trace_id, event)
                if live is not None:  # get() hands out the live record
                    assert live.to_dict() == model.timeline(trace_id)
            assert store.evicted == model.evicted
            assert store.spilled == model.spilled
            assert len(store) == len(model.records)
        for trace_id in seen | set(IDS):
            assert store.timeline(trace_id) == model.timeline(trace_id)
        lines = []
        if spill and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                lines = [json.loads(line) for line in handle]
        assert lines == model.spill_lines
