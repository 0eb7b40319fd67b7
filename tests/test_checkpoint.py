"""Tests for the campaign checkpoint journal (repro.runtime.checkpoint).

The contract under test: a campaign killed at *any byte* of its journal
resumes without re-running completed points and without ever crashing on
the torn tail the kill left behind.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CheckpointError, ConfigurationError
from repro.runtime.campaign import CampaignPoint, run_campaign
from repro.runtime.checkpoint import CheckpointJournal, load_journal, recover
from repro.units import MIB


def _point(key_index: int) -> dict:
    return dataclasses.asdict(
        CampaignPoint(
            workload=f"W{key_index}",
            relax_bits=0,
            dataset_bytes=1024,
            qol_percent=0.0,
            qos_ok=True,
            speedup=2.0,
            energy_improvement=3.0,
            edp_improvement=6.0,
            apim_time_s=1e-3,
            apim_energy_j=1e-6,
        )
    )


def _write_journal(path, n_points: int) -> bytes:
    with CheckpointJournal(str(path)) as journal:
        journal.describe({"n": n_points})
        for i in range(n_points):
            journal.begin(f"k{i}")
            journal.complete(f"k{i}", _point(i))
    return path.read_bytes()


class TestJournalRoundTrip:
    def test_complete_points_load_back(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, 3)
        state = load_journal(str(path))
        assert sorted(state.completed) == ["k0", "k1", "k2"]
        assert state.in_flight == ()
        assert state.truncated == 0
        assert state.meta == ({"n": 3},)
        point = CampaignPoint(**state.completed["k1"])
        assert point.workload == "W1" and point.status == "ok"

    def test_begin_without_end_is_in_flight(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with CheckpointJournal(str(path)) as journal:
            journal.begin("k0")
            journal.complete("k0", _point(0))
            journal.begin("k1")  # killed mid-point
        state = load_journal(str(path))
        assert sorted(state.completed) == ["k0"]
        assert state.in_flight == ("k1",)

    def test_missing_file_is_empty(self, tmp_path):
        state = load_journal(str(tmp_path / "absent.jsonl"))
        assert state.completed == {} and state.records == 0

    def test_fresh_open_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, 2)
        CheckpointJournal(str(path), resume=False).close()
        assert load_journal(str(path)).records == 0

    def test_closed_journal_refuses_appends(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "j.jsonl"))
        journal.close()
        with pytest.raises(CheckpointError):
            journal.begin("k")

    def test_unwritable_path_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointJournal(str(tmp_path / "no" / "such" / "dir" / "j"))


class TestTornTail:
    def test_partial_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, 2)
        with open(path, "ab") as handle:  # torn mid-append: no newline
            handle.write(b'{"type":"end","key":"k9","point"')
        state = load_journal(str(path))
        assert sorted(state.completed) == ["k0", "k1"]
        assert state.truncated == 1

    def test_garbage_line_and_everything_after_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, 2)
        with open(path, "ab") as handle:
            handle.write(b"\x00\xff garbage\n")
            handle.write(
                json.dumps({"type": "end", "key": "k9",
                            "point": _point(9)}).encode() + b"\n"
            )
        state = load_journal(str(path))
        # Post-corruption records are tail garbage, not trusted history.
        assert "k9" not in state.completed
        assert state.truncated == 2

    def test_recover_truncates_in_place(self, tmp_path):
        path = tmp_path / "j.jsonl"
        clean = _write_journal(path, 2)
        with open(path, "ab") as handle:
            handle.write(b'{"torn')
        assert recover(str(path)) == 1
        assert path.read_bytes() == clean
        assert recover(str(path)) == 0  # idempotent

    def test_resume_open_recovers_before_appending(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write_journal(path, 1)
        with open(path, "ab") as handle:
            handle.write(b'{"torn')
        with CheckpointJournal(str(path), resume=True) as journal:
            journal.complete("k1", _point(1))
        state = load_journal(str(path))
        # The new record landed on a clean line, not spliced into the tear.
        assert sorted(state.completed) == ["k0", "k1"]
        assert state.truncated == 0

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=0, max_value=2000))
    def test_any_truncation_yields_a_clean_prefix(self, tmp_path_factory,
                                                  cut):
        """The kill-at-any-byte property: load never raises, and the
        completed set is exactly the ``end`` records that fully survived,
        in prefix order."""
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        raw = _write_journal(path, 4)
        cut = min(cut, len(raw))
        path.write_bytes(raw[:cut])
        state = load_journal(str(path))
        # Completed keys form a prefix of k0..k3.
        expected_prefix = [f"k{i}" for i in range(4)]
        n = len(state.completed)
        assert sorted(state.completed) == expected_prefix[:n]
        # Recovery then leaves a loadable journal with the same state.
        recover(str(path))
        after = load_journal(str(path))
        assert sorted(after.completed) == sorted(state.completed)
        assert after.truncated == 0


class TestKillAndResume:
    class _KillingHarness:
        """Delegates to a real harness, dying on pricing N + 1, whether a
        priced-memo hit or a compare call — the in-process stand-in for
        SIGKILL mid-grid."""

        def __init__(self, inner, die_after: int) -> None:
            self.inner = inner
            self.die_after = die_after
            self.pricings = 0

        def _pricing(self) -> None:
            if self.pricings >= self.die_after:
                raise KeyboardInterrupt("simulated SIGKILL")
            self.pricings += 1

        def priced(self, workload, dataset_bytes, spec):
            entry = self.inner.priced(workload, dataset_bytes, spec)
            if entry is not None:
                self._pricing()
            return entry

        def compare(self, workload, dataset_bytes, spec):
            self._pricing()
            return self.inner.compare(workload, dataset_bytes, spec)

        def cpu_fallback(self, workload, dataset_bytes):
            return self.inner.cpu_fallback(workload, dataset_bytes)

    def _harness(self, die_after: int):
        from repro.runtime.comparison import ComparisonHarness

        inner = ComparisonHarness(tile_elements=1 << 9)
        return self._KillingHarness(inner, die_after)

    def test_resume_runs_only_incomplete_points(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        grid = dict(
            workloads=["Robert"], relax_levels=[0, 16, 32],
            dataset_bytes=64 * MIB,
        )
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                **grid, harness=self._harness(die_after=2), checkpoint=path
            )
        state = load_journal(path)
        assert len(state.completed) == 2
        assert state.in_flight == ("Robert/m32/67108864B",)

        survivor = self._harness(die_after=100)
        result = run_campaign(
            **grid, harness=survivor, checkpoint=path, resume=True
        )
        # Only the killed point re-ran; completed points came from the
        # journal.
        assert survivor.pricings == 1
        assert len(result.points) == 3
        assert [p.relax_bits for p in result.points] == [0, 16, 32]
        final = load_journal(path)
        assert len(final.completed) == 3 and final.in_flight == ()

    def test_resume_without_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(["Robert"], [0], resume=True)

    def test_resumed_points_match_a_straight_run(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        grid = dict(
            workloads=["Robert"], relax_levels=[0, 16],
            dataset_bytes=64 * MIB, tile_elements=1 << 9,
        )
        straight = run_campaign(**grid)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(
                **grid, harness=self._harness(die_after=1), checkpoint=path
            )
        resumed = run_campaign(**grid, checkpoint=path, resume=True)
        assert resumed.to_rows() == straight.to_rows()
