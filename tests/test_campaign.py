"""Tests for the campaign grid runner (repro.runtime.campaign)."""

from __future__ import annotations

import csv
import io

import pytest

from repro.errors import ConfigurationError
from repro.runtime.campaign import run_campaign
from repro.units import MIB


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(
        workloads=["Sobel", "Robert"],
        relax_levels=[0, 24, 32],
        dataset_bytes=512 * MIB,
        tile_elements=1 << 10,
    )


class TestGrid:
    def test_full_grid_produced(self, campaign):
        assert len(campaign.points) == 6
        assert {p.workload for p in campaign.points} == {"Sobel", "Robert"}
        assert {p.relax_bits for p in campaign.points} == {0, 24, 32}

    def test_exact_points_meet_qos(self, campaign):
        for point in campaign.points:
            if point.relax_bits == 0:
                assert point.qos_ok
                assert point.qol_percent == 0.0

    def test_edp_monotone_per_workload(self, campaign):
        for name in ("Sobel", "Robert"):
            edps = [
                p.edp_improvement
                for p in campaign.points
                if p.workload == name
            ]
            assert edps == sorted(edps)


class TestExport:
    def test_csv_round_trip(self, campaign):
        parsed = list(csv.reader(io.StringIO(campaign.to_csv())))
        header, rows = campaign.to_rows()
        assert parsed[0] == header
        assert len(parsed) == len(rows) + 1

    def test_rows_align_with_points(self, campaign):
        header, rows = campaign.to_rows()
        assert len(rows) == len(campaign.points)
        assert all(len(r) == len(header) for r in rows)


class TestValidation:
    def test_empty_workloads_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign([], [0])

    def test_empty_levels_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(["Sobel"], [])

    def test_negative_level_rejected(self):
        with pytest.raises(ConfigurationError):
            run_campaign(["Sobel"], [-4])

    def test_accepts_workload_objects(self):
        from repro.workloads import workload_by_name

        result = run_campaign(
            [workload_by_name("Robert")], [0], dataset_bytes=64 * MIB,
            tile_elements=1 << 9,
        )
        assert result.points[0].workload == "Robert"


class TestSupervisionAccounting:
    def test_rows_carry_status_and_attempts(self, campaign):
        header, rows = campaign.to_rows()
        status_col = header.index("status")
        attempts_col = header.index("attempts")
        assert all(row[status_col] == "ok" for row in rows)
        assert all(row[attempts_col] == 1 for row in rows)

    def test_status_counts_and_yield(self, campaign):
        counts = campaign.status_counts()
        assert counts["ok"] == len(campaign.points)
        assert sum(counts.values()) == len(campaign.points)
        assert campaign.completion_yield == 1.0

    def test_point_keys_are_stable(self, campaign):
        from repro.runtime.campaign import point_key

        point = campaign.points[0]
        expected = point_key(
            point.workload, point.relax_bits, point.dataset_bytes
        )
        assert point.key == expected
        assert f"m{point.relax_bits}" in expected

    def test_bad_status_rejected(self):
        import dataclasses

        from repro.runtime.campaign import CampaignPoint

        template = dataclasses.asdict(
            CampaignPoint(
                workload="W", relax_bits=0, dataset_bytes=1024,
                qol_percent=0.0, qos_ok=True, speedup=1.0,
                energy_improvement=1.0, edp_improvement=1.0,
                apim_time_s=1.0, apim_energy_j=1.0,
            )
        )
        template["status"] = "vanished"
        with pytest.raises(ConfigurationError):
            CampaignPoint(**template)

    def test_supervised_run_matches_unsupervised(self):
        """Wiring a supervisor changes nothing when nothing fails."""
        from repro.runtime.supervisor import (
            ManualClock,
            RetryPolicy,
            Supervisor,
        )

        grid = dict(
            workloads=["Robert"], relax_levels=[0, 16],
            dataset_bytes=64 * MIB, tile_elements=1 << 9,
        )
        plain = run_campaign(**grid)
        supervised = run_campaign(
            **grid,
            supervisor=Supervisor(
                clock=ManualClock(), retry=RetryPolicy(max_attempts=3)
            ),
        )
        assert supervised.to_rows() == plain.to_rows()
