"""Chaos recovery study: completion yield under injected runtime faults.

The supervised campaign runtime's contract is *zero lost points*: whatever
chaos injects — transient engine faults, latency spikes, unmaskable
corruption — every grid point must end in a terminal status (``ok``,
``retried``, ``degraded``, ``fallback``) rather than silently vanishing
from the grid.  This bench sweeps the injected transient-fault rate over
a full (workload x relax-level) campaign and reports the yield, retry
count and degradation mix per rate, asserting

- **completeness** — the full grid is present at every rate, with no
  ``failed`` points at the acceptance rate (10 %);
- **accountability** — retry and degradation counts appear in the
  exported grid (``status`` / ``attempts`` columns);
- **reproducibility** — the same seed replays the identical fault
  sequence and recovery, bit for bit.
"""

from __future__ import annotations

import csv
import io

from repro.runtime.campaign import TERMINAL_STATUSES
from repro.runtime.chaos import ChaosPolicy, chaos_table, run_chaos_campaign

WORKLOADS = ["Sobel", "Robert"]
LEVELS = [0, 16, 32]
RATES = [0.0, 0.1, 0.3]
SEED = 2017


def _sweep():
    outcomes = []
    for rate in RATES:
        policy = ChaosPolicy(
            transient_rate=rate,
            latency_rate=0.05,
            corrupt_rate=0.05,
            seed=SEED,
        )
        outcomes.append(
            run_chaos_campaign(
                workloads=WORKLOADS,
                relax_levels=LEVELS,
                policy=policy,
                tile_elements=1 << 9,
                max_attempts=4,
                deadline_s=120.0,
            )
        )
    return outcomes


def test_completion_yield_vs_fault_rate(benchmark, bench_rounds):
    """The tentpole grid: injected fault rate -> yield/retries/degradation."""
    outcomes = benchmark.pedantic(_sweep, rounds=bench_rounds, iterations=1)
    print()
    print("chaos recovery (supervised campaign, "
          f"{len(WORKLOADS)}x{len(LEVELS)} grid)")
    print(chaos_table(outcomes))

    grid_size = len(WORKLOADS) * len(LEVELS)
    for outcome in outcomes:
        # Completeness: the grid never loses a point, whatever chaos did.
        assert len(outcome.result.points) == grid_size
        assert all(
            p.status in TERMINAL_STATUSES for p in outcome.result.points
        )

    clean = outcomes[RATES.index(0.0)]
    ten_percent = outcomes[RATES.index(0.1)]
    # Fault-free: everything completes first try.
    assert clean.status_counts["ok"] == grid_size
    assert all(p.attempts == 1 for p in clean.result.points)
    # Acceptance: at 10% injected transients, zero lost points — every
    # point ends ok/retried/degraded/fallback, never failed or missing.
    assert ten_percent.status_counts["failed"] == 0
    assert ten_percent.completion_yield == 1.0
    # Chaos actually fired somewhere in the faulty sweeps, and the
    # supervision absorbed it (retries or degradations recorded).
    faulty = [o for o in outcomes if o.policy.transient_rate > 0]
    assert sum(o.total_injected for o in faulty) > 0
    assert sum(
        o.total_retries + o.status_counts["degraded"]
        + o.status_counts["fallback"]
        for o in faulty
    ) > 0


def test_retry_counts_exported_in_grid(benchmark, bench_rounds):
    """The exported CSV carries the supervision accounting per point."""

    def run_one():
        return run_chaos_campaign(
            workloads=["Robert"],
            relax_levels=[0, 16],
            policy=ChaosPolicy(
                transient_rate=0.3, corrupt_rate=0.1, seed=SEED
            ),
            tile_elements=1 << 9,
            max_attempts=4,
        )

    outcome = benchmark.pedantic(run_one, rounds=bench_rounds, iterations=1)
    parsed = list(csv.reader(io.StringIO(outcome.result.to_csv())))
    header, rows = parsed[0], parsed[1:]
    assert "status" in header and "attempts" in header
    status_col = header.index("status")
    attempts_col = header.index("attempts")
    assert all(row[status_col] in TERMINAL_STATUSES for row in rows)
    assert all(int(row[attempts_col]) >= 1 for row in rows)
    print()
    print(f"exported grid: {len(rows)} rows, "
          f"statuses={[row[status_col] for row in rows]}, "
          f"attempts={[row[attempts_col] for row in rows]}")


def test_chaos_recovery_is_reproducible(benchmark, bench_rounds):
    """Same seed -> identical fault sequence, recovery and exported grid."""

    def run_twice():
        policy = ChaosPolicy(
            transient_rate=0.3, latency_rate=0.1, corrupt_rate=0.1,
            seed=SEED,
        )
        first = run_chaos_campaign(
            workloads=["Sobel"], relax_levels=LEVELS, policy=policy,
            tile_elements=1 << 9,
        )
        second = run_chaos_campaign(
            workloads=["Sobel"], relax_levels=LEVELS, policy=policy,
            tile_elements=1 << 9,
        )
        return first, second

    first, second = benchmark.pedantic(
        run_twice, rounds=bench_rounds, iterations=1
    )
    assert first.result.to_rows() == second.result.to_rows()
    assert first.injected == second.injected
    print()
    print(f"bit-for-bit stable under seed {SEED}: "
          f"injected={first.injected}")


def test_worker_kill_recovery(benchmark, bench_rounds):
    """The process-level chaos arm: SIGKILL live workers mid-request.

    A 2-shard subprocess pool serves a request stream while the seeded
    ``worker_kill`` fault SIGKILLs the serving worker on 10% of
    requests.  The acceptance contract mirrors the campaign's: zero lost
    requests — every admitted request reaches exactly one terminal
    result through the detect → breaker → respawn → re-drive ladder,
    with the kills actually landing (not a vacuous pass).
    """
    from repro.serving.pool import Client, CrossbarPool

    KILL_RATE = 0.10
    REQUESTS = 30

    def run_kill_arm():
        pool = CrossbarPool(
            shards=2,
            tile_elements=1 << 9,
            seed=SEED,
            chaos_policy=ChaosPolicy(worker_kill_rate=KILL_RATE, seed=SEED),
            runtime="subprocess",
        )
        with pool:
            client = Client(pool, tenant="kill")
            ids = [
                client.submit(
                    "Robert", relax_bits=8 * (index % 3),
                    dataset_bytes=1 << 20,
                )
                for index in range(REQUESTS)
            ]
            results = [client.result(i, timeout=300.0) for i in ids]
            lifecycle = pool.runtime.lifecycle()
            kills = sum(
                shard.chaos.injected.get("worker_kill", 0)
                for shard in pool.shards
                if shard.chaos is not None
            )
        return results, lifecycle, kills

    results, lifecycle, kills = benchmark.pedantic(
        run_kill_arm, rounds=bench_rounds, iterations=1
    )
    statuses = [result.status for result in results]
    print()
    print(
        f"worker-kill arm: {REQUESTS} requests at {KILL_RATE:.0%} kill "
        f"rate -> kills={kills}, spawned={lifecycle['spawned']}, "
        f"deaths={lifecycle['deaths']}, respawns={lifecycle['respawns']}, "
        f"re-driven={lifecycle['redriven']}"
    )
    print(f"statuses: {dict((s, statuses.count(s)) for s in set(statuses))}")
    # Zero lost, zero duplicated: every request terminal exactly once.
    assert len(results) == REQUESTS
    assert len({result.id for result in results}) == REQUESTS
    assert all(status in TERMINAL_STATUSES for status in statuses), set(
        statuses
    )
    # The chaos is real: kills landed, deaths were seen, workers came back.
    assert kills > 0, "seeded kill stream never fired — vacuous run"
    assert lifecycle["deaths"] >= 1
    assert lifecycle["respawns"] >= 1
    assert lifecycle["spawned"] >= 2 + lifecycle["respawns"]
    # A kill can land after the worker already replied (the pipe keeps
    # its data), so deaths may trail kills — but never exceed them plus
    # protocol/hang casualties, which this clean run should not have.
    assert lifecycle["deaths"] <= kills


def test_server_kill_recovery(benchmark, bench_rounds, tmp_path):
    """The durability arm: SIGKILL the journaled serving *process* itself.

    Worker kills exercise the respawn ladder inside a living server; this
    arm kills the whole server — scheduler, result store, every shard —
    and restarts it on the same write-ahead journal.  The acceptance
    contract is the exactly-once ledger: zero acknowledged requests lost
    across the crash, zero duplicate terminal records in the journal, and
    every replayed ``ok`` point bit-identical to direct in-process
    pricing of the same request.
    """
    from crashtest import run_server_kill_test

    REQUESTS = 12

    def run_arm():
        # run_server_kill_test makes a fresh subdirectory per call, so
        # benchmark rounds never recover each other's journals.
        return run_server_kill_test(
            base_dir=str(tmp_path),
            requests=REQUESTS,
            tile=1 << 9,
            seed=SEED,
        )

    summary = benchmark.pedantic(run_arm, rounds=bench_rounds, iterations=1)
    recovery = summary["recovery"]
    print()
    print(
        f"server-kill arm: {summary['acknowledged']}/{summary['submitted']} "
        f"acknowledged, {summary['completed_before_kill']} complete at "
        f"SIGKILL -> restored={recovery.get('restored', 0)}, "
        f"replayed={recovery.get('replayed', 0)}, "
        f"dropped={recovery.get('dropped', 0)}"
    )
    print(f"statuses: {summary['statuses']}")
    # The crash was real and every submission was acknowledged durably.
    assert summary["killed_hard"]
    assert summary["acknowledged"] == REQUESTS
    assert summary["rejected"] == 0
    # Zero acknowledged requests lost: each one reaches exactly one
    # terminal result after restart.
    assert summary["lost"] == [], summary["lost"]
    assert summary["terminal"] == REQUESTS
    # The tripwire stayed silent: no request completed twice on disk.
    assert summary["duplicate_completions"] == 0
    # Recovery accounting is consistent: everything acknowledged was
    # either restored from a completed record or re-admitted for replay.
    assert recovery.get("restored", 0) + recovery.get("replayed", 0) >= (
        REQUESTS
    )
    assert recovery.get("dropped", 0) == 0
    # The restore path actually ran (at least one request completed
    # before the kill, and came back from the journal, not recompute).
    assert summary["completed_before_kill"] >= 1
    assert recovery.get("restored", 0) >= 1
    # Replay is bit-identical to direct pricing: determinism makes the
    # crash invisible to clients.
    assert summary["mismatched"] == [], summary["mismatched"]
