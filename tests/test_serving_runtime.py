"""The pluggable shard runtime: selection, equivalence, crash recovery.

The pool owns serving *policy*; a :class:`ShardRuntime` owns execution
*mechanics*.  These tests pin the contract:

- ``runtime=`` accepts a name or an instance and rejects garbage;
- inline, thread and subprocess runtimes price a request bit-identically
  (the runtime moves work, never changes its result);
- a worker SIGKILL'd mid-request is detected, the worker respawns, the
  request is re-driven and still ends in exactly one terminal result —
  with every attempt visible in the trace;
- a worker that keeps dying exhausts its re-drive budget and falls back
  to in-process execution (terminal, never lost);
- campaign grids routed through a subprocess pool are bit-identical to
  the direct sequential sweep;
- ``begin_drain`` refuses new admissions with a retryable 503-shaped
  error while everything already accepted still completes.

Subprocess tests spawn real worker processes (seconds, not
milliseconds); they use the smallest real tile so the suite stays fast.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import time

import pytest

from repro.errors import ServingError, ShardUnavailableError
from repro.runtime.campaign import run_campaign
from repro.runtime.chaos import ChaosInjector, ChaosPolicy
from repro.serving.pool import Client, CrossbarPool
from repro.serving.runtime import (
    RUNTIMES,
    InlineRuntime,
    SubprocessRuntime,
    ThreadRuntime,
    resolve_runtime,
)

TILE = 1 << 9


class TestRuntimeSelection:
    def test_names_resolve_to_the_right_classes(self):
        assert isinstance(resolve_runtime("inline"), InlineRuntime)
        assert isinstance(resolve_runtime("thread"), ThreadRuntime)
        assert isinstance(resolve_runtime("subprocess"), SubprocessRuntime)
        assert set(RUNTIMES) == {"inline", "thread", "subprocess"}

    def test_instances_pass_through(self):
        runtime = SubprocessRuntime(max_redrives=5)
        assert resolve_runtime(runtime) is runtime

    def test_unknown_name_is_a_serving_error(self):
        with pytest.raises(ServingError, match="unknown runtime"):
            resolve_runtime("fork-bomb")

    def test_pool_reports_its_runtime(self):
        pool = CrossbarPool(shards=1, tile_elements=TILE, runtime="inline")
        assert pool.healthz()["runtime"] == "inline"
        assert pool.stats()["runtime"]["name"] == "inline"

    def test_runtime_cannot_serve_two_pools(self):
        runtime = ThreadRuntime()
        CrossbarPool(shards=1, tile_elements=TILE, runtime=runtime)
        with pytest.raises(ServingError, match="already bound"):
            CrossbarPool(shards=1, tile_elements=TILE, runtime=runtime)


def _price(runtime: str, chaos_policy=None, requests: int = 1) -> tuple:
    """``(status, attempts, speedup, energy, QoL)`` per request of a short
    same-key sequence priced on one shard of the given runtime."""
    pool = CrossbarPool(
        shards=1, tile_elements=TILE, seed=11, runtime=runtime,
        chaos_policy=chaos_policy,
    )
    client = Client(pool, tenant="equiv")
    with pool:
        results = [
            client.call("Robert", relax_bits=8, dataset_bytes=1 << 20)
            for _ in range(requests)
        ]
    return tuple(
        (
            result.status,
            result.attempts,
            result.point.speedup,
            result.point.energy_improvement,
            result.point.qol_percent,
        )
        for result in results
    )


class TestRuntimeEquivalence:
    def test_all_runtimes_price_identically(self):
        """The runtime is an execution vehicle: inline, thread and
        subprocess must produce bit-identical campaign points."""
        inline = _price("inline")
        thread = _price("thread")
        subprocess_ = _price("subprocess")
        assert inline == thread == subprocess_
        assert inline[0][0] == "ok"

    def test_all_runtimes_replay_the_same_chaos(self):
        """Under injected transients every runtime draws the same fault
        and retry streams, so statuses, attempt counts and prices match
        request for request — the worker rebuilds its shard exactly as
        the pool does."""
        chaos = ChaosPolicy(
            transient_rate=0.2, latency_rate=0.0, corrupt_rate=0.0, seed=1
        )
        inline = _price("inline", chaos, requests=8)
        thread = _price("thread", chaos, requests=8)
        subprocess_ = _price("subprocess", chaos, requests=8)
        assert inline == thread == subprocess_
        assert any(attempts > 1 for _, attempts, *_ in inline)


class _ScriptedKills(ChaosInjector):
    """A real injector (zero fault rates — the in-process fallback must
    still work) whose worker-kill draw is scripted by request index
    instead of seeded randomness."""

    def __init__(self, kill_indices):
        super().__init__(ChaosPolicy())
        self._scripted = set(kill_indices)
        self._scripted_calls = 0

    def should_kill_worker(self, key: str) -> bool:
        index = self._scripted_calls
        self._scripted_calls += 1
        if index in self._scripted:
            self.injected["worker_kill"] += 1
            return True
        return False


class TestCrashRecovery:
    def test_sigkill_mid_request_respawns_and_redrives(self):
        """kill -9 mid-request: death detected, worker respawned, the
        request re-driven to a clean terminal result — and the trace
        shows both the murdered attempt and the surviving one."""
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, seed=11, runtime="subprocess"
        )
        pool.shards[0].chaos = _ScriptedKills({0})  # first request dies
        with pool:
            result = Client(pool, tenant="chaos").call(
                "Robert", relax_bits=8, dataset_bytes=1 << 20
            )
            lifecycle = pool.runtime.lifecycle()
            record = pool.traces.get(result.id)
        assert result.status == "ok"
        assert lifecycle["deaths"] == 1
        assert lifecycle["respawns"] == 1
        assert lifecycle["redriven"] == 1
        assert lifecycle["spawned"] == 2
        kinds = [event.kind for event in record.events]
        assert "chaos_worker_kill" in kinds  # attempt 1: murdered
        assert "worker_died" in kinds  # ...and noticed
        assert "redrive" in kinds  # attempt 2: re-driven
        assert "complete" in kinds  # ...to a terminal result
        # The surviving attempt's executor events crossed the process
        # boundary back into the parent's trace store.
        assert "executor" in {event.layer for event in record.events}

    def test_redrive_budget_exhaustion_falls_back_in_process(self):
        """A worker that dies on *every* attempt burns the re-drive
        budget; the request then executes in-process — terminal, never
        lost, with the fallback visible in the trace."""
        pool = CrossbarPool(
            shards=1,
            tile_elements=TILE,
            seed=11,
            runtime="subprocess",
            shard_failure_threshold=100,  # keep the breaker out of this
        )
        pool.shards[0].chaos = _ScriptedKills(range(100))  # kill always
        with pool:
            result = Client(pool, tenant="chaos").call(
                "Robert", relax_bits=8, dataset_bytes=1 << 20
            )
            lifecycle = pool.runtime.lifecycle()
            record = pool.traces.get(result.id)
        assert result.status == "ok"
        # initial attempt + max_redrives re-drives, all murdered
        assert lifecycle["deaths"] == 1 + pool.runtime.max_redrives
        assert lifecycle["redriven"] == pool.runtime.max_redrives
        kinds = [event.kind for event in record.events]
        assert "redrive_local" in kinds

    def test_idle_worker_death_is_reaped_and_respawned(self):
        """A worker that dies *between* requests (OOM killer, operator
        kill) is noticed by the driver's reap pass and replaced before
        the next request.  The pool's seed is its own, so both requests
        miss the parent's priced memo and reach a worker."""
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, seed=4307, runtime="subprocess"
        )
        with pool:
            client = Client(pool, tenant="reap")
            first = client.call("Robert", relax_bits=8, dataset_bytes=1 << 20)
            victim_pid = pool.runtime.stats()["shards"]["0"]["pid"]
            os.kill(victim_pid, signal.SIGKILL)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if pool.runtime.lifecycle()["deaths"] >= 1:
                    break
                time.sleep(0.02)
            second = client.call("Robert", relax_bits=8, dataset_bytes=1 << 20)
            stats = pool.runtime.stats()
        assert first.status == second.status == "ok"
        assert first.point.speedup == second.point.speedup
        assert pool.runtime.lifecycle()["deaths"] >= 1
        assert stats["shards"]["0"]["pid"] != victim_pid

    def test_healthz_reflects_worker_lifecycle(self):
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, seed=11, runtime="subprocess"
        )
        pool.shards[0].chaos = _ScriptedKills({0})
        with pool:
            Client(pool).call("Robert", relax_bits=8, dataset_bytes=1 << 20)
            health = pool.healthz()
        assert health["runtime"] == "subprocess"
        assert health["workers"]["deaths"] == 1
        assert health["workers"]["respawns"] == 1


class TestCampaignBitIdentity:
    def test_pooled_subprocess_grid_matches_direct(self):
        """The acceptance bar: a campaign grid priced through a 2-shard
        subprocess pool is bit-identical to the sequential sweep."""
        direct = run_campaign(
            ["Robert"], [0, 8], dataset_bytes=1 << 20,
            tile_elements=TILE, seed=7,
        )
        pool = CrossbarPool(
            shards=2, tile_elements=TILE, seed=7, runtime="subprocess"
        )
        with pool:
            client = Client(pool)
            pooled = [
                client.call("Robert", relax_bits=level, dataset_bytes=1 << 20)
                .point
                for level in (0, 8)
            ]
        assert [dataclasses.asdict(p) for p in pooled] == [
            dataclasses.asdict(p) for p in direct.points
        ]


class TestGracefulDrain:
    def test_drain_refuses_new_work_but_finishes_accepted(self):
        pool = CrossbarPool(shards=2, tile_elements=TILE, seed=11)
        with pool:
            client = Client(pool, tenant="drain")
            ids = [
                client.submit("Robert", relax_bits=0, dataset_bytes=1 << 20)
                for _ in range(4)
            ]
            pool.begin_drain()
            assert pool.healthz()["draining"] is True
            with pytest.raises(ShardUnavailableError) as info:
                client.submit("Robert", relax_bits=0)
            # The refusal is retryable: it says when to come back.
            assert info.value.retry_after_s is not None
            assert info.value.retry_after_s > 0
            assert pool.wait_drained(timeout=60.0)
            # Zero accepted requests dropped: all four are terminal.
            for request_id in ids:
                result = client.result(request_id, timeout=1.0)
                assert result.status in (
                    "ok", "retried", "degraded", "fallback"
                )

    def test_inline_pool_drains_synchronously(self):
        pool = CrossbarPool(
            shards=1, tile_elements=TILE, seed=11, runtime="inline"
        )
        with pool:
            client = Client(pool, tenant="drain")
            request_id = client.submit(
                "Robert", relax_bits=0, dataset_bytes=1 << 20
            )
            pool.begin_drain()
            assert pool.wait_drained(timeout=30.0)
            assert client.result(request_id, timeout=1.0).status == "ok"
            with pytest.raises(ShardUnavailableError):
                client.submit("Robert")
