"""Whole-process crash testing: SIGKILL a journaled server, restart, verify.

The worker-kill chaos arm proves a dying *shard worker* loses nothing;
this module proves the same for the *serving process itself*.
:class:`ServerProcess` boots ``python -m repro serve --journal DIR`` as a
real subprocess on an ephemeral port (parsing the startup banner for the
URL), speaks the JSON HTTP API to it, and can SIGKILL it at any moment.
:func:`run_server_kill_test` is the full closed-loop campaign behind the
``bench_chaos_recovery.py`` server-kill arm:

1. boot a journaled server and submit a batch of keyed requests,
   collecting every *acknowledged* id (202 with the id on disk);
2. wait until at least one result completed while others are still in
   flight, then SIGKILL the process — no drain, no warning;
3. restart a server on the same journal directory and poll every
   acknowledged id to a terminal result;
4. assert the exactly-once ledger: zero acknowledged ids lost, zero
   duplicate terminal records in the journal, and every ``ok`` point
   bit-identical to a direct in-process pricing of the same request
   (same tile, same seed — determinism makes replay safe).
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.errors import ServingError
from repro.serving.frontend import _http_json
from repro.serving.journal import load_request_journal
from repro.units import MIB

__all__ = ["ServerProcess", "run_server_kill_test"]

_URL_RE = re.compile(r"at (http://[\w.\-]+:\d+)")


def _src_root() -> str:
    """The directory containing the ``repro`` package (for PYTHONPATH)."""
    import repro

    return os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


class ServerProcess:
    """One ``repro serve`` child process under test control."""

    def __init__(
        self,
        journal_dir: str,
        shards: int = 2,
        tile: int = 1 << 9,
        seed: int = 2017,
        runtime: str = "thread",
        boot_timeout_s: float = 60.0,
    ) -> None:
        self.journal_dir = journal_dir
        self.shards = shards
        self.tile = tile
        self.seed = seed
        self.runtime = runtime
        self.boot_timeout_s = boot_timeout_s
        self.process: subprocess.Popen | None = None
        self.url: str | None = None
        self.banner: list[str] = []
        self._reader: threading.Thread | None = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "ServerProcess":
        if self.process is not None and self.process.poll() is None:
            raise ServingError("server process already running")
        env = dict(os.environ)
        src = _src_root()
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src if not existing else src + os.pathsep + existing
        )
        command = [
            sys.executable, "-m", "repro", "serve",
            "--journal", self.journal_dir,
            "--port", "0",
            "--shards", str(self.shards),
            "--tile", str(self.tile),
            "--seed", str(self.seed),
            "--runtime", self.runtime,
        ]
        self.url = None
        self.banner = []
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        deadline = time.monotonic() + self.boot_timeout_s
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            line = stdout.readline()
            if not line:
                break
            text = line.decode("utf-8", "replace").rstrip()
            self.banner.append(text)
            match = _URL_RE.search(text)
            if match:
                self.url = match.group(1)
                break
        if self.url is None:
            self.kill()
            raise ServingError(
                "server never announced its URL; output was: "
                + " | ".join(self.banner[-5:])
            )
        # Keep draining stdout so the pipe buffer can never block the
        # server's prints (the drain messages at shutdown, for example).
        self._reader = threading.Thread(
            target=self._drain_stdout, daemon=True
        )
        self._reader.start()
        return self

    def _drain_stdout(self) -> None:
        stdout = self.process.stdout
        try:
            while True:
                line = stdout.readline()
                if not line:
                    return
                self.banner.append(line.decode("utf-8", "replace").rstrip())
        except (OSError, ValueError):
            return

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL: the crash under test — no drain, no cleanup."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def terminate(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL on timeout."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.process.send_signal(signal.SIGKILL)
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.kill()

    # -- the HTTP client side -------------------------------------------------

    def submit(self, payload: dict) -> tuple[int, dict]:
        return _http_json(f"{self.url}/submit", payload)

    def result(self, request_id: str) -> tuple[int, dict]:
        return _http_json(f"{self.url}/result/{request_id}")

    def stats(self) -> dict:
        status, body = _http_json(f"{self.url}/stats")
        if status != 200:
            raise ServingError(f"/stats returned {status}")
        return body


def _direct_point(
    workload: str, relax_bits: int, dataset_bytes: int, tile: int, seed: int
) -> dict:
    """In-process pricing of one request: the bit-identity reference.

    Mirrors a shard's happy path — :func:`run_point` with no supervisor —
    so an ``ok`` served point must match field-for-field (the model is
    deterministic for a given tile size and seed).
    """
    import dataclasses

    from repro.runtime.campaign import run_point
    from repro.runtime.comparison import ComparisonHarness
    from repro.workloads import workload_by_name

    harness = ComparisonHarness(tile_elements=tile, rng_seed=seed)
    point = run_point(
        workload_by_name(workload), relax_bits, float(dataset_bytes), harness
    )
    return dataclasses.asdict(point)


def run_server_kill_test(
    base_dir: str | None = None,
    requests: int = 10,
    shards: int = 2,
    tile: int = 1 << 9,
    seed: int = 2017,
    runtime: str = "thread",
    workloads: tuple = ("Robert", "Sobel"),
    levels: tuple = (0, 8, 16),
    dataset_bytes: int = int(1 * MIB),
    timeout_s: float = 180.0,
) -> dict:
    """SIGKILL a journaled server mid-load; verify nothing promised is lost.

    Returns a summary dict (see keys below); raises nothing on invariant
    violations — the caller asserts on the summary.
    """
    if base_dir is None:
        base_dir = tempfile.mkdtemp(prefix="repro-server-kill-")
    # A fresh journal directory per invocation: benchmark rounds must not
    # recover each other's journals.
    journal_dir = tempfile.mkdtemp(prefix="round-", dir=base_dir)
    journal_path = os.path.join(journal_dir, "requests.jsonl")
    grid = [
        (workload, level) for workload in workloads for level in levels
    ]

    def payload(i: int) -> dict:
        return {
            "workload": grid[i % len(grid)][0],
            "relax_bits": grid[i % len(grid)][1],
            "dataset_bytes": dataset_bytes,
            "tenant": "crash",
            "idempotency_key": f"crash-{i}",
        }

    early = max(1, requests // 2)
    deadline = time.monotonic() + timeout_s

    # -- phase 1: load, then kill without warning -----------------------------
    server = ServerProcess(
        journal_dir, shards=shards, tile=tile, seed=seed, runtime=runtime
    )
    acknowledged: list[tuple[str, dict]] = []
    rejected = 0
    completed_before_kill = 0
    with server:
        # An early wave, allowed to finish: coverage for the restore path
        # (completed results rebuilt from the journal).
        for i in range(early):
            status, reply = server.submit(payload(i))
            if status == 202:
                acknowledged.append((reply["id"], payload(i)))
            else:
                rejected += 1
        while time.monotonic() < deadline:
            done = sum(
                1
                for request_id, _ in acknowledged
                if server.result(request_id)[0] == 200
            )
            if done >= 1:
                completed_before_kill = done
                break
            time.sleep(0.02)
        # A late wave, then SIGKILL the instant the last ack lands: the
        # queue still holds admitted-but-incomplete requests — coverage
        # for the replay path.  (Racy by design: a fast pool may finish
        # some of them; the ledger below holds either way.)
        for i in range(early, requests):
            status, reply = server.submit(payload(i))
            if status == 202:
                acknowledged.append((reply["id"], payload(i)))
            else:
                rejected += 1
        server.kill()
    killed_hard = not server.alive

    # -- phase 2: restart on the same journal, collect every promise ----------
    results: dict[str, dict] = {}
    lost: list[str] = []
    recovery: dict = {}
    with ServerProcess(
        journal_dir, shards=shards, tile=tile, seed=seed, runtime=runtime
    ) as revived:
        recovery = (revived.stats().get("journal") or {}).get("recovery", {})
        for request_id, _ in acknowledged:
            body = None
            while time.monotonic() < deadline:
                status, body = revived.result(request_id)
                if status == 200:
                    results[request_id] = body
                    break
                if status in (404, 410):
                    break
                time.sleep(0.02)
            if request_id not in results:
                lost.append(request_id)
        revived.terminate()

    # -- the exactly-once ledger ----------------------------------------------
    journal_state = load_request_journal(journal_path)
    statuses: dict[str, int] = {}
    for body in results.values():
        statuses[body["status"]] = statuses.get(body["status"], 0) + 1
    mismatched: list[str] = []
    direct_cache: dict[tuple, dict] = {}
    for request_id, payload in acknowledged:
        body = results.get(request_id)
        if body is None or body["status"] != "ok":
            continue
        key = (payload["workload"], payload["relax_bits"])
        if key not in direct_cache:
            direct_cache[key] = _direct_point(
                payload["workload"], payload["relax_bits"],
                payload["dataset_bytes"], tile, seed,
            )
        direct = direct_cache[key]
        point = body.get("point") or {}
        fields = (
            "speedup", "energy_improvement", "edp_improvement",
            "qol_percent", "apim_time_s", "apim_energy_j",
        )
        for field in fields:
            if point.get(field) != direct.get(field):
                mismatched.append(
                    f"{request_id}: {field} {point.get(field)!r} != "
                    f"{direct.get(field)!r}"
                )
    return {
        "journal_dir": journal_dir,
        "submitted": requests,
        "acknowledged": len(acknowledged),
        "rejected": rejected,
        "completed_before_kill": completed_before_kill,
        "killed_hard": killed_hard,
        "terminal": len(results),
        "lost": lost,
        "statuses": statuses,
        "recovery": recovery,
        "duplicate_completions": journal_state.duplicate_completions,
        "mismatched": mismatched,
    }
