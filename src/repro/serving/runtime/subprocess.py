"""Process-per-shard execution: GIL escape with crash containment.

:class:`SubprocessRuntime` is the thread runtime's shard driver — same
loop, lifecycle and live resize — with three overrides: it executes each
request by round-tripping a frame through the shard's worker process
(`python -m repro.serving.runtime.worker`), reaps a worker that died idle
before each poll, and shuts the worker down as the driver exits (on
``stop`` and once a removed shard has drained).  NumPy bit-plane pricing
then runs in a process of its own, so four shards use four cores instead
of fighting over one GIL.  Workers spawn lazily, on a shard's first
request.

The supervision ladder, on worker death (pipe EOF after SIGKILL / segfault
/ OOM, or a hang past :data:`HANG_TIMEOUT_S`, or lost framing):

1. the death is **detected** and normalised to
   :class:`~repro.errors.WorkerCrashedError` (never a raw
   ``BrokenPipeError``/``EOFError``);
2. the shard's circuit **breaker** records a failure — a crash-looping
   shard trips open and stops pulling traffic while it cools down;
3. the worker is **respawned** under capped exponential backoff (the
   death streak doubles the delay up to :data:`RESPAWN_BACKOFF_CAP_S`);
4. the in-flight request is **re-driven** through the fresh worker, up to
   ``max_redrives`` times, then falls back to in-process execution via
   the pool's own rescue ladder — every admitted request still reaches
   exactly one terminal result, and the trace shows every attempt.

Results carry the worker's buffered trace events and counter deltas; the
driver replays them into the parent's trace store and metrics registry,
so ``GET /trace/<id>`` and ``GET /metrics`` see through the process
boundary.
"""

from __future__ import annotations

import dataclasses
import os
import select
import signal
import subprocess
import sys
import threading
import time

from repro.errors import ProtocolError, ServingError, WorkerCrashedError
from repro.observability.instruments import (
    SERVING_SHARD_HEALTHY,
    WORKER_DEATHS,
    WORKER_REDRIVES,
    WORKER_RESPAWNS,
    WORKER_SPAWNS,
)
from repro.observability.registry import active_registry, apply_counter_deltas
from repro.observability.tracing import replay_events
from repro.runtime.campaign import CampaignPoint
from repro.serving.runtime.protocol import (
    MAX_FRAME_BYTES,
    read_frame,
    write_frame,
)
from repro.serving.runtime.thread import ThreadRuntime
from repro.serving.scheduler import RESULT_STATUSES

__all__ = ["SubprocessRuntime", "WorkerHandle"]

#: Seconds a worker may take to answer a run frame before it is killed
#: as hung (reported by ``stats()``).
HANG_TIMEOUT_S = 120.0
#: Seconds a fresh worker may take to answer its init frame.
SPAWN_TIMEOUT_S = 60.0
#: Respawn delay after a death streak of n: base · 2^(n-1), capped.
RESPAWN_BACKOFF_BASE_S = 0.05
RESPAWN_BACKOFF_CAP_S = 1.0


def _worker_env() -> dict:
    """The staged child environment: inherit, but guarantee ``repro`` is
    importable by prepending its source root to ``PYTHONPATH``."""
    import repro

    src_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    return env


class WorkerHandle:
    """One live worker process: spawn, frame I/O, liveness, teardown."""

    def __init__(self, shard_index: int, spec: dict) -> None:
        self.shard_index = shard_index
        self._lock = threading.Lock()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.serving.runtime.worker"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=None,  # worker diagnostics land on the parent's stderr
            env=_worker_env(),
        )
        self._fd = self.process.stdout.fileno()
        try:
            self.send({"type": "init", **spec})
            ready = self.recv(timeout=SPAWN_TIMEOUT_S)
        except (WorkerCrashedError, ProtocolError):
            self.kill()
            raise
        if ready.get("type") != "ready":
            self.kill()
            raise ProtocolError(
                f"shard {shard_index} worker handshake replied "
                f"{ready.get('type')!r}, expected 'ready'"
            )

    @property
    def pid(self) -> int:
        return self.process.pid

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def send(self, payload: dict) -> None:
        """Write one frame; raw pipe errors become worker-crash errors."""
        try:
            with self._lock:
                write_frame(self.process.stdin, payload, MAX_FRAME_BYTES)
        except (BrokenPipeError, EOFError, OSError, ValueError) as exc:
            raise WorkerCrashedError(
                f"shard {self.shard_index} worker pid {self.pid} is gone "
                f"({type(exc).__name__}: {exc})",
                shard=self.shard_index,
                pid=self.pid,
                reason="exited",
            ) from exc

    def recv(self, timeout: float) -> dict:
        """Read one frame with a hang deadline.

        Reads the raw pipe fd via ``select`` + ``os.read`` — never the
        buffered wrapper, whose internal buffer ``select`` cannot see.
        EOF at a frame boundary means the worker died cleanly-for-us
        (:class:`WorkerCrashedError`, reason ``exited``); a deadline
        overrun kills the wedged worker and reports reason ``hang``;
        torn frames raise :class:`~repro.errors.ProtocolError`.
        """
        deadline = time.monotonic() + timeout

        def read(n: int) -> bytes:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError
                ready, _, _ = select.select(
                    [self._fd], [], [], min(remaining, 0.5)
                )
                if ready:
                    return os.read(self._fd, n)

        try:
            frame = read_frame(read, MAX_FRAME_BYTES, eof_ok=True)
        except TimeoutError:
            pid = self.pid
            self.kill()
            raise WorkerCrashedError(
                f"shard {self.shard_index} worker pid {pid} hung past "
                f"{timeout:.1f}s deadline; killed",
                shard=self.shard_index,
                pid=pid,
                reason="hang",
            ) from None
        if frame is None:
            raise WorkerCrashedError(
                f"shard {self.shard_index} worker pid {self.pid} died "
                "(pipe EOF mid-conversation)",
                shard=self.shard_index,
                pid=self.pid,
                reason="exited",
            )
        return frame

    def kill(self) -> None:
        """SIGKILL the worker (idempotent)."""
        try:
            self.process.kill()
        except OSError:
            pass
        try:
            self.process.wait(timeout=5.0)
        except Exception:
            pass
        self._close_pipes()

    def sigkill_mid_request(self) -> None:
        """The chaos ``worker_kill`` fault: raw SIGKILL, no cleanup —
        exactly what a segfault or OOM-kill looks like from the parent."""
        try:
            os.kill(self.process.pid, signal.SIGKILL)
        except OSError:
            pass

    def shutdown(self, timeout: float = 5.0) -> None:
        """Graceful drain: shutdown frame → wait → terminate → kill."""
        try:
            self.send({"type": "shutdown"})
        except WorkerCrashedError:
            pass
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for stream in (self.process.stdin, self.process.stdout):
            try:
                if stream is not None:
                    stream.close()
            except OSError:
                pass


class SubprocessRuntime(ThreadRuntime):
    """One worker process per shard; see the module docstring."""

    name = "subprocess"

    def __init__(self, max_redrives: int = 2) -> None:
        super().__init__()
        if max_redrives < 0:
            raise ServingError("max_redrives must be non-negative")
        self.max_redrives = max_redrives
        self._handles: dict[int, WorkerHandle | None] = {}
        self._streaks: dict[int, int] = {}
        self._worker_cpu_s: dict[int, float] = {}

    # -- worker supervision ---------------------------------------------------

    def _spec(self, shard) -> dict:
        """One worker's init frame: the inputs of the pool's shard recipe
        (:func:`~repro.serving.pool.build_shard`) plus its trace budget."""
        pool = self.pool
        return {
            "shard_index": shard.index,
            "seed": pool.seed,
            "tile_elements": pool.tile_elements,
            "apim_config": (
                None
                if pool.apim_config is None
                else dataclasses.asdict(pool.apim_config)
            ),
            "chaos": (
                None
                if pool.chaos_policy is None
                else dataclasses.asdict(pool.chaos_policy)
            ),
            "max_trace_events": pool.traces.max_events,
        }

    def _poll(self, shard) -> None:
        """Reap a worker that died between requests (idle death)."""
        handle = self._handles.get(shard.index)
        if handle is not None and not handle.alive:
            self._note_death(shard, handle, reason="exited")

    def _release(self, shard) -> None:
        """Shut the exiting driver's worker down (it holds no request)."""
        self._streaks.pop(shard.index, None)
        self._worker_cpu_s.pop(shard.index, None)
        handle = self._handles.pop(shard.index, None)
        if handle is not None:
            handle.shutdown()

    def _note_death(self, shard, handle: WorkerHandle, reason: str) -> None:
        self._handles[shard.index] = None
        self._streaks[shard.index] = self._streaks.get(shard.index, 0) + 1
        self._count("deaths")
        WORKER_DEATHS.inc(shard=shard.index, reason=reason)
        shard.breaker.record_failure(shard.key)
        SERVING_SHARD_HEALTHY.set(int(shard.healthy), shard=shard.index)
        handle.kill()  # reap the zombie; idempotent if already gone

    def _ensure_worker(self, shard) -> WorkerHandle:
        """The shard's live worker, (re)spawned under capped backoff."""
        handle = self._handles.get(shard.index)
        if handle is not None and handle.alive:
            return handle
        streak = self._streaks.get(shard.index, 0)
        respawn = streak > 0
        if respawn:
            time.sleep(min(
                RESPAWN_BACKOFF_CAP_S,
                RESPAWN_BACKOFF_BASE_S * (2 ** (streak - 1)),
            ))
        try:
            handle = WorkerHandle(shard.index, self._spec(shard))
        except (WorkerCrashedError, ProtocolError, OSError) as exc:
            self._streaks[shard.index] = streak + 1
            raise WorkerCrashedError(
                f"shard {shard.index} worker failed to spawn: {exc}",
                shard=shard.index,
                reason="spawn",
            ) from exc
        self._handles[shard.index] = handle
        self._count("spawned")
        WORKER_SPAWNS.inc(shard=shard.index)
        if respawn:
            self._count("respawns")
            WORKER_RESPAWNS.inc(shard=shard.index)
        return handle

    def execute(self, shard, request):
        """Run one request through the shard's worker process.

        Returns ``(point, status, attempts, error)`` — the same contract
        as the pool's in-process executor.  Worker deaths are absorbed
        here: breaker, respawn, bounded re-drive, then in-process
        fallback.  This method *never* lets a raw pipe error escape.
        """
        pool = self.pool
        redrives = 0
        while True:
            try:
                handle = self._ensure_worker(shard)
                chaos_kill = (
                    shard.chaos is not None
                    and shard.chaos.should_kill_worker(shard.key)
                )
                handle.send(
                    {
                        "type": "run",
                        "id": request.id,
                        "workload": request.workload,
                        "relax_bits": request.relax_bits,
                        "dataset_bytes": request.dataset_bytes,
                    }
                )
                if chaos_kill:
                    # SIGKILL *after* the request is on the wire: the
                    # worker dies mid-request, exactly the fault the
                    # recovery ladder exists for.
                    request.trace_event(
                        "runtime", "chaos_worker_kill",
                        shard=shard.index, pid=handle.pid,
                    )
                    handle.sigkill_mid_request()
                reply = handle.recv(timeout=HANG_TIMEOUT_S)
                if (
                    reply.get("type") != "result"
                    or reply.get("id") != request.id
                ):
                    raise ProtocolError(
                        f"shard {shard.index} worker answered frame "
                        f"type={reply.get('type')!r} id={reply.get('id')!r} "
                        f"to request {request.id!r}"
                    )
            except (WorkerCrashedError, ProtocolError) as exc:
                if isinstance(exc, ProtocolError):
                    # Framing is lost: the stream cannot be resynced, so
                    # a protocol violation is a worker death with a
                    # different cause of death.
                    handle = self._handles.get(shard.index)
                    if handle is not None:
                        handle.kill()
                        self._note_death(shard, handle, reason="protocol")
                    crashed_pid = None
                else:
                    crashed_pid = exc.pid
                    handle = self._handles.get(shard.index)
                    if handle is not None:
                        self._note_death(shard, handle, reason=exc.reason)
                request.trace_event(
                    "runtime", "worker_died",
                    f"{type(exc).__name__}: {exc}",
                    shard=shard.index,
                    pid=crashed_pid,
                    redrives=redrives,
                )
                if redrives < self.max_redrives:
                    redrives += 1
                    self._count("redriven")
                    WORKER_REDRIVES.inc(shard=shard.index)
                    request.trace_event(
                        "runtime", "redrive",
                        shard=shard.index, attempt=redrives,
                    )
                    continue
                # Out of worker attempts: finish the request in-process
                # through the same rescue ladder — terminal, never lost.
                request.trace_event(
                    "runtime", "redrive_local",
                    "worker re-drive budget exhausted; executing in-process",
                    shard=shard.index,
                )
                return pool._execute_local(shard, request)
            else:
                self._streaks[shard.index] = 0
                replay_events(request.trace, reply.get("events") or [])
                registry = active_registry()
                if registry is not None:
                    apply_counter_deltas(
                        registry, reply.get("metrics") or []
                    )
                self._worker_cpu_s[shard.index] = (
                    self._worker_cpu_s.get(shard.index, 0.0)
                    + float(reply.get("cpu_s") or 0.0)
                )
                point_dict = reply.get("point")
                point = None
                if point_dict is not None:
                    try:
                        point = CampaignPoint(**point_dict)
                    except Exception:
                        point = None  # foreign payload shape: no point
                status = str(reply.get("status", "error"))
                attempts = int(reply.get("attempts", 0) or 0)
                error = reply.get("error")
                if status not in RESULT_STATUSES:
                    error = f"worker returned unknown status {status!r}"
                    status = "error"
                    point = None
                return point, status, attempts, error

    # -- introspection --------------------------------------------------------

    def stats(self) -> dict:
        out = super().stats()
        out["hang_timeout_s"] = HANG_TIMEOUT_S
        out["max_redrives"] = self.max_redrives
        out["shards"] = {}
        for index in sorted(shard.index for shard in self.pool.shards):
            handle = self._handles.get(index)
            out["shards"][str(index)] = {
                "pid": None if handle is None else handle.pid,
                "alive": handle is not None and handle.alive,
                "death_streak": self._streaks.get(index, 0),
                "worker_cpu_s": round(self._worker_cpu_s.get(index, 0.0), 6),
            }
        return out
