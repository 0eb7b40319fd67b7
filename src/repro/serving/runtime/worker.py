"""The subprocess shard worker: ``python -m repro.serving.runtime.worker``.

One worker process serves one shard.  It speaks the length-prefixed JSON
frame protocol (:mod:`repro.serving.runtime.protocol`) over its stdin /
stdout pipes:

- first frame in must be ``{"type": "init", ...}`` carrying the inputs
  of the pool's shard recipe (:func:`~repro.serving.pool.build_shard`) —
  ``shard_index``, ``seed``, ``tile_elements``, ``apim_config`` and the
  pool's ``chaos`` policy — plus ``max_trace_events``, the per-request
  trace buffer bound.  The worker builds its shard with that same recipe,
  so harness, retry jitter and chaos stream are those of an in-process
  shard; it replies ``{"type": "ready"}``;
- ``{"type": "run", "id", "workload", "relax_bits", "dataset_bytes"}``
  executes one request through :meth:`~repro.serving.pool.PoolShard.price`
  (the full rescue ladder, called exactly as the pool calls it) and
  replies ``{"type": "result", "id", "status", "attempts", "error",
  "point", "events", "metrics", "cpu_s"}``: the terminal
  :class:`~repro.runtime.campaign.CampaignPoint` as a dict, the buffered
  trace events, the counter deltas this request produced and the CPU
  seconds it took — what the parent needs to make the subprocess
  indistinguishable from in-process execution;
- ``{"type": "shutdown"}`` → ``{"type": "bye"}`` and a clean exit;
- any other frame → ``{"type": "error", "error"}``, and the worker keeps
  serving.

The process grabs the *binary* stdout handle at startup and rebinds
``sys.stdout`` to stderr, so a stray ``print`` anywhere below can never
corrupt the frame stream.  A crash of any kind — the parent observes it
as pipe EOF — is the supervisor's problem: it respawns the worker and
re-drives the in-flight request.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback

from repro.core.config import APIMConfig
from repro.errors import ProtocolError
from repro.observability.registry import (
    counter_deltas,
    default_registry,
    snapshot_counters,
)
from repro.observability.tracing import BufferedTraceContext
from repro.runtime.chaos import ChaosPolicy
from repro.serving.pool import PoolShard, build_shard
from repro.serving.runtime.protocol import (
    MAX_FRAME_BYTES,
    read_frame,
    write_frame,
)

__all__ = ["main"]


def _shard(spec: dict) -> PoolShard:
    """This worker's shard, built by the pool's recipe from an init frame."""
    config, chaos = spec["apim_config"], spec["chaos"]
    return build_shard(
        int(spec["shard_index"]),
        int(spec["seed"]),
        int(spec["tile_elements"]),
        APIMConfig(**config) if config else None,
        ChaosPolicy(**chaos) if chaos else None,
    )


def _run(shard: PoolShard, max_trace_events: int, frame: dict) -> dict:
    """Execute one run frame; always returns a terminal result frame."""
    registry = default_registry()
    before = snapshot_counters(registry)
    buffer = BufferedTraceContext(max_events=max_trace_events)
    cpu_start = time.process_time()
    point = None
    error = None
    try:
        point = shard.price(
            str(frame["workload"]),
            int(frame["relax_bits"]),
            frame["dataset_bytes"],
            buffer,
        )
    except Exception as exc:  # belt and braces: run_point says "never"
        error = f"{type(exc).__name__}: {exc}"
        buffer.event("worker", "error", error, shard=shard.index)
    return {
        "type": "result",
        "id": str(frame.get("id", "")),
        "status": "error" if point is None else point.status,
        "attempts": 0 if point is None else point.attempts,
        "error": error,
        "point": None if point is None else dataclasses.asdict(point),
        "events": buffer.drain(),
        "metrics": counter_deltas(registry, before),
        "cpu_s": time.process_time() - cpu_start,
    }


def main() -> int:
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    # From here on the binary stdout belongs to the frame protocol; any
    # stray print lands on stderr instead of corrupting the stream.
    sys.stdout = sys.stderr

    def read(n: int) -> bytes:
        return stdin.read(n) or b""

    shard: PoolShard | None = None
    max_trace_events = 0
    while True:
        try:
            frame = read_frame(read, MAX_FRAME_BYTES, eof_ok=True)
        except ProtocolError as exc:
            print(f"worker: unrecoverable stream error: {exc}",
                  file=sys.stderr)
            return 1
        if frame is None:  # parent closed our stdin: clean shutdown
            return 0
        kind = frame.get("type")
        try:
            if kind == "init":
                shard = _shard(frame)
                max_trace_events = int(frame["max_trace_events"])
                reply = {"type": "ready"}
            elif kind == "shutdown":
                write_frame(stdout, {"type": "bye"})
                return 0
            elif kind == "run" and shard is not None:
                reply = _run(shard, max_trace_events, frame)
            else:
                reply = {
                    "type": "error",
                    "error": f"unexpected frame type {kind!r}",
                }
        except Exception:
            # An init/dispatch failure must not wedge the loop silently:
            # report it and keep serving (the parent decides what's next).
            detail = traceback.format_exc(limit=8)
            print(f"worker: frame {kind!r} failed:\n{detail}",
                  file=sys.stderr)
            reply = {
                "type": "error",
                "error": detail.strip().splitlines()[-1],
            }
        try:
            write_frame(stdout, reply)
        except (BrokenPipeError, OSError):
            return 0  # parent is gone; nothing left to serve


if __name__ == "__main__":
    raise SystemExit(main())
