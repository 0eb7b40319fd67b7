"""The serving layer: sharded execution behind a batching queue.

The paper's pitch is throughput at scale — APIM keeps per-element cost
flat while the GPU baseline degrades with dataset size — and this package
is the tier that turns the single-process reproduction into a service:

- :mod:`repro.serving.scheduler` — bounded priority queues with tenant
  fair-share, deadline-aware admission control, backpressure, and
  max-batch/max-wait coalescing of same-workload requests;
- :mod:`repro.serving.pool` — the :class:`CrossbarPool`: N shards, each a
  private executor/harness wrapped in the PR-2 supervisor, pulling
  batches so a breaker-tripped shard sheds traffic to healthy ones;
- :mod:`repro.serving.runtime` — pluggable execution mechanics per pool:
  inline (synchronous), thread (daemon thread per shard) or subprocess
  (process per shard behind a frame protocol — GIL escape, worker
  supervision, crash recovery with exactly-once re-drive);
- :mod:`repro.serving.http` — the shared HTTP server and its request
  reader (graceful shutdown, bounded bodies) the metrics endpoint
  reuses;
- :mod:`repro.serving.frontend` — the JSON API (``/submit``,
  ``/result/<id>``, ``/healthz``, ``/stats``, ``/metrics``) behind
  ``repro serve``.

See ``docs/serving.md`` for the architecture and tuning guide.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "http": ("JsonHttpServer",),
    "pool": ("Client", "CrossbarPool", "PoolShard"),
    "runtime": ("InlineRuntime", "ShardRuntime", "SubprocessRuntime",
                "ThreadRuntime"),
    "scheduler": ("BatchingScheduler", "ResultStore", "ServeRequest",
                  "ServeResult", "ServingConfig"),
})

__all__ = [
    "BatchingScheduler",
    "Client",
    "CrossbarPool",
    "InlineRuntime",
    "JsonHttpServer",
    "PoolShard",
    "ResultStore",
    "ServeRequest",
    "ServeResult",
    "ServingConfig",
    "ShardRuntime",
    "SubprocessRuntime",
    "ThreadRuntime",
]
