"""Pluggable shard runtimes for :class:`~repro.serving.pool.CrossbarPool`.

``CrossbarPool(runtime="inline" | "thread" | "subprocess")`` — or pass a
:class:`ShardRuntime` instance for custom tuning.  See
:mod:`repro.serving.runtime.base` for the contract and the selection
guidance, :mod:`repro.serving.runtime.protocol` for the wire format the
subprocess runtime speaks.  The runtimes re-export lazily
(``repro._lazy``), so a thread-runtime server never loads the subprocess
runtime or its protocol.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.errors import ServingError
from repro.serving.runtime.base import ShardRuntime

__getattr__, __dir__ = lazy_exports(__name__, {
    "inline": ("InlineRuntime",),
    "subprocess": ("SubprocessRuntime", "WorkerHandle"),
    "thread": ("ThreadRuntime",),
})

__all__ = [
    "RUNTIMES",
    "InlineRuntime",
    "ShardRuntime",
    "SubprocessRuntime",
    "ThreadRuntime",
    "WorkerHandle",
    "resolve_runtime",
]

#: Selection keys for ``CrossbarPool(runtime=...)`` / ``--runtime``, each
#: naming the runtime class it builds.
RUNTIMES = {
    "inline": "InlineRuntime",
    "thread": "ThreadRuntime",
    "subprocess": "SubprocessRuntime",
}


def resolve_runtime(runtime) -> ShardRuntime:
    """A :class:`ShardRuntime` instance from a name or instance."""
    if isinstance(runtime, ShardRuntime):
        return runtime
    if isinstance(runtime, str):
        name = RUNTIMES.get(runtime)
        if name is None:
            raise ServingError(
                f"unknown runtime {runtime!r}; choose from "
                f"{sorted(RUNTIMES)} or pass a ShardRuntime instance"
            )
        return __getattr__(name)()
    raise ServingError(
        f"runtime must be a name or ShardRuntime, got {type(runtime).__name__}"
    )
