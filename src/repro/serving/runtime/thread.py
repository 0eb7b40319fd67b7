"""One driver thread per shard: the shard driver every threaded runtime
shares.

:class:`ThreadRuntime` runs each request in-process.
:class:`~repro.serving.runtime.subprocess.SubprocessRuntime` is this same
driver with a different :meth:`ThreadRuntime.execute` and two hooks: a
per-poll hook that reaps a dead worker, and a per-shard teardown that
shuts the shard's worker down.
"""

from __future__ import annotations

import threading
import time

from repro.errors import FleetError
from repro.observability.instruments import SERVING_SHARD_HEALTHY
from repro.serving.runtime.base import IDLE_POLL_S, ShardRuntime

__all__ = ["ThreadRuntime"]


class ThreadRuntime(ShardRuntime):
    """A daemon driver thread per shard, pulling coalesced batches from
    the scheduler and running them through the pool's rescue ladder.

    Shards share the GIL, so NumPy-heavy loads do not scale with shard
    count — that is the subprocess runtime's job — but threads are free
    to start and right for small pools.

    Drivers are tracked per shard so the fleet control plane can resize a
    live pool: :meth:`shard_added` spawns one for the newcomer,
    :meth:`shard_removed` signals the victim's driver and joins it — the
    driver finishes its current batch first, so every request the shard
    held reaches a terminal result before the resize returns.
    """

    name = "thread"

    #: How the driver runs one request: ``None`` is the pool's in-process
    #: executor; a subclass sets a method with the same contract.
    execute = None

    def __init__(self) -> None:
        super().__init__()
        self._threads: dict[int, threading.Thread] = {}
        self._shard_stops: dict[int, threading.Event] = {}
        self._stop = threading.Event()

    def _spawn(self, shard) -> None:
        stop = self._shard_stops[shard.index] = threading.Event()
        thread = threading.Thread(
            target=self._drive,
            args=(shard, stop),
            name=f"crossbar-{shard.key}",
            daemon=True,
        )
        self._threads[shard.index] = thread
        thread.start()
        self.pool.scheduler.register_worker()

    def start(self) -> None:
        self._stop.clear()
        for shard in self.pool.shards:
            self._spawn(shard)

    def shard_added(self, shard) -> None:
        self._spawn(shard)

    def shard_removed(self, shard, timeout: float = 30.0) -> None:
        self._shard_stops.pop(shard.index).set()
        thread = self._threads.pop(shard.index)
        thread.join(timeout=timeout)
        # The shard takes no new batch either way, so it stops counting
        # toward the scheduler's service capacity now.
        self.pool.scheduler.unregister_worker()
        if thread.is_alive():
            # The batch in flight outlives the deadline.  The driver
            # still terminates every request it holds (the rescue ladder
            # guarantees it) and then tears its shard down — only the
            # resize's bounded-time promise is broken.
            raise FleetError(
                f"{shard.key} did not drain within {timeout:.1f}s; "
                "its in-flight batch completes in the background"
            )

    def _poll(self, shard) -> None:
        """Run by the driver before each poll of the queue."""

    def _release(self, shard) -> None:
        """Run by the driver as it exits: free what the shard holds."""

    def _drive(self, shard, shard_stop: threading.Event) -> None:
        pool = self.pool
        try:
            while not self._stop.is_set() and not shard_stop.is_set():
                self._poll(shard)
                if not shard.healthy:
                    SERVING_SHARD_HEALTHY.set(0, shard=shard.index)
                    time.sleep(IDLE_POLL_S)
                    continue
                SERVING_SHARD_HEALTHY.set(1, shard=shard.index)
                batch = pool.scheduler.next_batch(timeout=IDLE_POLL_S)
                if not batch:
                    continue
                pool._run_batch(shard, batch, execute=self.execute)
        finally:
            self._release(shard)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        self._stop.set()
        threads = list(self._threads.values())
        for thread in threads:
            thread.join(timeout=timeout)
        self._threads.clear()
        self._shard_stops.clear()
        for _ in threads:
            self.pool.scheduler.unregister_worker()
