"""No concurrency at all: requests execute on the submitting thread."""

from __future__ import annotations

import threading

from repro.serving.runtime.base import ShardRuntime

__all__ = ["InlineRuntime"]


class InlineRuntime(ShardRuntime):
    """Synchronous execution for tests, debugging and campaigns.

    :meth:`after_submit` pumps the scheduler until it is empty, running
    every coalesced batch on the next healthy shard (round-robin) before
    :meth:`~repro.serving.pool.CrossbarPool.submit` returns — so by the
    time a caller asks for its result, the result exists.  One lock keeps
    concurrent submitters correct (each pump drains the whole queue, so a
    blocked submitter's request is executed by whichever pump holds the
    lock).  When every shard's breaker is open the batch still executes
    on a round-robin shard — the reroute bound already caps how often a
    request may dodge a sick shard, and inline mode has no other thread
    to wait for.
    """

    name = "inline"

    def __init__(self) -> None:
        super().__init__()
        self._pump_lock = threading.Lock()
        self._next_shard = 0

    def start(self) -> None:
        self.pool.scheduler.register_worker()

    def _pick_shard(self):
        shards = self.pool.shards
        n = len(shards)
        for offset in range(n):
            shard = shards[(self._next_shard + offset) % n]
            if shard.healthy:
                self._next_shard = (self._next_shard + offset + 1) % n
                return shard
        shard = shards[self._next_shard % n]
        self._next_shard = (self._next_shard + 1) % n
        return shard

    def pump(self) -> int:
        """Drain the scheduler synchronously; returns batches executed."""
        executed = 0
        scheduler = self.pool.scheduler
        with self._pump_lock:
            # A submitter that queues after this loop reads zero pumps
            # for itself once this pump releases the lock.
            while scheduler.queued:
                batch = scheduler.next_batch(timeout=0.0)
                if not batch:
                    break
                self.pool._run_batch(self._pick_shard(), batch)
                executed += 1
        return executed

    def after_submit(self) -> None:
        # A hit answered at admission queues nothing: no pump, no lock.
        # A queued request is seen here by its own submitter, or was
        # already taken by a pump that runs it.
        if self.pool.scheduler.queued:
            self.pump()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if drain:
            self.pump()
        self.pool.scheduler.unregister_worker()
