"""Streaming quantile sketches for tail-latency analytics.

Fixed-bucket histograms (:mod:`repro.observability.registry`) answer
"how many requests landed between 4 and 16 ms?" — good enough for
dashboards, but tail reporting (p99, p999) degenerates into bucket
interpolation: the answer is whatever bound the bucket grid happened to
place near the tail.  :class:`QuantileSketch` replaces that guess with a
bounded-memory summary whose quantile estimates carry a *self-certified*
rank-error bound.

The structure is a deterministic KLL-style compactor: level ``l`` holds
raw values of weight ``2**l`` in a bounded buffer; a full buffer is
sorted and every other element promoted to the next level with doubled
weight (the surviving offset alternates per compaction, so the
systematic rank bias cancels).  Each compaction of level ``l`` moves any
query's estimated rank by at most ``2**l``, and the sketch accumulates
exactly that into :meth:`rank_error`: the reported quantiles are
guaranteed within ``rank_error`` ranks of the truth, and the property
tests assert against the sketch's own certificate rather than a folklore
constant.  Until the first compaction the sketch is exact.

:class:`LatencyAnalytics` is the serving-layer convenience: one named
sketch per pipeline layer (queue wait, service, end-to-end), thread-safe
under one lock they share, with a ``summary()`` rendering
p50/p95/p99/p999 for ``/stats`` and the ``repro slo`` CLI.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from itertools import accumulate

from repro.errors import ObservabilityError

__all__ = ["LatencyAnalytics", "QuantileSketch", "TAIL_QUANTILES"]

#: The quantiles every summary reports, tail-first naming.
TAIL_QUANTILES = {"p50": 0.50, "p95": 0.95, "p99": 0.99, "p999": 0.999}


def _checked(value: float) -> float:
    value = float(value)
    if math.isnan(value):
        raise ObservabilityError("cannot observe NaN")
    return value


class QuantileSketch:
    """A bounded-memory quantile summary (see module doc).

    ``capacity`` bounds each level's buffer; total memory is
    ``O(capacity * log(n / capacity))`` values.  Estimates are exact while
    fewer than ``capacity`` values have been observed.
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 8:
            raise ObservabilityError(
                f"sketch capacity must be at least 8: {capacity}"
            )
        self.capacity = int(capacity)
        self._levels: list[list[float]] = [[]]
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._alternate = 0
        self._rank_error = 0  # absolute ranks, certified upper bound
        self._lock = threading.Lock()

    # -- ingest ---------------------------------------------------------------

    def observe(self, value: float) -> None:
        """Ingest one value (weight 1)."""
        value = _checked(value)
        with self._lock:
            self._ingest(value)

    def _ingest(self, value: float) -> None:
        """Ingest one checked value (lock held)."""
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        level = self._levels[0]
        level.append(value)
        if len(level) > self.capacity:
            self._compact(0)

    def _compact(self, level: int) -> None:
        """Promote half of a full level, doubling weights (lock held).

        Sorted-alternate promotion keeps any rank estimate within
        ``2**level`` of its pre-compaction value; that bound is added to
        the error certificate.
        """
        buf = sorted(self._levels[level])
        kept: list[float] = []
        if len(buf) % 2:
            kept.append(buf.pop())  # odd one out stays at this level
        offset = self._alternate
        self._alternate ^= 1
        promoted = buf[offset::2]
        self._levels[level] = kept
        if level + 1 >= len(self._levels):
            self._levels.append([])
        self._levels[level + 1].extend(promoted)
        self._rank_error += 1 << level
        if len(self._levels[level + 1]) > self.capacity:
            self._compact(level + 1)

    # -- queries --------------------------------------------------------------

    @property
    def count(self) -> int:
        """Values observed (merges included)."""
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else math.nan

    @property
    def min(self) -> float:
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        return self._max if self._count else math.nan

    def rank_error(self) -> int:
        """Certified bound, in absolute ranks, on any quantile estimate.

        Zero while the sketch is still exact (no compaction has run);
        grows by ``2**level`` per level-``level`` compaction and by the
        other side's certificate on merge.
        """
        return self._rank_error

    def _weighted(self) -> list[tuple[float, int]]:
        items: list[tuple[float, int]] = []
        for level, buf in enumerate(self._levels):
            weight = 1 << level
            items.extend((value, weight) for value in buf)
        items.sort(key=lambda pair: pair[0])
        return items

    def _quantiles_locked(self, qs) -> list[float]:
        """The value at rank ``q * count`` for each ``q`` (lock held).

        One sort of the weighted samples serves every ``q``: the answer
        is the first value whose cumulative weight reaches the rank.
        """
        count = self._count
        if count == 0:
            return [math.nan] * len(qs)
        items = cumulative = None
        out = []
        for q in qs:
            if q == 0.0:
                value = self._min
            elif q == 1.0:
                value = self._max
            else:
                if items is None:
                    items = self._weighted()
                    cumulative = list(accumulate(w for _, w in items))
                index = bisect_left(cumulative, q * count)
                value = items[min(index, len(items) - 1)][0]
            out.append(value)
        return out

    def quantile(self, q: float) -> float:
        """The value whose rank is (approximately) ``q * count``.

        Returns an actually-observed value — never an interpolation — so
        quantiles are monotone in ``q`` and ``quantile(0)`` /
        ``quantile(1)`` are the exact min/max.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1]: {q}")
        with self._lock:
            return self._quantiles_locked((q,))[0]

    def summary(self) -> dict:
        """JSON-able roll-up: count, mean, extremes, tail quantiles and
        the error certificate (so consumers can judge p999 credibility).

        One snapshot under the lock, with one sort for every quantile, so
        a concurrent writer cannot tear it."""
        with self._lock:
            count = self._count
            out: dict = {
                "count": count,
                "mean": self._sum / count if count else math.nan,
                "min": self._min if count else math.nan,
                "max": self._max if count else math.nan,
                "rank_error": self._rank_error,
            }
            values = self._quantiles_locked(TAIL_QUANTILES.values())
        out.update(zip(TAIL_QUANTILES, values))
        return out


class LatencyAnalytics:
    """Named per-layer sketches: the serving stack's tail-latency ledger.

    Every sketch shares the analytics' one lock, so :meth:`observe_request`
    ingests a request's three layers in one critical section.
    """

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self._sketches: dict[str, QuantileSketch] = {}
        self._lock = threading.Lock()
        #: The ``queue_wait``, ``service`` and ``e2e`` sketches' ingest
        #: methods, bound by the first :meth:`observe_request`.
        self._request_ingest = None

    def _sketch_locked(self, layer: str) -> QuantileSketch:
        sketch = self._sketches.get(layer)
        if sketch is None:
            sketch = self._sketches[layer] = QuantileSketch(self.capacity)
            sketch._lock = self._lock  # one lock for every layer
        return sketch

    def sketch(self, layer: str) -> QuantileSketch:
        """The sketch for one layer (created on first use)."""
        sketch = self._sketches.get(layer)
        if sketch is None:
            with self._lock:
                sketch = self._sketch_locked(layer)
        return sketch

    def observe(self, layer: str, seconds: float) -> None:
        """Record one latency sample against a layer."""
        self.sketch(layer).observe(seconds)

    def observe_request(
        self, queue_wait_s: float, service_s: float, e2e_s: float
    ) -> None:
        """Record one served request's ``queue_wait``, ``service`` and
        ``e2e`` samples under one lock acquisition.

        A NaN among them refuses all three before any is ingested.  The
        three sketches are looked up once, by the first call, and their
        ``_ingest`` methods kept bound."""
        queue_wait_s = float(queue_wait_s)
        service_s = float(service_s)
        e2e_s = float(e2e_s)
        if (  # NaN is the one value unequal to itself
            queue_wait_s != queue_wait_s
            or service_s != service_s
            or e2e_s != e2e_s
        ):
            raise ObservabilityError("cannot observe NaN")
        lock = self._lock
        lock.acquire()
        try:
            ingest = self._request_ingest
            if ingest is None:
                ingest = self._request_ingest = tuple(
                    self._sketch_locked(layer)._ingest
                    for layer in ("queue_wait", "service", "e2e")
                )
            queue_wait, service, e2e = ingest
            queue_wait(queue_wait_s)
            service(service_s)
            e2e(e2e_s)
        finally:
            lock.release()

    def layers(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._sketches))

    def summary(self) -> dict:
        """``{layer: sketch summary}`` for ``/stats`` and the CLI."""
        return {layer: self.sketch(layer).summary() for layer in self.layers()}
