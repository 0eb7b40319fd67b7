"""Process-wide metrics: labelled counters, gauges and histograms.

The simulator's runtime layers (executor, supervisor, campaign, resilience,
crossbar controller) emit into one :class:`MetricsRegistry` so a single
scrape answers "where did the cycles, energy, retries and wall-clock go?".
The design follows the Prometheus data model:

- a **family** is a named metric with a fixed label schema
  (``repro_executor_ops_total{workload, op}``); registration is idempotent,
  so instrumentation sites can declare their families at call time without
  coordinating module import order;
- a **child** is one labelled time series inside a family; children are
  cached by label values, so the hot-loop cost of an update is one dict
  lookup plus one float add;
- **histograms** use fixed buckets chosen at registration
  (:func:`exponential_buckets` for latency/energy, whose dynamic range
  spans many decades); observation is a bisect over the bound list.

The registry's clock is injectable (it stamps snapshots, see
:mod:`repro.observability.export`), so tests and the chaos harness run on
:class:`~repro.runtime.supervisor.ManualClock` time and stay deterministic.

A module-level default registry backs the zero-setup path: the declared
families of :mod:`repro.observability.instruments` write through
:data:`binding` — ``(active registry, generation)``, the registry being
``None`` while observability is :func:`disable`-d (the overhead
benchmark uses exactly this switch to price the instrumentation layer).
Swapping the default registry, clearing any registry and toggling the
switch each replace that tuple, which is what tells a bound handle to
re-bind.
"""

from __future__ import annotations

import math
import re
import threading
import time
from bisect import bisect_left
from typing import Callable, Iterable

from repro.errors import ObservabilityError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "active_registry",
    "apply_counter_deltas",
    "counter_deltas",
    "default_registry",
    "disable",
    "enable",
    "enabled",
    "exponential_buckets",
    "set_default_registry",
    "snapshot_counters",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_ENERGY_BUCKETS",
]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*\Z")


def exponential_buckets(
    start: float, factor: float, count: int
) -> tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    The standard shape for latency and energy distributions, whose
    interesting structure spans decades: ``exponential_buckets(1e-6, 4, 15)``
    covers one microsecond to about a quarter hour.
    """
    if start <= 0:
        raise ObservabilityError(f"bucket start must be positive: {start}")
    if factor <= 1:
        raise ObservabilityError(f"bucket factor must exceed 1: {factor}")
    if count < 1:
        raise ObservabilityError(f"need at least one bucket: {count}")
    return tuple(start * factor**i for i in range(count))


#: Simulated/wall latency bounds: 1 us .. ~17 min in x4 steps.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(1e-6, 4.0, 15)
#: Energy bounds: 1 pJ .. ~10 J in x10 steps.
DEFAULT_ENERGY_BUCKETS = exponential_buckets(1e-12, 10.0, 14)


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ObservabilityError(f"invalid metric name {name!r}")
    return name


def _validate_labels(labelnames: Iterable[str]) -> tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ObservabilityError(f"invalid label name {label!r}")
    if len(set(names)) != len(names):
        raise ObservabilityError(f"duplicate label names in {names}")
    return names


class _Family:
    """Shared machinery: a named metric plus its labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = _validate_name(name)
        self.help = help
        self.labelnames = _validate_labels(labelnames)
        self._labelset = frozenset(self.labelnames)
        self._children: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def labels(self, **labels):
        """The child time series for these label values (created on first
        use, cached forever after — the hot path is one dict hit)."""
        if labels.keys() != self._labelset:
            raise ObservabilityError(
                f"{self.name}: got labels {sorted(labels)}, "
                f"schema is {sorted(self.labelnames)}"
            )
        key = tuple([str(labels[name]) for name in self.labelnames])
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._make_child())
        return child

    @property
    def _default_child(self):
        """The single child of an unlabelled family."""
        if self.labelnames:
            raise ObservabilityError(
                f"{self.name} is labelled by {self.labelnames}; "
                f"use .labels(...)"
            )
        return self.labels()

    def samples(self) -> list[tuple[dict, object]]:
        """``(labels dict, child)`` pairs in insertion order."""
        return [
            (dict(zip(self.labelnames, key)), child)
            for key, child in sorted(self._children.items())
        ]

    def signature(self) -> tuple:
        """What must match for an idempotent re-registration."""
        return (self.kind, self.labelnames)


class _CounterChild:
    # Each child carries its own lock: ``value += amount`` is a
    # read-modify-write, and the serving pool's shards increment shared
    # families concurrently.  Uncontended acquisition is ~100 ns — noise
    # next to the pricing work being counted.
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counters are monotonic; cannot add {amount}"
            )
        with self._lock:
            self.value += amount


class Counter(_Family):
    """A monotonically increasing sum (events, ops, cycles, joules)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled series."""
        self._default_child.inc(amount)

    @property
    def value(self) -> float:
        """The unlabelled series' current total."""
        return self._default_child.value


class _GaugeChild:
    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Gauge(_Family):
    """A value that goes both ways (breaker state, in-flight points)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default_child.set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default_child.inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default_child.dec(amount)

    @property
    def value(self) -> float:
        return self._default_child.value


class _HistogramChild:
    __slots__ = ("bounds", "counts", "sum", "exemplars", "_lock")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        # bucket index -> (value, exemplar labels); latest wins.  Lazy so
        # untraced histograms pay nothing.
        self.exemplars: dict[int, tuple[float, dict]] | None = None
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        value = float(value)
        if math.isnan(value):
            raise ObservabilityError("cannot observe NaN")
        with self._lock:
            index = bisect_left(self.bounds, value)
            self.counts[index] += 1
            self.sum += value
            if exemplar:
                if self.exemplars is None:
                    self.exemplars = {}
                self.exemplars[index] = (value, dict(exemplar))

    @property
    def count(self) -> int:
        return sum(self.counts)

    def cumulative(self) -> list[int]:
        """Per-bound cumulative counts, Prometheus style (``le`` semantics),
        ending with the +Inf bucket equal to :attr:`count`."""
        out, running = [], 0
        for count in self.counts:
            running += count
            out.append(running)
        return out


class Histogram(_Family):
    """A fixed-bucket distribution (``le`` upper-bound semantics)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...],
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ObservabilityError(f"{name}: need at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ObservabilityError(
                f"{name}: bucket bounds must increase strictly: {bounds}"
            )
        if any(not math.isfinite(b) for b in bounds):
            raise ObservabilityError(
                f"{name}: bounds must be finite (+Inf is implicit)"
            )
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, exemplar: dict | None = None) -> None:
        """Observe into the unlabelled series.

        ``exemplar`` — a small label dict, canonically
        ``{"trace_id": ...}`` — is attached to the bucket the value
        lands in (latest wins) and rendered in the exposition, linking
        the aggregate distribution back to a concrete traced request.
        """
        self._default_child.observe(value, exemplar)

    def signature(self) -> tuple:
        return (self.kind, self.labelnames, self.buckets)


class MetricsRegistry:
    """Owns metric families; one per process is the intended shape.

    ``clock`` stamps exported snapshots; inject a
    :class:`~repro.runtime.supervisor.ManualClock` for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._families: dict[str, _Family] = {}
        self._lock = threading.Lock()

    def _register(self, family: _Family) -> _Family:
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                self._families[family.name] = family
                return family
        if existing.signature() != family.signature():
            raise ObservabilityError(
                f"{family.name} already registered with signature "
                f"{existing.signature()}, conflicting with "
                f"{family.signature()}"
            )
        return existing

    def counter(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        """Get-or-create a counter family (idempotent)."""
        return self._register(Counter(name, help, tuple(labelnames)))

    def gauge(
        self, name: str, help: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        """Get-or-create a gauge family (idempotent)."""
        return self._register(Gauge(name, help, tuple(labelnames)))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Iterable[str] = (),
        buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Get-or-create a histogram family (idempotent)."""
        return self._register(
            Histogram(name, help, tuple(labelnames), tuple(buckets))
        )

    def get(self, name: str) -> _Family | None:
        """The family registered under ``name``, if any."""
        return self._families.get(name)

    def families(self) -> tuple[_Family, ...]:
        """All families, sorted by name (the exposition order)."""
        return tuple(
            self._families[name] for name in sorted(self._families)
        )

    def clear(self) -> None:
        """Drop every family and series (tests / fresh CLI runs); handles
        bound to the dropped families re-bind on their next write."""
        with self._lock:
            self._families.clear()
        _rebind()


# --- the process-wide default -----------------------------------------------

_default = MetricsRegistry()
_enabled = True
_state_lock = threading.Lock()
#: ``(active registry or None while disabled, generation)``.  Replaced as
#: one tuple by every swap, clear and enable/disable, so a handle that
#: bound its family against one value compares a single reference per
#: write and can never pair a new registry with an old family.
binding: tuple[MetricsRegistry | None, int] = (_default, 0)


def _rebind(registry: MetricsRegistry | None = None, on: bool | None = None):
    """Publish a new :data:`binding`, swapping the default registry and/or
    the switch first; returns the previous default registry."""
    global _default, _enabled, binding
    with _state_lock:
        previous = _default
        if registry is not None:
            _default = registry
        if on is not None:
            _enabled = on
        binding = (_default if _enabled else None, binding[1] + 1)
    return previous


def default_registry() -> MetricsRegistry:
    """The process-wide registry instrumentation writes to by default."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (returns the previous one)."""
    return _rebind(registry=registry)


def enable() -> None:
    """Turn instrumentation on (the default)."""
    _rebind(on=True)


def disable() -> None:
    """Turn instrumentation off: :func:`active_registry` returns ``None``
    and every write through a declared family of
    :mod:`repro.observability.instruments` returns at once — this is the
    baseline arm of the overhead benchmark."""
    _rebind(on=False)


def enabled() -> bool:
    """Whether instrumentation currently records anything."""
    return _enabled


def active_registry() -> MetricsRegistry | None:
    """The default registry, or ``None`` while observability is disabled."""
    return binding[0]


# --- cross-process counter forwarding ----------------------------------------
#
# Subprocess shard workers carry their own default registry; its counter
# increments would vanish with the process.  The worker snapshots its
# counters around each request, ships the per-series deltas in the result
# frame, and the supervisor folds them into the parent registry — one
# scrape still answers for the whole pool.  Only counters forward: gauges
# are point-in-time (the parent owns shard health), and histograms would
# need full bucket vectors for marginal value here.

def snapshot_counters(registry: MetricsRegistry) -> dict:
    """Counter series values keyed by ``(name, label-items tuple)``."""
    snapshot: dict = {}
    for family in registry.families():
        if family.kind != "counter":
            continue
        for labels, child in family.samples():
            snapshot[(family.name, tuple(labels.items()))] = child.value
    return snapshot


def counter_deltas(registry: MetricsRegistry, since: dict) -> list[dict]:
    """JSON-able counter increments since a :func:`snapshot_counters` call.

    Each entry is ``{"name", "help", "labels", "delta"}`` with ``labels``
    in the family's label-name order, so :func:`apply_counter_deltas` can
    re-register the family idempotently on the receiving side.
    """
    deltas: list[dict] = []
    for family in registry.families():
        if family.kind != "counter":
            continue
        for labels, child in family.samples():
            before = since.get((family.name, tuple(labels.items())), 0.0)
            delta = child.value - before
            if delta > 0:
                deltas.append(
                    {
                        "name": family.name,
                        "help": family.help,
                        "labels": labels,
                        "delta": delta,
                    }
                )
    return deltas


def apply_counter_deltas(
    registry: MetricsRegistry, deltas: list[dict]
) -> int:
    """Fold shipped counter deltas into ``registry``; returns how many
    entries were applied.  Malformed entries are skipped — the frames they
    ride in are data from another process, not trusted structure."""
    applied = 0
    for entry in deltas or ():
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        labels = entry.get("labels")
        delta = entry.get("delta")
        if (
            not isinstance(name, str)
            or not isinstance(labels, dict)
            or not isinstance(delta, (int, float))
            or delta < 0
        ):
            continue
        try:
            family = registry.counter(
                name, str(entry.get("help", "")), tuple(labels.keys())
            )
            if labels:
                family.labels(**labels).inc(delta)
            else:
                family.inc(delta)
        except ObservabilityError:
            continue  # schema clash with a local family: drop, don't crash
        applied += 1
    return applied
