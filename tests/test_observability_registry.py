"""Unit tests for the metrics registry (repro.observability.registry)."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    MetricsRegistry,
    active_registry,
    default_registry,
    disable,
    enable,
    enabled,
    exponential_buckets,
    set_default_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_unlabelled_inc(self, registry):
        c = registry.counter("repro_t_total", "help")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_labelled_children_are_independent(self, registry):
        c = registry.counter("repro_t_total", "", ("op",))
        c.labels(op="mul").inc(3)
        c.labels(op="add").inc(1)
        assert c.labels(op="mul").value == 3
        assert c.labels(op="add").value == 1

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("repro_t_total", "")
        with pytest.raises(ObservabilityError):
            c.inc(-1)

    def test_zero_increment_materialises_series(self, registry):
        c = registry.counter("repro_t_total", "")
        c.inc(0)
        assert [value.value for _, value in c.samples()] == [0.0]

    def test_label_schema_enforced(self, registry):
        c = registry.counter("repro_t_total", "", ("op",))
        with pytest.raises(ObservabilityError):
            c.labels(workload="Sobel")
        with pytest.raises(ObservabilityError):
            c.inc()  # unlabelled access to a labelled family

    def test_label_values_coerced_to_str(self, registry):
        c = registry.counter("repro_t_total", "", ("code",))
        c.labels(code=7).inc()
        assert c.labels(code="7").value == 1


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("repro_g", "")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13


class TestHistogram:
    def test_observations_land_in_le_buckets(self, registry):
        h = registry.histogram("repro_h", "", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            h.observe(value)
        (_, child), = h.samples()
        # le semantics: 1.0 counts in the le="1" bucket.
        assert child.counts == [2, 1, 1]
        assert child.cumulative() == [2, 3, 4]
        assert child.count == 4
        assert child.sum == pytest.approx(106.5)

    def test_bucket_validation(self, registry):
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_h", "", buckets=())
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_h2", "", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_h3", "", buckets=(1.0, float("inf")))

    def test_nan_observation_rejected(self, registry):
        h = registry.histogram("repro_h", "", buckets=(1.0,))
        with pytest.raises(ObservabilityError):
            h.observe(float("nan"))

    def test_exponential_buckets(self):
        assert exponential_buckets(1.0, 2.0, 4) == (1.0, 2.0, 4.0, 8.0)
        with pytest.raises(ObservabilityError):
            exponential_buckets(0.0, 2.0, 3)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1.0, 1.0, 3)
        with pytest.raises(ObservabilityError):
            exponential_buckets(1.0, 2.0, 0)


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        a = registry.counter("repro_t_total", "first", ("op",))
        b = registry.counter("repro_t_total", "second", ("op",))
        assert a is b

    def test_conflicting_reregistration_rejected(self, registry):
        registry.counter("repro_t_total", "", ("op",))
        with pytest.raises(ObservabilityError):
            registry.gauge("repro_t_total", "")
        with pytest.raises(ObservabilityError):
            registry.counter("repro_t_total", "", ("workload",))
        registry.histogram("repro_h", "", buckets=(1.0, 2.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("repro_h", "", buckets=(1.0, 3.0))

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ObservabilityError):
            registry.counter("7bad", "")
        with pytest.raises(ObservabilityError):
            registry.counter("has space", "")
        with pytest.raises(ObservabilityError):
            registry.counter("repro_t_total", "", ("0bad",))
        with pytest.raises(ObservabilityError):
            registry.counter("repro_t2_total", "", ("a", "a"))

    def test_families_sorted_by_name(self, registry):
        registry.counter("repro_b_total", "")
        registry.counter("repro_a_total", "")
        assert [f.name for f in registry.families()] == [
            "repro_a_total", "repro_b_total",
        ]

    def test_injectable_clock(self):
        registry = MetricsRegistry(clock=lambda: 42.0)
        assert registry.clock() == 42.0

    def test_clear_drops_everything(self, registry):
        registry.counter("repro_t_total", "").inc()
        registry.clear()
        assert registry.families() == ()

    def test_instrumented_write_after_clear_redeclares(self, registry):
        from repro.observability import to_prometheus
        from repro.observability.instruments import record_campaign_point

        previous = set_default_registry(registry)
        try:
            record_campaign_point("ok")
            registry.clear()
            record_campaign_point("ok")
        finally:
            set_default_registry(previous)
        text = to_prometheus(registry)
        assert 'repro_campaign_points_total{status="ok"} 1' in text
        assert "# TYPE repro_executor_runs_total counter" in text

    def test_concurrent_updates_are_consistent(self, registry):
        c = registry.counter("repro_t_total", "", ("worker",))
        h = registry.histogram("repro_h", "", ("worker",), buckets=(0.5,))

        def work(worker: str):
            mine_c = c.labels(worker=worker)
            mine_h = h.labels(worker=worker)
            for _ in range(2000):
                mine_c.inc()
                mine_h.observe(1.0)

        threads = [
            threading.Thread(target=work, args=(str(i),)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(4):
            assert c.labels(worker=str(i)).value == 2000
            assert h.labels(worker=str(i)).count == 2000


class TestGlobalSwitch:
    def test_default_registry_active_by_default(self):
        assert enabled()
        assert active_registry() is default_registry()

    def test_disable_hides_the_registry(self):
        try:
            disable()
            assert not enabled()
            assert active_registry() is None
        finally:
            enable()
        assert active_registry() is default_registry()

    def test_swap_default_registry(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert default_registry() is mine
        finally:
            set_default_registry(previous)


class TestBoundHandles:
    """Module-level :class:`Instrument` handles bind their family once per
    registry binding; every way the binding changes must re-bind them."""

    @staticmethod
    def _value(registry, shard):
        family = registry.get("repro_serving_shard_busy_seconds_total")
        return None if family is None else family.labels(shard=shard).value

    def test_write_follows_a_swapped_default_registry(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_default_registry(first)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
            set_default_registry(second)
            SERVING_SHARD_BUSY.inc(2.0, shard=0)
        finally:
            set_default_registry(previous)
        assert self._value(first, 0) == 1.0
        assert self._value(second, 0) == 2.0

    def test_write_after_clear_lands_in_the_new_family(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
            registry.clear()
            SERVING_SHARD_BUSY.inc(3.0, shard=0)
        finally:
            set_default_registry(previous)
        assert self._value(registry, 0) == 3.0

    def test_disable_then_enable_rebinds(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
            disable()
            try:
                SERVING_SHARD_BUSY.inc(10.0, shard=0)
            finally:
                enable()
            SERVING_SHARD_BUSY.inc(2.0, shard=0)
        finally:
            set_default_registry(previous)
        assert self._value(registry, 0) == 3.0

    def test_int_and_str_label_values_are_one_series(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
            SERVING_SHARD_BUSY.inc(2.0, shard="0")
        finally:
            set_default_registry(previous)
        family = registry.get("repro_serving_shard_busy_seconds_total")
        assert [labels for labels, _ in family.samples()] == [{"shard": "0"}]
        assert self._value(registry, 0) == 3.0

    def test_binding_is_one_tuple_of_registry_and_family(self):
        from repro.observability import registry as registry_module
        from repro.observability.instruments import SERVING_SHARD_BUSY

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
            binding, children, family = SERVING_SHARD_BUSY._bound
            assert binding is registry_module.binding
            assert binding[0] is registry
            assert family is registry.get(SERVING_SHARD_BUSY.name)
            assert children[(("shard", 0),)] is family.labels(shard=0)
        finally:
            set_default_registry(previous)

    def test_no_write_is_lost_across_concurrent_swaps(self):
        """More writers than cores race registry swaps, switching often:
        every write lands in a family some registry actually holds, so
        the totals add up."""
        import sys

        from repro.observability.instruments import SERVING_SHARD_BUSY

        registries = [MetricsRegistry() for _ in range(40)]
        writers = 4
        writes = [0] * writers
        stop = threading.Event()

        def write(slot: int) -> None:
            while not stop.is_set():
                SERVING_SHARD_BUSY.inc(1.0, shard=slot)
                writes[slot] += 1

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(writers)
        ]
        previous = set_default_registry(registries[0])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for registry in registries[1:]:
                set_default_registry(registry)
                threading.Event().wait(0.002)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
            sys.setswitchinterval(interval)
            set_default_registry(previous)
        assert not any(t.is_alive() for t in threads)
        for slot in range(writers):
            landed = sum(self._value(r, slot) or 0.0 for r in registries)
            assert landed == writes[slot] > 0
