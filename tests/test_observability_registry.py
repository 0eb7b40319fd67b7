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
        assert g.value == 15


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


class TestLazyDeclaration:
    """A family's first write registers that family alone; the registry's
    next listing declares the rest, so a scrape lists every family."""

    def test_first_write_registers_only_its_family_until_listed(self):
        from repro.observability.instruments import (
            EXECUTOR_RUNS,
            FAMILIES,
            SERVING_SHARD_BUSY,
        )

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
        finally:
            set_default_registry(previous)
        assert registry.get(SERVING_SHARD_BUSY.name) is not None
        assert registry.get(EXECUTOR_RUNS.name) is None
        assert [f.name for f in registry.families()] == sorted(
            inst.name for inst in FAMILIES
        )
        assert registry.get(EXECUTOR_RUNS.name) is not None

    def test_an_unwritten_or_cleared_registry_lists_nothing(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        registry = MetricsRegistry()
        assert registry.families() == ()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.inc(1.0, shard=0)
            registry.clear()
        finally:
            set_default_registry(previous)
        assert registry.families() == ()


class TestSeriesHandles:
    """A :class:`Series` handle (one fixed-label series of a declared
    family) re-resolves its child on every binding change, as its
    :class:`Instrument` does."""

    @staticmethod
    def _value(registry, shard):
        return TestBoundHandles._value(registry, shard)

    def test_write_follows_swaps_clears_and_disable(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        series = SERVING_SHARD_BUSY.series(shard=0)
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_default_registry(first)
        try:
            series.inc(1.0)
            set_default_registry(second)
            series.inc(2.0)
            second.clear()
            series.inc(4.0)
            disable()
            try:
                series.inc(8.0)
            finally:
                enable()
            series.inc(16.0)
        finally:
            set_default_registry(previous)
        assert self._value(first, 0) == 1.0
        assert self._value(second, 0) == 20.0

    def test_series_and_instrument_share_one_child(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_SHARD_BUSY.series(shard="0").inc(1.0)
            SERVING_SHARD_BUSY.inc(2.0, shard=0)
        finally:
            set_default_registry(previous)
        family = registry.get("repro_serving_shard_busy_seconds_total")
        assert [labels for labels, _ in family.samples()] == [{"shard": "0"}]
        assert self._value(registry, 0) == 3.0

    def test_observe_carries_the_exemplar(self):
        from repro.observability.instruments import REQUEST_DURATION

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            REQUEST_DURATION.series().observe(0.5, {"trace_id": "t-1"})
        finally:
            set_default_registry(previous)
        child = registry.get(REQUEST_DURATION.name).labels()
        assert child.count == 1
        assert [ex for _, ex in child.exemplars.values()] == [
            {"trace_id": "t-1"}
        ]

    def test_child_reads_the_familys_cache_by_value_tuple(self):
        """``Instrument.child(*values)`` resolves the same series as a
        keyword write, renders non-string values with ``str`` and checks
        the value count."""
        from repro.observability.instruments import SERVING_REQUESTS

        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            SERVING_REQUESTS.child("a", "ok").inc()
            SERVING_REQUESTS.inc(2.0, tenant="a", status="ok")
            SERVING_REQUESTS.child(7, "ok").inc()
            with pytest.raises(ObservabilityError):
                SERVING_REQUESTS.child("a")
            disable()
            try:
                assert SERVING_REQUESTS.child("a", "ok") is None
            finally:
                enable()
        finally:
            set_default_registry(previous)
        family = registry.get(SERVING_REQUESTS.name)
        assert family.labels(tenant="a", status="ok").value == 3.0
        assert family.labels(tenant="7", status="ok").value == 1.0
        assert len(family.samples()) == 2

    def test_series_rejects_labels_outside_the_schema(self):
        from repro.observability.instruments import SERVING_SHARD_BUSY

        with pytest.raises(ObservabilityError):
            SERVING_SHARD_BUSY.series(tenant="a")

    def test_touch_materialises_once_per_binding(self):
        from repro.observability.instruments import SUPERVISOR_RETRIES

        series = SUPERVISOR_RETRIES.series()
        first, second = MetricsRegistry(), MetricsRegistry()
        previous = set_default_registry(first)
        try:
            series.touch()
            assert first.get(SUPERVISOR_RETRIES.name).value == 0.0
            series.inc()
            series.touch()  # already bound: leaves the count alone
            assert first.get(SUPERVISOR_RETRIES.name).value == 1.0
            set_default_registry(second)
            series.touch()
        finally:
            set_default_registry(previous)
        family = second.get(SUPERVISOR_RETRIES.name)
        assert [labels for labels, _ in family.samples()] == [{}]
        assert family.value == 0.0

    def test_no_write_is_lost_across_concurrent_swaps(self):
        import sys

        from repro.observability.instruments import SERVING_SHARD_BUSY

        registries = [MetricsRegistry() for _ in range(40)]
        writers = 4
        handles = [SERVING_SHARD_BUSY.series(shard=i) for i in range(writers)]
        writes = [0] * writers
        stop = threading.Event()

        def write(slot: int) -> None:
            while not stop.is_set():
                handles[slot].inc(1.0)
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
