"""The exception hierarchy contract: one catchable base for embedders.

Anything the simulator raises must derive from :class:`ReproError`, so a
host application wraps every call site in a single ``except ReproError``.
These tests pin that contract — including the resilience additions
(:class:`FaultError`, :class:`RecoveryError`) — so a refactor cannot
silently detach an error type from the base.
"""

from __future__ import annotations

import inspect

import pytest

import repro.errors as errors_module
from repro.errors import (
    AdmissionRejectedError,
    ApproximationError,
    CheckpointError,
    CircuitOpenError,
    ConfigurationError,
    CrossbarError,
    DeadlineExceededError,
    DeviceError,
    DuplicateRequestError,
    FaultError,
    FleetError,
    JournalError,
    KernelExecutionError,
    ProtocolError,
    QoSError,
    RecoveryError,
    ReproError,
    ScaleRejectedError,
    SearchError,
    ServingError,
    ShardUnavailableError,
    SLOError,
    TelemetryError,
    TracingError,
    TransientError,
    WorkerCrashedError,
    WorkloadError,
)

ALL_ERRORS = [
    AdmissionRejectedError,
    ApproximationError,
    CheckpointError,
    CircuitOpenError,
    ConfigurationError,
    CrossbarError,
    DeadlineExceededError,
    DeviceError,
    DuplicateRequestError,
    FaultError,
    FleetError,
    JournalError,
    KernelExecutionError,
    ProtocolError,
    QoSError,
    RecoveryError,
    ScaleRejectedError,
    SearchError,
    ServingError,
    ShardUnavailableError,
    SLOError,
    TelemetryError,
    TracingError,
    TransientError,
    WorkerCrashedError,
    WorkloadError,
]


class TestHierarchy:
    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_every_export_subclasses_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_every_export_is_catchable_as_repro_error(self, exc):
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_no_stray_exception_in_module(self):
        """Every exception defined in repro.errors derives from ReproError."""
        for _, obj in inspect.getmembers(errors_module, inspect.isclass):
            if issubclass(obj, BaseException) and obj is not ReproError:
                assert issubclass(obj, ReproError), obj

    def test_recovery_error_is_a_fault_error(self):
        """Exhausted spares are a (terminal) kind of fault: one handler
        covers both the detection and the resource-exhaustion paths."""
        assert issubclass(RecoveryError, FaultError)
        with pytest.raises(FaultError):
            raise RecoveryError("spares exhausted")

    def test_kernel_execution_error_is_a_workload_error(self):
        """A raw kernel escape is one kind of workload failure: existing
        ``except WorkloadError`` handlers keep covering it."""
        assert issubclass(KernelExecutionError, WorkloadError)
        with pytest.raises(WorkloadError):
            raise KernelExecutionError("ZeroDivisionError in kernel")

    def test_supervision_errors_share_the_single_base(self):
        """The supervised runtime's failure modes are catchable both
        individually and as ReproError — the embedding contract."""
        for exc in (TransientError, DeadlineExceededError, CircuitOpenError,
                    CheckpointError):
            assert issubclass(exc, ReproError)
            assert not issubclass(exc, WorkloadError)

    def test_executor_normalises_raw_kernel_escapes(self):
        """A kernel raising a bare ValueError surfaces as
        KernelExecutionError with the original chained as __cause__."""
        import numpy as np

        from repro.baselines.gpu import WorkloadProfile
        from repro.runtime.executor import APIMExecutor
        from repro.workloads.base import Workload, WorkloadData

        class ExplodingWorkload(Workload):
            name = "Exploding"
            kind = "signal"

            def generate(self, elements, rng):
                return WorkloadData(
                    arrays={"x": np.zeros(elements, dtype=np.int64)},
                    elements=elements,
                )

            def run(self, engine, data):
                raise ValueError("raw kernel bug")

            def reference(self, data):
                return data.array("x")

            def profile(self):
                return WorkloadProfile(
                    name=self.name, element_bytes=4,
                    flops_per_element=1.0, reads_per_element=1.0,
                    writes_per_element=1.0, passes=lambda n: 1.0,
                    trace=lambda n: iter(()),
                )

        with pytest.raises(KernelExecutionError) as info:
            APIMExecutor().run(ExplodingWorkload(), elements=8)
        assert isinstance(info.value.__cause__, ValueError)

    def test_search_error_is_its_own_domain(self):
        """Similarity-search misuse is neither a workload-construction
        failure nor a serving failure: the `/search` frontend maps it to
        HTTP 400 explicitly, and campaign code must not swallow it under
        an ``except WorkloadError``."""
        assert issubclass(SearchError, ReproError)
        assert not issubclass(SearchError, WorkloadError)
        assert not issubclass(SearchError, ServingError)
        with pytest.raises(ReproError):
            raise SearchError("query dim 63 != codebook dim 64")

    def test_scale_rejected_error_is_a_fleet_error(self):
        """A bounded scale refusal is one kind of fleet-control failure:
        the autoscaler's single ``except FleetError`` rescue covers both
        refusals and actual resize faults, and the refusal carries what
        was refused and why so the decision log can say so."""
        assert issubclass(ScaleRejectedError, FleetError)
        assert not issubclass(FleetError, ServingError)
        exc = ScaleRejectedError("no", direction="shrink", reason="min")
        assert (exc.direction, exc.reason) == ("shrink", "min")
        assert ScaleRejectedError("bare").direction == ""
        with pytest.raises(FleetError):
            raise exc

    def test_serving_errors_subclass_serving_error(self):
        """One ``except ServingError`` covers the whole serving surface."""
        for exc in (AdmissionRejectedError, ShardUnavailableError,
                    ProtocolError, WorkerCrashedError):
            assert issubclass(exc, ServingError)
        assert not issubclass(ServingError, WorkloadError)

    def test_worker_crashed_error_carries_the_post_mortem(self):
        """The supervision ladder decides respawn/backoff from the crash
        report, so shard, pid and cause of death must ride the error."""
        exc = WorkerCrashedError("gone")
        assert (exc.shard, exc.pid, exc.reason) == (-1, None, "crashed")
        exc = WorkerCrashedError(
            "hung", shard=3, pid=4242, reason="hang"
        )
        assert (exc.shard, exc.pid, exc.reason) == (3, 4242, "hang")
        with pytest.raises(ServingError):
            raise exc

    def test_shard_unavailable_retry_after_is_optional(self):
        """A draining pool tells clients when to come back; a
        breaker-dark pool has no estimate (``None``)."""
        assert ShardUnavailableError("dark").retry_after_s is None
        exc = ShardUnavailableError("draining", retry_after_s=0.25)
        assert exc.retry_after_s == 0.25

    def test_worker_pipe_errors_are_normalised(self):
        """A raw BrokenPipeError from a dead worker's stdin surfaces as
        WorkerCrashedError (cause chained), never as the pipe error."""
        import threading

        from repro.serving.runtime.protocol import MAX_FRAME_BYTES
        from repro.serving.runtime.subprocess import WorkerHandle

        class DeadPipe:
            def write(self, data):
                raise BrokenPipeError("worker is gone")

            def flush(self):
                raise BrokenPipeError("worker is gone")

        class DeadProcess:
            pid = 4242
            stdin = DeadPipe()

            def poll(self):
                return -9

        handle = WorkerHandle.__new__(WorkerHandle)
        handle.shard_index = 1
        handle.max_frame_bytes = MAX_FRAME_BYTES
        handle._lock = threading.Lock()
        handle.process = DeadProcess()
        with pytest.raises(WorkerCrashedError) as info:
            handle.send({"type": "ping"})
        assert isinstance(info.value.__cause__, BrokenPipeError)
        assert info.value.reason == "exited"
        assert info.value.pid == 4242

    def test_worker_eof_is_normalised(self):
        """Pipe EOF mid-conversation (the SIGKILL signature) surfaces as
        WorkerCrashedError with reason ``exited`` — never a raw EOFError
        or an indefinite hang."""
        import os
        import threading

        from repro.serving.runtime.protocol import MAX_FRAME_BYTES
        from repro.serving.runtime.subprocess import WorkerHandle

        read_fd, write_fd = os.pipe()
        os.close(write_fd)  # writer died: reads see EOF immediately

        class GoneProcess:
            pid = 777

            def poll(self):
                return -9

        handle = WorkerHandle.__new__(WorkerHandle)
        handle.shard_index = 0
        handle.max_frame_bytes = MAX_FRAME_BYTES
        handle._lock = threading.Lock()
        handle.process = GoneProcess()
        handle._fd = read_fd
        try:
            with pytest.raises(WorkerCrashedError) as info:
                handle.recv(timeout=5.0)
            assert info.value.reason == "exited"
        finally:
            os.close(read_fd)

    def test_admission_rejection_carries_retry_after(self):
        """The backpressure contract: a rejection tells the client when
        to come back, and the default is positive."""
        exc = AdmissionRejectedError("queue full")
        assert exc.retry_after_s > 0
        exc = AdmissionRejectedError("queue full", retry_after_s=1.5)
        assert exc.retry_after_s == 1.5
        with pytest.raises(ServingError):
            raise exc

    def test_fault_errors_importable_from_resilience_surface(self):
        """The resilience subsystem raises exactly these types."""
        from repro.resilience import ResilienceManager, ResiliencePolicy

        manager = ResilienceManager(ResiliencePolicy())
        assert manager.policy.enabled
        assert FaultError.__module__ == "repro.errors"
        assert RecoveryError.__module__ == "repro.errors"

    def test_checkpoint_error_is_a_journal_error(self):
        """The campaign checkpoint is one client of the shared record
        log: an ``except JournalError`` handler covers both the serving
        journal and the checkpoint journal failing."""
        assert issubclass(CheckpointError, JournalError)
        with pytest.raises(JournalError):
            raise CheckpointError("disk gone")
        # But not the other way round: a serving-journal failure must
        # not masquerade as a checkpoint failure.
        assert not issubclass(JournalError, CheckpointError)

    def test_duplicate_request_error_carries_the_conflict(self):
        """A 409 needs both sides of the conflict: the key the client
        reused and the id of the request that owns it."""
        exc = DuplicateRequestError("conflict")
        assert (exc.idempotency_key, exc.request_id) == ("", "")
        exc = DuplicateRequestError(
            "conflict", idempotency_key="k-1", request_id="t-00000007"
        )
        assert exc.idempotency_key == "k-1"
        assert exc.request_id == "t-00000007"
        with pytest.raises(ServingError):
            raise exc

    def test_observability_errors_share_the_observability_base(self):
        """Tracing, SLO and telemetry failures are observability
        failures: one ``except ObservabilityError`` covers the whole
        telemetry surface."""
        from repro.errors import ObservabilityError

        for exc in (TracingError, SLOError, TelemetryError):
            assert issubclass(exc, ObservabilityError)
            with pytest.raises(ObservabilityError):
                raise exc("boom")

    def test_telemetry_error_raised_on_pipeline_misuse(self):
        """The timeseries layer raises TelemetryError (not a bare
        ValueError) on malformed selectors, expressions and rules."""
        from repro.observability.timeseries import (
            AlertRule,
            RingSeries,
            TelemetryPipeline,
            parse_expr,
            parse_selector,
        )

        with pytest.raises(TelemetryError):
            parse_selector("not a selector {")
        with pytest.raises(TelemetryError):
            parse_expr("frobnicate(some_series)")
        with pytest.raises(TelemetryError):
            parse_expr("rate(some_series)")  # rate needs a window
        with pytest.raises(TelemetryError):
            RingSeries(kind="summary")
        with pytest.raises(TelemetryError):
            RingSeries(capacity=7)  # pairwise decimation needs even
        with pytest.raises(TelemetryError):
            AlertRule("r", "value(x)", threshold=1.0, for_s=-1.0)
        with pytest.raises(TelemetryError):
            AlertRule("r", "value(x)", threshold=1.0, severity="meh")
        with pytest.raises(TelemetryError):
            TelemetryPipeline(interval_s=0.0)
        pipeline = TelemetryPipeline(sample_process=False)
        pipeline.add_rule(AlertRule("dup", "value(x)", threshold=1.0))
        with pytest.raises(TelemetryError):
            pipeline.add_rule(AlertRule("dup", "value(x)", threshold=2.0))
