"""Spans around the public entry points of each layer, from outside `src/`.

:class:`SpanRecorder` replaces a function or method with a wrapper that
records one span per call: name, start, end, parent span and request id.
Spans live in memory; :meth:`SpanRecorder.dump` writes them out at the
end of a run.  A span's self time is its duration minus the time its
child spans cover (children on one thread nest, so their durations add).

:func:`cold_work` is the always-on part: it counts the locality
simulations and APIM tile executions a pool has run, which a warm
serving window must never add to.
"""

from __future__ import annotations

import json
import threading
import time

from common import percentile

# A span is a list: [name, start, end, parent span, request id, child time].
_NAME, _START, _END, _PARENT, _RID, _CHILD = range(6)


def _replace(owner, attr, make):
    """Set ``owner.attr`` (or ``owner[attr]`` for a list) to
    ``make(original)``; returns the original."""
    if isinstance(owner, list):
        original = owner[attr]
        owner[attr] = make(original)
        return original
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
    setattr(owner, attr, make(original))
    return original


def _restore(owner, attr, original) -> None:
    if isinstance(owner, list):
        owner[attr] = original
    else:
        setattr(owner, attr, original)


def cold_work(pool) -> tuple[int, int]:
    """(locality simulations, tile executions) the pool's shards have run.

    Each shard's GPU model memoises one simulation per profile and its
    harness one tile execution per (workload, spec), never evicting, so
    the memo sizes are the counts.
    """
    harnesses = [shard.harness for shard in pool.shards]
    return (sum(len(harness.gpu._measured) for harness in harnesses),
            sum(len(harness._tile_cache) for harness in harnesses))


class SpanRecorder:
    """In-memory spans around wrapped callables.

    :func:`trace_layers` installs the wrappers and :meth:`uninstall`
    removes them, so a run can alternate traced and untraced slices.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.trace_appends = 0
        #: Terminal results seen at publish: id -> (queue wait s, service s,
        #: batch size, attempts).
        self.published: dict[str, tuple] = {}
        #: Trace id -> request id, learned when a request is queued; lets
        #: worker-thread spans (which carry the trace) name their request.
        self.request_ids: dict[str, str] = {}
        self._local = threading.local()
        self._undo: list[tuple] = []

    def patch(self, owner, attr, make) -> None:
        self._undo.append((owner, attr, _replace(owner, attr, make)))

    def uninstall(self) -> None:
        while self._undo:
            _restore(*self._undo.pop())

    def call(self, name: str, fn, args, kwargs, rid=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span = [name, time.perf_counter(), 0.0, parent,
                parent[_RID] if parent is not None else None, 0.0]
        self.spans.append(span)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            span[_END] = time.perf_counter()
            if parent is not None:
                parent[_CHILD] += span[_END] - span[_START]
        if rid is not None:
            span[_RID] = rid(args, kwargs, result)
        return result

    def wrap(self, owner, attr: str, name: str, rid=None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``rid(args, kwargs, result)`` extracts the request id; without it
        the span takes its nearest ancestor's.
        """
        def make(original):
            def traced(*args, **kwargs):
                return self.call(name, original, args, kwargs, rid)
            return traced

        self.patch(owner, attr, make)

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (parent as its line index)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                parent = span[_PARENT]
                request_id, ancestor = span[_RID], parent
                while request_id is None and ancestor is not None:
                    request_id, ancestor = ancestor[_RID], ancestor[_PARENT]
                handle.write(json.dumps({
                    "name": span[_NAME],
                    "start": span[_START],
                    "end": span[_END],
                    "parent": None if parent is None else index[id(parent)],
                    "request_id": request_id,
                }) + "\n")


def trace_layers(recorder: SpanRecorder, server=None) -> None:
    """Wrap every layer's public entry points the per-layer table names.

    ``server`` (a `JsonHttpServer` from `build_server`) additionally gets
    its POST handlers (`/submit`, `/search`) wrapped.
    """
    from repro.baselines import gpu
    from repro.baselines.gpu import GPUModel
    from repro.observability.tracing import TraceStore, current_trace
    from repro.runtime import campaign
    from repro.runtime.comparison import ComparisonHarness
    from repro.runtime.executor import APIMExecutor
    from repro.runtime.supervisor import Supervisor
    from repro.search.index import SearchIndex
    from repro.serving import pool as pool_module
    from repro.serving.journal import RequestJournal
    from repro.serving.pool import CrossbarPool
    from repro.serving.scheduler import BatchingScheduler, ResultStore

    def returned_id(args, kwargs, result):
        return result[0]

    def request_arg(args, kwargs, result):
        return args[1].id

    def queued(args, kwargs, result):
        request = args[1]
        if request.trace is not None:
            recorder.request_ids[request.trace.trace_id] = request.id
        return request.id

    def ambient_request(args, kwargs, result):
        # Shard workers run each request under its trace (`use_trace`).
        trace = current_trace()
        return None if trace is None else \
            recorder.request_ids.get(trace.trace_id)

    def published(args, kwargs, result):
        served = args[1]
        recorder.published[served.id] = (
            served.queue_wait_s, served.service_s, served.batch_size,
            served.attempts,
        )
        return served.id

    def replied_id(args, kwargs, result):
        payload = result[1]
        return payload.get("id") if isinstance(payload, dict) else None

    recorder.wrap(CrossbarPool, "admit", "serving.pool.admit", returned_id)
    recorder.wrap(CrossbarPool, "admit_search", "serving.pool.admit",
                  returned_id)
    recorder.wrap(BatchingScheduler, "submit", "serving.scheduler.submit",
                  queued)
    recorder.wrap(ResultStore, "complete", "serving.scheduler.publish",
                  published)
    recorder.wrap(RequestJournal, "admitted", "serving.journal.append",
                  request_arg)
    recorder.wrap(RequestJournal, "dispatched", "serving.journal.append",
                  lambda args, kwargs, result: args[1])
    recorder.wrap(RequestJournal, "completed", "serving.journal.append",
                  request_arg)
    # The pool and the campaign each call their own imported name.
    recorder.wrap(pool_module, "run_point", "runtime.campaign.run_point",
                  ambient_request)
    recorder.wrap(campaign, "run_point", "runtime.campaign.run_point")
    recorder.wrap(Supervisor, "supervise", "runtime.supervisor.supervise")
    recorder.wrap(ComparisonHarness, "compare", "runtime.comparison.compare")
    recorder.wrap(APIMExecutor, "run", "runtime.executor.run")
    recorder.wrap(GPUModel, "estimate", "baselines.gpu.estimate")
    recorder.wrap(GPUModel, "measure_locality",
                  "baselines.gpu.measure_locality")
    recorder.wrap(gpu, "CacheHierarchy", "baselines.cache.hierarchy")
    recorder.wrap(TraceStore, "new_trace", "observability.tracing.new_trace")
    recorder.wrap(SearchIndex, "top_k", "search.index.top_k", ambient_request)

    def count_appends(original):
        def append(*args, **kwargs):
            recorder.trace_appends += 1
            return original(*args, **kwargs)
        return append

    recorder.patch(TraceStore, "append", count_appends)

    def traced_route(route):
        method, pattern, handler = route

        # JsonHttpServer calls handlers positionally as (match, body).
        def handle(match, body):
            return recorder.call("serving.frontend.handler", handler,
                                 (match, body), {}, replied_id)
        return method, pattern, handle

    if server is not None:
        for index, route in enumerate(server.routes):
            if route[0] == "POST":
                recorder.patch(server.routes, index, traced_route)


def _us(seconds_list, fraction):
    if not seconds_list:
        return 0.0
    return percentile(seconds_list, fraction) * 1e6


def layer_metrics(recorder: SpanRecorder, journal_bytes: int = 0):
    """Per-layer metrics from every finished span the recorder holds.

    ``journal_bytes`` is the journal growth while traced.  Returns
    ``(metrics, handler_s)``: the span-derived metrics and each request's
    `/submit`/`/search` handler duration, from which the load generator
    derives transport time.
    """
    by_name: dict[str, list] = {}
    for span in recorder.spans:
        if span[_END]:
            by_name.setdefault(span[_NAME], []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def self_times(name):
        return [s[_END] - s[_START] - s[_CHILD] for s in spans(name)]

    def durations(name):
        return [s[_END] - s[_START] for s in spans(name)]

    admits = spans("serving.pool.admit")
    requests = len(admits)
    per_request = (lambda n: n / requests) if requests else (lambda n: 0.0)
    handler = spans("serving.frontend.handler")

    # Results published for requests admitted in the window.
    admitted_ids = {s[_RID] for s in admits}
    results = [recorder.published[rid] for rid in admitted_ids
               if rid in recorder.published]
    queue_waits = [r[0] for r in results]
    services = [r[1] for r in results]

    # Handoff: publish time not covered by admission up to the queue,
    # queue wait or service.
    queued_at = {s[_RID]: s[_END] for s in spans("serving.scheduler.submit")}
    handoffs = []
    for span in spans("serving.scheduler.publish"):
        rid = span[_RID]
        if rid in queued_at and rid in recorder.published:
            wait, service = recorder.published[rid][:2]
            handoffs.append(span[_START] - queued_at[rid] - wait - service)

    compares = spans("runtime.comparison.compare")
    misses = {id(s[_PARENT]) for s in spans("runtime.executor.run")}
    hits = sum(1 for s in compares if id(s) not in misses)
    sims = spans("baselines.cache.hierarchy")
    sim_parents = {id(s[_PARENT]) for s in sims}
    locality_runs = [s for s in spans("baselines.gpu.measure_locality")
                     if id(s) in sim_parents]
    tile_runs = spans("runtime.executor.run")

    metrics = {
        "serving.frontend.requests": len(handler),
        "serving.frontend.handler_self_us_p50":
            _us(self_times("serving.frontend.handler"), 0.5),
        "serving.pool.admit_calls": requests,
        "serving.pool.admit_self_us_p50":
            _us(self_times("serving.pool.admit"), 0.5),
        "serving.pool.admit_self_us_p99":
            _us(self_times("serving.pool.admit"), 0.99),
        "serving.scheduler.queue_wait_us_p50": _us(queue_waits, 0.5),
        "serving.scheduler.queue_wait_us_p99": _us(queue_waits, 0.99),
        "serving.scheduler.batch_size_mean":
            (sum(r[2] for r in results) / len(results)) if results else 0.0,
        "serving.journal.appends_per_request":
            per_request(len(spans("serving.journal.append"))),
        "serving.journal.append_us_p50":
            _us(durations("serving.journal.append"), 0.5),
        "serving.journal.bytes_per_request": per_request(journal_bytes),
        "serving.runtime.service_us_p50": _us(services, 0.5),
        "serving.runtime.handoff_us_p50": _us(handoffs, 0.5),
        "runtime.campaign.run_point_self_us_p50":
            _us(self_times("runtime.campaign.run_point"), 0.5),
        "runtime.supervisor.supervise_self_us_p50":
            _us(self_times("runtime.supervisor.supervise"), 0.5),
        "runtime.supervisor.attempts_per_request":
            (sum(r[3] for r in results) / len(results)) if results else 0.0,
        "runtime.comparison.compare_calls": len(compares),
        "runtime.comparison.compare_self_us_p50":
            _us(self_times("runtime.comparison.compare"), 0.5),
        "runtime.comparison.tile_hit_ratio":
            hits / len(compares) if compares else 0.0,
        "runtime.executor.tile_runs": len(tile_runs),
        "runtime.executor.tile_s": sum(s[_END] - s[_START] for s in tile_runs),
        "baselines.gpu.locality_sims": len(locality_runs),
        "baselines.gpu.locality_s":
            sum(s[_END] - s[_START] for s in locality_runs),
        "baselines.gpu.estimate_self_us_p50":
            _us(self_times("baselines.gpu.estimate"), 0.5),
        "observability.tracing.new_trace_us_p50":
            _us(durations("observability.tracing.new_trace"), 0.5),
        "observability.tracing.new_trace_us_p99":
            _us(durations("observability.tracing.new_trace"), 0.99),
        "observability.tracing.events_per_request":
            per_request(recorder.trace_appends),
        "search.index.top_k_calls": len(spans("search.index.top_k")),
        "search.index.top_k_us_p50":
            _us(durations("search.index.top_k"), 0.5),
    }
    handler_s = {s[_RID]: s[_END] - s[_START] for s in handler}
    return metrics, handler_s
