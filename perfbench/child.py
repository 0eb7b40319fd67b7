"""One fresh interpreter per role; driven by `run.py` over stdin/stdout.

Usage: ``python3 perfbench/child.py ROLE CONFIG_JSON`` with ``src`` on
``PYTHONPATH``.  Roles:

- ``warm-serve``: boot an inline 2-shard pool, warm it, then run the
  closed-loop caller for each ``measure SECONDS`` line on stdin (until
  ``finish``), checking every served point.
- ``http-server``: boot the durable HTTP server (thread runtime,
  journal), then obey ``begin``/``trace``/``untrace``/``end``/``stop``
  lines on stdin while `run.py` drives the load over HTTP.
- ``recover``: restart a pool on a run's journal, time it, and check
  that every acknowledged result is restored verbatim with none replayed.

Every role prints ``@@ready`` once its set-up is done (the orchestrator
times set-up from process spawn to that line) and its measurements as
one ``@@<tag> {json}`` line.  With ``"setup_only": true`` a serving role
exits right after ``@@ready``.  With ``"trace": true`` a serving role
also traces its shard warm-up, where all cold pricing happens.
"""

from __future__ import annotations

import json
import operator
import os
import sys
import tempfile
import time
from array import array

from common import (
    POINT_FIELDS,
    PROGRAM_SEED,
    RELAX_LEVELS,
    SERVE_SIZES,
    SERVE_TILE,
    SERVE_WORKLOADS,
    closed_loop_sequence,
    emit,
    key_name,
    load_reference,
    peak_rss_mb,
    percentile,
    point_tuple,
    serve_keys,
)
from spans import SpanRecorder, cold_work, layer_metrics, trace_layers

point_of = operator.attrgetter(*POINT_FIELDS)


#: Window metrics of the cold-pricing layers, renamed for the warm-up.
SETUP_NAMES = {
    "baselines.gpu.locality_sims": "baselines.gpu.setup_locality_sims",
    "baselines.gpu.locality_s": "baselines.gpu.setup_locality_s",
    "runtime.executor.tile_runs": "runtime.executor.setup_tile_runs",
    "runtime.executor.tile_s": "runtime.executor.setup_tile_s",
}


def warm_shards(pool, trace: bool) -> dict:
    """Price every mix key on every shard's own harness.

    Submitting warm-up requests does not do this: the pull model decides
    which shard takes a request, so a shard can stay cold for a key.
    With ``trace``, returns the cold-pricing layers' metrics for it.
    """
    from repro.core.approximation import EXACT, ApproxSpec

    recorder = SpanRecorder()
    if trace:
        trace_layers(recorder)
    try:
        for shard in pool.shards:
            for name in SERVE_WORKLOADS:
                workload = shard.workload(name)
                for relax in RELAX_LEVELS:
                    spec = ApproxSpec.last_stage(relax) if relax else EXACT
                    shard.harness.compare(workload, SERVE_SIZES[0], spec)
    finally:
        recorder.uninstall()
    if not trace:
        return {}
    metrics, _ = layer_metrics(recorder)
    return {setup: metrics[name] for name, setup in SETUP_NAMES.items()}


def fill_stores(pool, count: int, wave: int) -> None:
    """Complete ``count`` mix requests, ``wave`` in flight at a time, so
    the trace store (and, for a large count, the result store) is full."""
    keys = serve_keys()
    done = 0
    while done < count:
        ids = []
        for index in range(done, min(count, done + wave)):
            workload, relax, size = keys[index % len(keys)]
            ids.append(pool.submit(workload, relax_bits=relax,
                                   dataset_bytes=size, tenant="warm",
                                   block=True))
        for request_id in ids:
            result = pool.result(request_id, timeout=60.0)
            if result.status != "ok":
                raise RuntimeError(f"warm-up request ended {result.status}")
        done += len(ids)


# -- warm-serve ---------------------------------------------------------------

#: In a traced run, untraced and traced slices of this length alternate,
#: so both see the same host conditions and their difference is the
#: tracing overhead.
SLICE_S = 0.5


class Tally:
    """Closed-loop outcomes of one mode (traced or untraced)."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.failed = self.refused = self.mismatched = 0
        self.elapsed = 0.0

    def summary(self) -> dict:
        return {
            "attempted": len(self.latencies) + self.refused,
            "completed": len(self.latencies),
            "failed": self.failed,
            "refused": self.refused,
            "mismatched": self.mismatched,
            "elapsed_s": self.elapsed,
            "p10_s": percentile(self.latencies, 0.10),
            "p50_s": percentile(self.latencies, 0.50),
            "p95_s": percentile(self.latencies, 0.95),
            "p99_s": percentile(self.latencies, 0.99),
        }


def _closed_loop(client, keys, sequence, reference, tally, seconds, cursor):
    """Call back to back for ``seconds``; returns the sequence cursor."""
    start = now = time.perf_counter()
    end = start + seconds
    while now < end:
        index = sequence[cursor % len(sequence)]
        cursor += 1
        workload, relax, size = keys[index]
        try:
            result = client.call(workload, relax_bits=relax,
                                 dataset_bytes=size)
        except Exception:  # a refused or timed-out call counts as failed
            tally.refused += 1
            tally.failed += 1
            now = time.perf_counter()
            continue
        done = time.perf_counter()
        tally.latencies.append(done - now)
        if result.status != "ok":
            tally.failed += 1
        elif point_of(result.point) != reference[index]:
            tally.mismatched += 1
        now = done
    tally.elapsed += now - start
    return cursor


def warm_serve(config: dict) -> None:
    from repro.serving import Client, CrossbarPool, ServingConfig

    pool = CrossbarPool(
        shards=2,
        serving_config=ServingConfig(max_wait_s=0.0),
        tile_elements=SERVE_TILE,
        seed=PROGRAM_SEED,
        runtime="inline",
    )
    pool.start()
    setup_layers = warm_shards(pool, config["trace"])
    fill_stores(pool, max(pool.results.capacity, pool.traces.capacity), 1)
    emit("ready")
    if config["setup_only"]:
        pool.stop()
        return
    keys = serve_keys()
    served = load_reference()["serve"]
    reference = [point_tuple(served[key_name(*key)]) for key in keys]
    sequence = closed_loop_sequence(config["seed"]).tolist()
    client = Client(pool, tenant="bench")
    recorder = SpanRecorder() if config["trace"] else None
    tallies = {False: Tally(), True: Tally()}
    before = cold_work(pool)
    cursor = 0
    tracing = False
    # `measure SECONDS` runs one part of the window; `finish` reports.
    for line in sys.stdin:
        command, _, seconds = line.strip().partition(" ")
        if command == "finish":
            break
        end = time.perf_counter() + float(seconds)
        while (left := end - time.perf_counter()) > 0:
            if tracing:
                trace_layers(recorder)
            cursor = _closed_loop(
                client, keys, sequence, reference, tallies[tracing],
                min(left, SLICE_S) if recorder else left, cursor)
            if tracing:
                recorder.uninstall()
            tracing = recorder is not None and not tracing
        emit("measured")
    out = {"untraced": tallies[False].summary()}
    if recorder is not None:
        out["traced"] = tallies[True].summary()
        out["layers"], _ = layer_metrics(recorder)
        out["layers"].update(setup_layers)
        recorder.dump(config["spans_path"])
    after = cold_work(pool)
    out["window_locality_sims"] = after[0] - before[0]
    out["window_tile_runs"] = after[1] - before[1]
    pool.stop()
    out["peak_rss_mb"] = peak_rss_mb()
    emit("result", out)


# -- durable-http -------------------------------------------------------------

#: Journaled warm-up requests before the durable-http window: twice the
#: 256-trace store.  Filling the 8192-result store too would take longer
#: than the window, which at 100 req/s never reaches its capacity.
HTTP_FILL = 512


def http_server(config: dict) -> None:
    from repro.serving import CrossbarPool, ServingConfig
    from repro.serving.frontend import build_server

    journal_dir = tempfile.mkdtemp(prefix="journal-", dir=os.getcwd())
    journal_path = os.path.join(journal_dir, "requests.jsonl")
    pool = CrossbarPool(
        shards=2,
        serving_config=ServingConfig(),
        tile_elements=SERVE_TILE,
        seed=PROGRAM_SEED,
        runtime="thread",
        journal=journal_path,
    )
    pool.start()
    setup_layers = warm_shards(pool, config["trace"])
    pool.search_index()
    fill_stores(pool, HTTP_FILL, 64)
    server = build_server(pool)
    server.start()
    emit("ready", {"port": server.port, "journal_dir": journal_dir})
    if config["setup_only"]:
        server.close()
        pool.stop()
        return
    recorder = SpanRecorder()
    before = None
    journal_bytes = traced_from = 0
    for line in sys.stdin:
        command = line.strip()
        if command == "begin":
            before = cold_work(pool)
        elif command == "trace":
            trace_layers(recorder, server)
            traced_from = os.path.getsize(journal_path)
        elif command == "untrace":
            recorder.uninstall()
            journal_bytes += os.path.getsize(journal_path) - traced_from
        elif command == "end":
            after = cold_work(pool)
            out = {
                "window_locality_sims": after[0] - before[0],
                "window_tile_runs": after[1] - before[1],
            }
            if config["trace"]:
                out["layers"], out["handler_s"] = layer_metrics(
                    recorder, journal_bytes)
                out["layers"].update(setup_layers)
                recorder.dump(config["spans_path"])
            emit("window", out)
        elif command == "stop":
            server.close()
            pool.stop(drain=True)
            emit("stopped", {"peak_rss_mb": peak_rss_mb()})
            return


def recover(config: dict) -> None:
    from repro.serving import CrossbarPool, ServingConfig
    from repro.serving.journal import RequestJournal

    with open(config["acked_path"], encoding="utf-8") as handle:
        acked = json.load(handle)
    emit("ready")
    start = time.perf_counter()
    journal = RequestJournal(
        os.path.join(config["journal_dir"], "requests.jsonl"))
    loaded = time.perf_counter()
    pool = CrossbarPool(
        shards=2,
        serving_config=ServingConfig(),
        tile_elements=SERVE_TILE,
        seed=PROGRAM_SEED,
        runtime="thread",
        journal=journal,
    )
    pool.start()
    restarted = time.perf_counter()
    missing = changed = 0
    for request_id, fetched in acked.items():
        restored = pool.results.get(request_id)
        if restored is None:
            missing += 1
        elif json.loads(json.dumps(restored.to_dict())) != fetched:
            changed += 1
    replayed = pool.recovery["replayed"]
    pool.stop()
    emit("result", {
        "recover_s": restarted - start,
        "load_s": loaded - start,
        "missing": missing,
        "changed": changed,
        "replayed": replayed,
    })


ROLES = {
    "warm-serve": warm_serve,
    "http-server": http_server,
    "recover": recover,
}

if __name__ == "__main__":
    ROLES[sys.argv[1]](json.loads(sys.argv[2]))
