"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``fig4`` / ``fig5`` / ``fig6`` / ``table1`` / ``adaptive`` — regenerate
  one paper artifact and print it paper-style.
- ``report [-o FILE]`` — run everything and emit the markdown report.
- ``run WORKLOAD [-m RELAX]`` — execute one workload at a given
  approximation level and print quality/cost.
- ``sweep PARAM V1 V2 ...`` — sensitivity sweep of a model constant.
- ``faults`` — stuck-cell rate x spare-budget resilience campaign.
- ``campaign`` — (workload x relax-level) grid, optionally supervised
  (``--retries/--deadline``) and checkpointed (``--checkpoint/--resume``).
- ``chaos`` — fault-injected supervised campaign: completion yield,
  retry counts and degradation mix versus injected fault rate.
- ``metrics`` — run a supervised workload grid under full instrumentation
  and dump (or serve) the Prometheus scrape.
- ``serve`` — boot the sharded serving frontend: a :class:`CrossbarPool`
  behind the JSON-over-HTTP API (``/submit``, ``/result/<id>``,
  ``/trace/<id>``, ``/healthz``, ``/stats``, ``/fleet``, ``/metrics``).
  With ``--fleet-config FILE`` the pool geometry, shard count, batch
  ceiling and autoscaler policy come from a DSE-selected fleet config;
  with ``--telemetry`` the streaming telemetry pipeline samples the
  registry and tail quantiles behind ``GET /query`` / ``GET /alerts``.
- ``top`` — the fleet dashboard: shards, per-tenant request rates, tail
  quantiles and firing alerts, either polling a live server (``--url``)
  or from a self-contained in-process demo (``--once`` for one frame).
- ``fleet`` — the fleet control plane: run the offline design-space
  exploration (sweep block geometry x interconnect x shard count x batch
  ceiling, fold into a cost-latency Pareto frontier, write the
  per-tenant ``--fleet-config`` selection).
- ``slo`` — drive a request burst through a pool and report per-layer
  tail latency (p50/p95/p99/p999) plus multi-window burn-rate verdicts
  against an SLO policy.
- ``trace`` — pretty-print one request's end-to-end trace timeline from
  a JSONL spill file, by trace id (a served request's is its id).
- ``search`` — in-memory binarized similarity search: the MAGIC Hamming
  kernel witness and a recall-vs-relax ladder over a seeded codebook.
- ``workloads`` — list available workloads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from repro.analysis.experiments import (
    FIGURE4_SAMPLES,
    PAPER_TILE,
    run_adaptive,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table1,
)
from repro.analysis.report import generate_report
from repro.analysis.sensitivity import SWEEPABLE, sweep_parameter
from repro.analysis.tables import (
    render_adaptive,
    render_figure4,
    render_figure5,
    render_figure6,
    render_table1,
)
from repro.core.approximation import ApproxSpec
from repro.observability.instruments import (
    PROCESS_CPU_SYSTEM,
    PROCESS_CPU_USER,
    PROCESS_GAUGES,
    PROCESS_OPEN_FDS,
    PROCESS_RSS,
    PROCESS_THREADS,
)
from repro.runtime.executor import APIMExecutor
from repro.units import format_si
from repro.workloads import all_workloads, extension_workloads, workload_by_name

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    from repro.serving.scheduler import ServingConfig

    parser = argparse.ArgumentParser(
        prog="repro",
        description="APIM (DAC 2017) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig4", help="error vs EDP of both approximations")
    p.add_argument("--samples", type=int, default=FIGURE4_SAMPLES)

    p = sub.add_parser("fig5", help="APIM vs GPU over dataset sizes")
    p.add_argument("--tile", type=int, default=PAPER_TILE)

    sub.add_parser("fig6", help="multi-operand adder comparison")

    p = sub.add_parser("table1", help="QoL/EDP grid over six applications")
    p.add_argument("--tile", type=int, default=PAPER_TILE)

    p = sub.add_parser("adaptive", help="adaptive tuner per application")
    p.add_argument("--tile", type=int, default=PAPER_TILE)

    p = sub.add_parser("report", help="full markdown reproduction report")
    p.add_argument("-o", "--output", default=None, help="write to a file")
    p.add_argument("--samples", type=int, default=FIGURE4_SAMPLES)
    p.add_argument("--tile", type=int, default=PAPER_TILE)

    p = sub.add_parser("run", help="run one workload at a relax level")
    p.add_argument("workload")
    p.add_argument("-m", "--relax", type=int, default=0)
    p.add_argument("--elements", type=int, default=None)
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser("sweep", help="sensitivity sweep of a constant")
    p.add_argument("parameter", choices=sorted(SWEEPABLE))
    p.add_argument("values", type=float, nargs="+")
    p.add_argument("--workload", default="Sobel")

    p = sub.add_parser("campaign", help="grid of workloads x relax levels")
    p.add_argument("--workloads", nargs="+", default=["Sobel", "Robert"])
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16, 32])
    p.add_argument("--tile", type=int, default=1 << 11)
    p.add_argument("-o", "--output", default=None, help="write CSV to a file")
    p.add_argument(
        "--checkpoint", default=None,
        help="JSONL journal path for kill-safe progress",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="skip points the checkpoint journal proves complete",
    )
    p.add_argument(
        "--retries", type=int, default=None,
        help="supervise each point with up to N attempts",
    )
    p.add_argument(
        "--deadline", type=float, default=None,
        help="per-point wall-clock deadline in seconds (implies supervision)",
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "chaos",
        help="fault-injected supervised campaign: yield vs chaos rate",
    )
    p.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.1, 0.3],
        help="transient-fault injection rates to sweep",
    )
    p.add_argument("--latency-rate", type=float, default=0.05)
    p.add_argument("--corrupt-rate", type=float, default=0.02)
    p.add_argument("--workloads", nargs="+", default=["Sobel", "Robert"])
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16, 32])
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument("--retries", type=int, default=4)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--trace", default=None,
        help="stream the supervision timeline to a Chrome trace file",
    )

    p = sub.add_parser(
        "metrics",
        help="run an instrumented workload grid and dump the "
        "Prometheus scrape",
    )
    p.add_argument("--workload", default="Sobel")
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16])
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument("--retries", type=int, default=3)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "-o", "--output", default=None,
        help="write the exposition to a file instead of stdout",
    )
    p.add_argument(
        "--jsonl", default=None,
        help="also append a JSONL metrics snapshot to this file",
    )
    p.add_argument(
        "--serve", type=int, default=None, metavar="PORT",
        help="serve the scrape at http://localhost:PORT/metrics "
        "(Ctrl-C to stop)",
    )
    p.add_argument(
        "--trace", default=None,
        help="stream the run's events to a Chrome trace file",
    )

    p = sub.add_parser(
        "serve",
        help="serve workload pricing over HTTP from a sharded crossbar pool",
    )
    p.add_argument("--shards", type=int, default=2)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8017,
        help="listen port (0 picks an ephemeral port)",
    )
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument(
        "--batch-size", type=int, default=ServingConfig.max_batch_size,
    )
    p.add_argument(
        "--max-wait", type=float, default=ServingConfig.max_wait_s,
        help="seconds a batch head waits for same-workload stragglers "
        "(default %(default)s: join only requests already queued)",
    )
    p.add_argument(
        "--queue-capacity", type=int, default=ServingConfig.queue_capacity,
    )
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--runtime", choices=("inline", "thread", "subprocess"),
        default="thread",
        help="shard execution mechanics: in-process threads (default), "
        "synchronous inline, or one supervised worker process per shard",
    )
    p.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to flush in-flight requests after SIGTERM/SIGINT "
        "before forcing shutdown",
    )
    p.add_argument(
        "--journal", default=None, metavar="DIR",
        help="write-ahead request journal directory: acknowledged "
        "requests survive a server crash and replay on restart",
    )
    p.add_argument(
        "--fleet-config", default=None, metavar="FILE",
        help="boot from a DSE-selected fleet config (repro fleet): pool "
        "geometry, shard count, batch ceiling and autoscaler policy",
    )
    p.add_argument(
        "--telemetry", action="store_true",
        help="attach the streaming telemetry pipeline: retained series "
        "history behind GET /query and alert rules behind GET /alerts",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=1.0, metavar="S",
        help="telemetry sampling cadence in seconds (default 1.0)",
    )
    p.add_argument(
        "--telemetry-jsonl", default=None, metavar="FILE",
        help="also export one JSONL telemetry record per tick to FILE "
        "(rotated at 16 MiB, 3 files kept)",
    )

    p = sub.add_parser(
        "top",
        help="fleet dashboard: shards, tenant rates, tail quantiles and "
        "firing alerts, from a live server or an in-process demo",
    )
    p.add_argument(
        "--url", default=None, metavar="URL",
        help="poll a live `repro serve --telemetry` endpoint "
        "(default: boot an in-process demo pool with injected slow "
        "traffic)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (the CI smoke)",
    )
    p.add_argument(
        "--frames", type=int, default=None,
        help="stop after N refreshes (default: until Ctrl-C)",
    )
    p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "fleet",
        help="offline design-space exploration -> Pareto frontier -> "
        "fleet config",
    )
    p.add_argument(
        "-o", "--output", default="fleet.json",
        help="fleet-config file to write (repro serve --fleet-config)",
    )
    p.add_argument(
        "--block-rows", type=int, nargs="+", default=[256, 1024],
        help="crossbar block heights to sweep",
    )
    p.add_argument(
        "--interconnect-scales", type=float, nargs="+", default=[1.0, 4.0],
        help="interconnect energy multipliers to sweep",
    )
    p.add_argument(
        "--shard-counts", type=int, nargs="+", default=[1, 2, 4],
        help="provisioned shard counts to sweep",
    )
    p.add_argument(
        "--batch-sizes", type=int, nargs="+", default=[1, 8],
        help="batch ceilings to sweep",
    )
    p.add_argument("--workloads", nargs="+", default=["Sobel"])
    p.add_argument(
        "--offered-rps", type=float, default=200.0,
        help="offered load the serving model sizes for",
    )
    p.add_argument("--requests-per-point", type=int, default=3)
    p.add_argument("--tile", type=int, default=1 << 8)
    p.add_argument("--seed", type=int, default=2017)
    p.add_argument(
        "--tenant", action="append", default=None, metavar="NAME:PRIO:SLO_S",
        help="tenant spec (repeatable), e.g. --tenant alice:0:0.5",
    )

    p = sub.add_parser(
        "slo",
        help="serve a request burst and report tail latency + SLO burn "
        "rates",
    )
    p.add_argument("--workloads", nargs="+", default=["Sobel", "Robert"])
    p.add_argument("--levels", type=int, nargs="+", default=[0, 16])
    p.add_argument("--repeat", type=int, default=3,
                   help="passes over the (workload x level) grid")
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--tile", type=int, default=1 << 10)
    p.add_argument(
        "--target", type=float, default=2.0,
        help="end-to-end latency objective in seconds",
    )
    p.add_argument(
        "--budget", type=float, default=0.01,
        help="error budget (allowed bad-request fraction)",
    )
    p.add_argument(
        "--chaos-rate", type=float, default=0.0,
        help="transient-fault injection rate while serving",
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "trace",
        help="pretty-print one request's end-to-end trace timeline",
    )
    p.add_argument(
        "trace_id", nargs="?", default=None,
        help="trace id to print (a served request's is its request id)",
    )
    p.add_argument(
        "--file", default=None,
        help="read traces from a TraceStore JSONL spill file",
    )

    p = sub.add_parser(
        "faults", help="fault-injection campaign: yield vs spare budget"
    )
    p.add_argument(
        "--rates", type=float, nargs="+", default=[0.0, 0.001, 0.005],
        help="per-cell stuck-fault rates to sweep",
    )
    p.add_argument(
        "--spare-fractions", type=float, nargs="+", default=[0.02, 0.1],
        help="spare-row budgets (fraction of rows per block)",
    )
    p.add_argument("--trials", type=int, default=5, help="dies per point")
    p.add_argument("--bits", type=int, default=8, help="operand width")
    p.add_argument(
        "--ops", type=int, default=4, help="multiplications per die"
    )
    p.add_argument("--seed", type=int, default=2017)

    p = sub.add_parser(
        "search",
        help="in-memory binarized similarity search over the APIM fabric",
    )
    p.add_argument("--entries", type=int, default=512, help="codebook size")
    p.add_argument("--dim", type=int, default=256, help="bits per codeword")
    p.add_argument("--queries", type=int, default=16)
    p.add_argument("-k", type=int, default=10, help="neighbours per query")
    p.add_argument(
        "--levels", type=int, nargs="+", default=[0, 4, 8, 16, 24, 32],
        help="relax-bits rungs for the recall ladder",
    )
    p.add_argument("--seed", type=int, default=2017)

    sub.add_parser("workloads", help="list available workloads")
    return parser


def _cmd_run(args: argparse.Namespace) -> str:
    workload = workload_by_name(args.workload)
    executor = APIMExecutor()
    result = executor.run(
        workload,
        spec=ApproxSpec.last_stage(args.relax),
        elements=args.elements,
        rng=np.random.default_rng(args.seed),
    )
    lines = [
        f"workload          : {result.workload}",
        f"elements          : {result.elements}",
        f"relax bits (m)    : {args.relax}",
        f"QoL               : {result.qol_percent:.3f} %"
        f" ({'meets' if result.qos_ok else 'MISSES'} QoS)",
        f"multiplications   : {result.mul_count}",
        f"additions         : {result.add_count}",
        f"lane-cycles       : {result.cost.cycles:.0f}",
        f"tile latency      : {format_si(result.time, 's')}",
        f"tile energy       : {format_si(result.energy, 'J')}",
        f"tile EDP          : {result.edp:.3e} J*s",
    ]
    return "\n".join(lines)


def _cmd_sweep(args: argparse.Namespace) -> str:
    result = sweep_parameter(args.parameter, args.values, args.workload)
    lines = [
        f"sensitivity of {result.workload} at 1 GiB to {result.parameter} "
        f"({SWEEPABLE[result.parameter]})",
        f"{'value':>14} {'speedup':>9} {'energy':>9} {'EDP':>10}",
    ]
    for point in result.points:
        lines.append(
            f"{point.value:>14.4g} {point.speedup:>8.2f}x "
            f"{point.energy_improvement:>8.1f}x "
            f"{point.edp_improvement:>9.1f}x"
        )
    lines.append(f"EDP spread across the sweep: {result.spread():.2f}x")
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep injected fault rates; non-zero exit on any lost point."""
    from repro.runtime.chaos import ChaosPolicy, chaos_table, run_chaos_campaign

    outcomes = []
    for rate in args.rates:
        policy = ChaosPolicy(
            transient_rate=rate,
            latency_rate=args.latency_rate,
            corrupt_rate=args.corrupt_rate,
            seed=args.seed,
        )
        outcomes.append(
            run_chaos_campaign(
                workloads=args.workloads,
                relax_levels=args.levels,
                policy=policy,
                tile_elements=args.tile,
                max_attempts=args.retries,
                trace_path=args.trace,
            )
        )
    print("chaos recovery: supervised campaign under injected faults")
    print(chaos_table(outcomes))
    expected = len(args.workloads) * len(args.levels)
    lost = sum(
        expected - len(outcome.result.points)
        + outcome.status_counts["failed"]
        for outcome in outcomes
    )
    if lost:
        print(f"LOST POINTS: {lost} — supervision failed its completion "
              "guarantee")
        return 1
    print(f"all {expected} points terminal in every sweep — zero lost")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Run one workload's grid fully instrumented; dump/serve the scrape."""
    from repro.observability import (
        JsonlSnapshotSink,
        MetricsRegistry,
        set_default_registry,
        to_prometheus,
        use_trace,
    )
    from repro.observability.instruments import set_build_info
    from repro.runtime.campaign import run_campaign
    from repro.runtime.supervisor import RetryPolicy, Supervisor
    from repro.runtime.trace import ChromeTraceWriter

    # A fresh registry per invocation: the scrape describes this run, not
    # whatever executed earlier in the process.
    registry = MetricsRegistry()
    previous = set_default_registry(registry)
    set_build_info()
    trace = ChromeTraceWriter(args.trace) if args.trace else None
    try:
        supervisor = Supervisor(
            retry=RetryPolicy(
                max_attempts=args.retries, jitter_seed=args.seed
            ),
        )
        with use_trace(trace):
            result = run_campaign(
                [args.workload], args.levels,
                tile_elements=args.tile,
                supervisor=supervisor,
                seed=args.seed,
            )
        text = to_prometheus(registry)
        if args.jsonl:
            with JsonlSnapshotSink(args.jsonl) as sink:
                sink.write(
                    registry,
                    workload=args.workload,
                    points=len(result.points),
                )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"metrics written to {args.output}")
        else:
            print(text, end="")
        if args.serve is not None:
            _serve_metrics(registry, args.serve)
    finally:
        if trace is not None:
            trace.close()
        set_default_registry(previous)
    return 0


def _serve_metrics(registry, port: int) -> None:  # pragma: no cover - manual
    """Serve the live scrape over HTTP until interrupted."""
    import re

    from repro.observability import to_prometheus
    from repro.serving.http import JsonHttpServer

    def scrape(_match, _body):
        return 200, to_prometheus(registry)

    routes = [("GET", re.compile(r"/(metrics/?)?$"), scrape)]
    # No ``with server:`` here — that already serves in the background,
    # and ``serve_forever`` refuses a started server.
    server = JsonHttpServer(routes, host="localhost", port=port)
    try:
        print(f"serving metrics at {server.url}/metrics (Ctrl-C to stop)")
        server.serve_forever(install_signal_handlers=True)
    finally:
        server.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the sharded serving frontend."""
    from repro.observability.instruments import set_build_info
    from repro.serving.frontend import build_server
    from repro.serving.pool import CrossbarPool
    from repro.serving.scheduler import ServingConfig

    # ``GET /metrics`` scrapes the default registry.
    set_build_info()

    journal_path = None
    if args.journal is not None:
        os.makedirs(args.journal, exist_ok=True)
        journal_path = os.path.join(args.journal, "requests.jsonl")
    shards = args.shards
    batch_size = args.batch_size
    apim_config = None
    fleet_document = None
    if args.fleet_config is not None:
        from repro.core.config import default_config
        from repro.fleet import load_fleet_config

        fleet_document = load_fleet_config(args.fleet_config)
        point = fleet_document["pool"]
        shards = point["shard_count"]
        batch_size = point["max_batch_size"]
        base = default_config()
        apim_config = base.with_overrides(
            block_rows=point["block_rows"],
            e_interconnect=(
                base.e_interconnect * point["interconnect_scale"]
            ),
        )
    config = ServingConfig(
        max_batch_size=batch_size,
        max_wait_s=args.max_wait,
        queue_capacity=args.queue_capacity,
    )
    pool = CrossbarPool(
        shards=shards,
        serving_config=config,
        apim_config=apim_config,
        tile_elements=args.tile,
        seed=args.seed,
        runtime=args.runtime,
        journal=journal_path,
    )
    pipeline = None
    if args.telemetry:
        from repro.observability.timeseries import TelemetryPipeline

        pipeline = TelemetryPipeline.for_pool(
            pool, interval_s=args.telemetry_interval
        )
        for rule in _default_telemetry_rules(pool, args.telemetry_interval):
            pipeline.add_rule(rule)
        if args.telemetry_jsonl:
            from repro.observability.export import JsonlSnapshotSink

            pipeline.attach_sink(
                JsonlSnapshotSink(
                    args.telemetry_jsonl, max_bytes=16 << 20, keep=3
                )
            )
        print(
            f"telemetry: sampling every {args.telemetry_interval:g}s "
            f"({len(pipeline.alert_rules)} alert rule(s); GET /query, "
            "GET /alerts)",
            flush=True,
        )
    if fleet_document is not None:
        from repro.fleet import Autoscaler, FleetPolicy

        verdict_source = None
        if pipeline is not None:
            from repro.observability.timeseries import SlopeVerdictSource

            verdict_source = SlopeVerdictSource(pipeline)
        policy_spec = fleet_document.get("autoscaler") or {}
        Autoscaler(
            pool,
            policy=FleetPolicy(**policy_spec) if policy_spec else None,
            tenant_priorities={
                name: spec["priority"]
                for name, spec in fleet_document.get("tenants", {}).items()
            },
            verdict_source=verdict_source,
        )
        point = fleet_document["pool"]
        print(
            f"fleet config: {args.fleet_config} -> block_rows="
            f"{point['block_rows']} interconnect x"
            f"{point['interconnect_scale']:g} shards={shards} "
            f"batch<={batch_size}, autoscaler attached",
            flush=True,
        )

    def graceful_drain():  # pragma: no cover - signal path
        # SIGTERM/SIGINT: close admission first (POST /submit answers 503
        # with Retry-After), flush everything already accepted, and only
        # then let the listener shut down.  The pool context exit joins
        # (or terminates) the workers afterwards.
        pool.begin_drain()
        print("drain: admission closed; flushing in-flight requests")
        if pool.wait_drained(timeout=args.drain_timeout):
            print("drain: all accepted requests terminal")
        else:
            print(f"drain: timeout after {args.drain_timeout:.0f}s; "
                  "forcing shutdown")

    with pool:
        if pipeline is not None:
            pipeline.start()
        if journal_path is not None:
            recovery = pool.recovery
            print(
                f"journal: {journal_path} (restored "
                f"{recovery['restored']} completed, replayed "
                f"{recovery['replayed']} in-flight, dropped "
                f"{recovery['truncated']} torn record(s))",
                flush=True,
            )
        # Foreground serving: do NOT enter ``with server:`` — that already
        # serves in the background, and ``serve_forever`` refuses a
        # started server.
        server = build_server(pool, host=args.host, port=args.port)
        try:
            # flush: the crash-test driver parses this line from a pipe
            # to learn the ephemeral port before any request is sent.
            print(
                f"serving {shards} shard(s) [{args.runtime} runtime] "
                f"at {server.url} (POST /submit, GET /result/<id>, "
                "/healthz, /stats, /metrics; Ctrl-C to stop)",
                flush=True,
            )
            server.serve_forever(
                install_signal_handlers=True, on_signal=graceful_drain
            )
        finally:
            server.close()
            if pipeline is not None:
                pipeline.stop()
    return 0


def _default_telemetry_rules(pool, interval_s: float):
    """The out-of-the-box serving alerts for ``--telemetry``: the
    sampled end-to-end p99 crossing the SLO latency target, and a
    sustained positive p99 slope (the same leading signal the fleet's
    :class:`SlopeVerdictSource` consumes).
    """
    from repro.observability.timeseries import AlertRule

    p99 = 'repro_latency_quantile_seconds{layer="e2e",quantile="p99"}'
    slope_window = max(10.0 * interval_s, 30.0)
    target = pool.slo.policy.latency_target_s
    return [
        AlertRule(
            "e2e_p99_above_target",
            f"value({p99})",
            threshold=target,
            for_s=2.0 * interval_s,
            severity="page",
        ),
        AlertRule(
            "e2e_p99_rising",
            f"slope({p99}, {slope_window:g})",
            threshold=0.05 * target / slope_window,
            for_s=3.0 * interval_s,
            severity="warn",
        ),
    ]


def _render_top(stats: dict, alerts: dict | None, process: dict) -> str:
    """One ``repro top`` frame as plain text."""
    shards = stats.get("shards") or []
    healthy = sum(1 for s in shards if s.get("healthy"))
    verdict = (stats.get("slo") or {}).get("verdict", "?")
    firing = (alerts or {}).get("firing", [])
    lines = [
        f"repro top — {len(shards)} shard(s), {healthy} healthy · "
        f"verdict={verdict} · "
        + (f"FIRING: {', '.join(firing)}" if firing else "alerts: none firing")
    ]
    if process:
        rss = process.get(PROCESS_RSS.name)
        lines.append(
            "process: "
            f"rss={format_si(rss, 'B') if rss is not None else '?'} "
            f"cpu={process.get(PROCESS_CPU_USER.name, 0):.1f}s/"
            f"{process.get(PROCESS_CPU_SYSTEM.name, 0):.1f}s "
            f"threads={process.get(PROCESS_THREADS.name, 0):.0f} "
            f"fds={process.get(PROCESS_OPEN_FDS.name, 0):.0f}"
        )
    lines.append(
        f"  {'shard':<8} {'healthy':>7} {'served':>8} {'failures':>8} "
        f"{'in_flight':>9} {'busy_s':>10}"
    )
    for shard in shards:
        lines.append(
            f"  {shard['index']:<8} {str(bool(shard['healthy'])):>7} "
            f"{shard['served']:>8} {shard['failures']:>8} "
            f"{shard['in_flight']:>9} {shard['busy_s']:>10.3f}"
        )
    tenants = stats.get("tenants") or {}
    if tenants:
        lines.append(f"  {'tenant':<16} {'total':>8} {'ok':>8} {'rate/s':>10}")
        for name in sorted(tenants):
            entry = tenants[name]
            rate = entry.get("rate_per_s")
            lines.append(
                f"  {name:<16} {entry['total']:>8.0f} "
                f"{entry['by_status'].get('ok', 0):>8.0f} "
                f"{'-' if rate is None else f'{rate:.2f}':>10}"
            )
    tails = stats.get("latency") or {}
    if tails:
        lines.append(
            f"  {'layer':<12} {'count':>6} {'p50':>10} {'p95':>10} "
            f"{'p99':>10} {'p999':>10}"
        )
        for layer, summary in tails.items():
            lines.append(
                f"  {layer:<12} {summary['count']:>6} "
                f"{format_si(summary['p50'], 's'):>10} "
                f"{format_si(summary['p95'], 's'):>10} "
                f"{format_si(summary['p99'], 's'):>10} "
                f"{format_si(summary['p999'], 's'):>10}"
            )
    if alerts is not None:
        lines.append(
            f"  {'alert':<24} {'state':>9} {'severity':>8} {'value':>12} "
            f"{'threshold':>12}"
        )
        for rule in alerts.get("rules", []):
            value = rule.get("value")
            shown = "-" if value is None else f"{value:.4g}"
            threshold = f">{rule['threshold']:.4g}"
            lines.append(
                f"  {rule['name']:<24} {rule['state']:>9} "
                f"{rule['severity']:>8} {shown:>12} {threshold:>12}"
            )
    return "\n".join(lines)


def _top_process_values(pipeline) -> dict:
    """Newest ``repro_process_*`` samples out of a local pipeline."""
    process = {}
    for gauge in PROCESS_GAUGES:
        series = pipeline.store.get(gauge.name)
        latest = series.latest() if series is not None else None
        if latest is not None:
            process[gauge.name] = latest[1]
    return process


def _cmd_top(args: argparse.Namespace) -> int:
    """The fleet dashboard (one-shot, polling, or live-URL mode)."""
    frames = 1 if args.once else args.frames

    if args.url is not None:
        from repro.serving.frontend import _http_json

        base = args.url.rstrip("/")
        rendered = 0
        while frames is None or rendered < frames:
            if rendered:
                time.sleep(args.interval)
            status, stats = _http_json(f"{base}/stats")
            if status != 200:
                print(f"error: GET {base}/stats -> {status} {stats}")
                return 1
            status, alerts = _http_json(f"{base}/alerts")
            if status != 200:
                alerts = None  # telemetry not enabled on that server
            process = {}
            if (stats.get("telemetry") or {}).get("ticks"):
                for name in (gauge.name for gauge in PROCESS_GAUGES):
                    status, payload = _http_json(
                        f"{base}/query?series={name}&fn=value"
                    )
                    if status == 200 and payload.get("series"):
                        derived = payload["series"][0].get("derived") or {}
                        if derived.get("value") is not None:
                            process[name] = derived["value"]
            print(_render_top(stats, alerts, process))
            rendered += 1
        return 0

    # In-process demo: a real pool with telemetry attached, driven by a
    # short burst per frame.  Slow traffic is injected straight into the
    # latency analytics so the p99 alert demonstrably fires.
    from repro.observability.timeseries import TelemetryPipeline
    from repro.serving.pool import Client, CrossbarPool

    pool = CrossbarPool(shards=2, tile_elements=1 << 9, seed=args.seed)
    pipeline = TelemetryPipeline.for_pool(pool, interval_s=0.05)
    for rule in _default_telemetry_rules(pool, pipeline.interval_s):
        pipeline.add_rule(rule)
    target = pool.slo.policy.latency_target_s
    with pool:
        client = Client(pool, tenant="demo")
        rendered = 0
        while frames is None or rendered < frames:
            if rendered:
                time.sleep(args.interval)
            for workload in ("Sobel", "Robert"):
                client.call(workload, relax_bits=8, dataset_bytes=1 << 20)
            # The injected slow traffic: e2e observations far past the
            # SLO target, so /alerts shows a real firing rule.
            for _ in range(4):
                pool.latency.observe("e2e", 2.0 * target)
            for _ in range(4):
                pipeline.tick()
                time.sleep(pipeline.interval_s)
            print(
                _render_top(
                    pool.stats(),
                    pipeline.alerts(),
                    _top_process_values(pipeline),
                )
            )
            rendered += 1
    firing = pipeline.alerts()["firing"]
    if args.once and "e2e_p99_above_target" not in firing:
        print("TOP SMOKE FAIL: injected slow traffic fired no alert")
        return 1
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    """Offline DSE -> Pareto frontier -> fleet config."""
    from repro.fleet import run_dse, write_fleet_config

    tenants = None
    if args.tenant:
        tenants = {}
        for spec in args.tenant:
            try:
                name, priority, slo_s = spec.split(":")
                tenants[name] = {
                    "priority": int(priority),
                    "latency_slo_s": float(slo_s),
                }
            except ValueError:
                print(f"error: --tenant wants NAME:PRIO:SLO_S, got {spec!r}")
                return 2
    result = run_dse(
        block_rows=tuple(args.block_rows),
        interconnect_scales=tuple(args.interconnect_scales),
        shard_counts=tuple(args.shard_counts),
        batch_sizes=tuple(args.batch_sizes),
        workloads=tuple(args.workloads),
        tenants=tenants,
        offered_rps=args.offered_rps,
        requests_per_point=args.requests_per_point,
        tile_elements=args.tile,
        seed=args.seed,
    )
    print(
        f"fleet DSE: {len(result.evaluations)} design point(s) at "
        f"{args.offered_rps:g} req/s offered, frontier has "
        f"{len(result.frontier)} non-dominated point(s)"
    )
    print(f"  {'design point':<22} {'latency':>10} {'cost':>10} {'util':>6}")
    for ev in result.frontier:
        print(
            f"  {ev['key']:<22} {format_si(ev['latency_s'], 's'):>10} "
            f"{ev['cost_w']:>9.3g}W {ev['utilisation']:>5.0%}"
        )
    for name, sel in sorted(result.selection.items()):
        slo = (
            "meets SLO"
            if sel["meets_slo"]
            else "MISSES SLO (fastest point chosen)"
        )
        print(
            f"  tenant {name}: prio={sel['priority']} "
            f"slo={sel['latency_slo_s']:g}s -> {sel['key']} ({slo})"
        )
    write_fleet_config(args.output, result)
    print(f"fleet config written to {args.output}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Serve a burst through a pool; report tails and burn-rate verdicts."""
    from repro.observability.slo import SLOPolicy, evaluate_points
    from repro.serving.pool import Client, CrossbarPool

    policy = SLOPolicy(
        latency_target_s=args.target,
        error_budget=args.budget,
        min_events=1,  # the burst is the whole population; always judge it
    )
    chaos = None
    if args.chaos_rate:
        from repro.runtime.chaos import ChaosPolicy

        chaos = ChaosPolicy(
            transient_rate=args.chaos_rate,
            latency_rate=0.0,
            corrupt_rate=0.0,
            seed=args.seed,
        )
    pool = CrossbarPool(
        shards=args.shards,
        tile_elements=args.tile,
        seed=args.seed,
        chaos_policy=chaos,
        slo_policy=policy,
    )
    results = []
    with pool:
        client = Client(pool, tenant="slo")
        for _ in range(args.repeat):
            for workload in args.workloads:
                for level in args.levels:
                    results.append(
                        client.call(
                            workload, relax_bits=level,
                            dataset_bytes=1 << 20,
                        )
                    )
        live = pool.slo.evaluate()
        tails = pool.latency.summary()
        health = pool.healthz()
    offline = evaluate_points(
        [
            {
                "status": r.status,
                "apim_time_s": r.queue_wait_s + r.service_s,
            }
            for r in results
        ],
        policy,
    )
    print(
        f"slo: {len(results)} request(s), target {policy.latency_target_s}s"
        f" end-to-end, budget {policy.error_budget:.2%}"
    )
    print(
        f"  burn rates   : short({live['short_window_s']:.0f}s)="
        f"{live['short_burn']:.2f}  long({live['long_window_s']:.0f}s)="
        f"{live['long_burn']:.2f}  verdict={live['verdict']}"
    )
    print(
        f"  offline grid : bad={offline['bad']}/{offline['total']} "
        f"burn={offline['burn_rate']:.2f} verdict={offline['verdict']}"
        + (f" reasons={offline['by_reason']}" if offline["by_reason"] else "")
    )
    print(f"  healthz      : {health['status']}")
    print(f"  {'layer':<12} {'count':>6} {'p50':>10} {'p95':>10} "
          f"{'p99':>10} {'p999':>10}")
    for layer, summary in tails.items():
        print(
            f"  {layer:<12} {summary['count']:>6} "
            f"{format_si(summary['p50'], 's'):>10} "
            f"{format_si(summary['p95'], 's'):>10} "
            f"{format_si(summary['p99'], 's'):>10} "
            f"{format_si(summary['p999'], 's'):>10}"
        )
    return 1 if live["verdict"] == "fast_burn" else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Pretty-print a trace timeline from a spill file."""
    from repro.observability.tracing import format_timeline, load_spilled

    if args.file is None:
        print(
            "repro trace needs --file SPILL.jsonl; live servers expose "
            "GET /trace/<id>"
        )
        return 2
    records = load_spilled(args.file)
    if args.trace_id is None:
        print(f"{args.file}: {len(records)} spilled trace(s)")
        for record in records:
            print(f"  {record.trace_id}  events={len(record.events)}")
        return 0
    for record in records:
        if record.trace_id == args.trace_id:
            print(format_timeline(record))
            return 0
    print(f"trace {args.trace_id!r} not found in {args.file}")
    return 1


def _cmd_search(args: argparse.Namespace) -> int:
    """Similarity-search demo: kernel witness and recall ladder."""
    from repro.search import (
        MagicHammingKernel,
        build_planted_index,
        recall_at_k,
    )

    kernel = MagicHammingKernel(word_bits=16)
    kernel.self_test(np.random.default_rng(args.seed))
    cost = kernel.measure_word_cost()
    index, query_bits, _ = build_planted_index(
        entries=args.entries,
        dim=args.dim,
        queries=args.queries,
        seed=args.seed,
    )
    exact = [
        index.top_k(query_bits[i], args.k, relax_bits=0)
        for i in range(len(query_bits))
    ]
    print(
        f"search: {args.entries} codewords x {args.dim} bits, "
        f"{args.queries} quer{'y' if args.queries == 1 else 'ies'}, "
        f"top-{args.k}"
    )
    print(
        f"MAGIC Hamming kernel verified (16-bit witness): "
        f"{cost.nor_ops:.0f} NORs, {cost.cycles:.0f} cycles per word"
    )
    print(f"{'relax':>6} {'shift':>6} {'recall@' + str(args.k):>10}")
    for level in args.levels:
        recalls = [
            recall_at_k(
                np.array(exact[i].ids),
                np.array(
                    index.top_k(query_bits[i], args.k, relax_bits=level).ids
                ),
            )
            for i in range(len(query_bits))
        ]
        top = index.top_k(query_bits[0], args.k, relax_bits=level)
        print(
            f"{level:>6} {top.shift:>6} {float(np.mean(recalls)):>10.3f}"
        )
    return 0


def _cmd_workloads() -> str:
    lines = ["paper workloads (Table 1):"]
    for w in all_workloads():
        lines.append(f"  {w.name:<12} kind={w.kind}")
    lines.append("extension workloads:")
    for w in extension_workloads():
        lines.append(f"  {w.name:<12} kind={w.kind}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "fig4":
        print(render_figure4(run_figure4(samples=args.samples)))
    elif args.command == "fig5":
        print(render_figure5(run_figure5(tile_elements=args.tile)))
    elif args.command == "fig6":
        print(render_figure6(run_figure6()))
    elif args.command == "table1":
        print(render_table1(run_table1(tile_elements=args.tile)))
    elif args.command == "adaptive":
        print(render_adaptive(run_adaptive(tile_elements=args.tile)))
    elif args.command == "report":
        report = generate_report(samples=args.samples, tile_elements=args.tile)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
            print(f"report written to {args.output}")
        else:
            print(report)
    elif args.command == "run":
        print(_cmd_run(args))
    elif args.command == "sweep":
        print(_cmd_sweep(args))
    elif args.command == "campaign":
        from repro.runtime.campaign import run_campaign

        supervisor = None
        if args.retries is not None or args.deadline is not None:
            from repro.runtime.supervisor import RetryPolicy, Supervisor

            supervisor = Supervisor(
                retry=RetryPolicy(
                    max_attempts=args.retries or 3, jitter_seed=args.seed
                ),
                deadline_s=args.deadline,
            )
        result = run_campaign(
            list(args.workloads), list(args.levels),
            tile_elements=args.tile,
            supervisor=supervisor,
            checkpoint=args.checkpoint,
            resume=args.resume,
            seed=args.seed,
        )
        text = result.to_csv()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"campaign written to {args.output} "
                  f"({len(result.points)} points)")
        else:
            print(text, end="")
    elif args.command == "chaos":
        return _cmd_chaos(args)
    elif args.command == "metrics":
        return _cmd_metrics(args)
    elif args.command == "serve":
        return _cmd_serve(args)
    elif args.command == "top":
        return _cmd_top(args)
    elif args.command == "fleet":
        return _cmd_fleet(args)
    elif args.command == "slo":
        return _cmd_slo(args)
    elif args.command == "trace":
        return _cmd_trace(args)
    elif args.command == "search":
        return _cmd_search(args)
    elif args.command == "faults":
        from repro.resilience import campaign_table, run_fault_campaign

        points = run_fault_campaign(
            list(args.rates),
            list(args.spare_fractions),
            trials=args.trials,
            word_bits=args.bits,
            ops_per_trial=args.ops,
            seed=args.seed,
        )
        print(campaign_table(points))
    elif args.command == "workloads":
        print(_cmd_workloads())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
