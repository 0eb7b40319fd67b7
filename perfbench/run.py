"""The repository benchmark: one command, two workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload warm-serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of `BENCHMARK.json`, ``--trace 1`` its per-layer
metrics, measured from spans around each layer's public entry points
(see `spans.py`).  The exit code is non-zero when any output check
fails.  Each measured process is a fresh interpreter (`child.py`);
this process only spawns them, drives the HTTP load and aggregates.
See `perfbench/README.md` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import dataclasses
import http.client
import json
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

from common import (
    CAMPAIGN_SIZE,
    CAMPAIGN_WORKLOADS,
    PROGRAM_SEED,
    REFERENCE_PATH,
    RELAX_LEVELS,
    SERVE_TILE,
    brute_force_top_k,
    codebook_bits,
    key_name,
    load_reference,
    median,
    open_loop_schedule,
    percentile,
    point_tuple,
    serve_keys,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
#: Extra fresh-interpreter set-ups per serving run; with the measured
#: process's own set-up, `setup_s` is a median of three.
SETUP_PROBES = 2
READY_TIMEOUT_S = 90.0
#: Wait between `GET /result` polls of a still-pending request.
POLL_S = 0.002
#: Traced durable-http runs alternate untraced and traced slices of the
#: schedule this long, so both see the same host conditions.
HTTP_SLICE_S = 1.0


class BenchError(Exception):
    """The benchmark could not run or measure (not an output mismatch)."""


class Child:
    """One `child.py` process, read line by line on a helper thread."""

    def __init__(self, role: str, config: dict, scratch: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.role = role
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), role,
             json.dumps(config)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=scratch,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("@@"):
                tag, _, payload = line[2:].partition(" ")
                self._lines.put((time.perf_counter(), tag,
                                 json.loads(payload)))
        self._lines.put((time.perf_counter(), None, None))

    def expect(self, tag: str, timeout: float):
        """Wait for ``@@tag``; returns (arrival time, payload)."""
        try:
            arrived, got, payload = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"{self.role}: no @@{tag} in {timeout:.0f}s")
        if got != tag:
            raise BenchError(f"{self.role}: expected @@{tag}, got "
                             f"{'exit' if got is None else '@@' + got}")
        return arrived, payload

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self, timeout: float = 60.0) -> None:
        self.proc.stdin.close()
        code = self.proc.wait(timeout=timeout)
        self._reader.join(timeout=5.0)
        if code != 0:
            raise BenchError(f"{self.role} exited with {code}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)


class Run:
    """Spawns children in a private scratch directory; cleans up both."""

    def __init__(self, args) -> None:
        self.args = args
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="run-",
                                        dir=os.path.join(ROOT, ".perfbench"))
        self.children: list[Child] = []

    def spawn(self, role: str, **config) -> Child:
        config.setdefault("seed", self.args.seed)
        config.setdefault("trace", bool(self.args.trace))
        config.setdefault("setup_only", False)
        config.setdefault("spans_path", self.spans_path())
        child = Child(role, config, self.scratch)
        self.children.append(child)
        return child

    def spans_path(self) -> str:
        return os.path.join(
            ROOT, ".perfbench",
            f"spans-{self.args.workload}-seed{self.args.seed}.jsonl")

    def setup(self, child: Child) -> float:
        arrived, _ = child.expect("ready", READY_TIMEOUT_S)
        return arrived - child.spawned

    def interleaved(self, role: str, measure) -> list[float]:
        """Call ``measure(part, seconds)`` for each of the window's
        ``SETUP_PROBES + 1`` equal parts, with one fresh set-up probe
        between parts; returns the probes' set-up times.

        Spreading the window over the whole run averages the host's
        fast and slow phases, which last tens of seconds.
        """
        parts = SETUP_PROBES + 1
        setups = []
        for part in range(parts):
            if part:
                probe = self.spawn(role, setup_only=True)
                setups.append(self.setup(probe))
                probe.finish()
            measure(part, self.args.seconds / parts)
        return setups

    def close(self) -> None:
        for child in self.children:
            child.kill()
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- workloads ----------------------------------------------------------------

def warm_serve(run: Run) -> dict:
    child = run.spawn("warm-serve")
    setups = [run.setup(child)]

    def measure(part: int, seconds: float) -> None:
        child.send(f"measure {seconds}")
        child.expect("measured", seconds + 60.0)

    setups += run.interleaved("warm-serve", measure)
    child.send("finish")
    _, out = child.expect("result", 120.0)
    child.finish()
    untraced = out["untraced"]
    problems = []
    windows = [untraced] + ([out["traced"]] if "traced" in out else [])
    if any(window["mismatched"] for window in windows):
        problems.append("served points differ from direct pricing")
    # One closed-loop caller cannot overflow the queue, so any refused or
    # non-ok call is a fault, not load shedding.
    failed = sum(w["failed"] for w in windows)
    if failed:
        problems.append(f"{failed} call(s) refused or not ok")
    problems += _cold_window(out)
    report = {
        "attempted": sum(w["attempted"] for w in windows),
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "setup_s": median(setups),
            "latency_p10_ms": untraced["p10_s"] * 1e3,
            "peak_rss_mb": out["peak_rss_mb"],
        },
    }
    if "traced" in out:
        report["layers"] = dict(out["layers"])
        report["layers"].update({
            "serving.scheduler.rejected": out["traced"]["refused"],
            "bench.throughput_rps":
                untraced["completed"] / untraced["elapsed_s"],
            "bench.latency_p50_ms": untraced["p50_s"] * 1e3,
            "bench.latency_p95_ms": untraced["p95_s"] * 1e3,
            "bench.latency_p99_ms": untraced["p99_s"] * 1e3,
            "bench.tracing_overhead_pct": _overhead(
                out["traced"]["p10_s"], untraced["p10_s"]),
        })
    return report


def _cold_window(out: dict) -> list[str]:
    problems = []
    if out["window_locality_sims"]:
        problems.append(f"{out['window_locality_sims']} locality "
                        "simulation(s) ran inside the timed window")
    if out["window_tile_runs"]:
        problems.append(f"{out['window_tile_runs']} tile execution(s) ran "
                        "inside the timed window")
    return problems


def _overhead(traced: float, untraced: float) -> float:
    return (traced / untraced - 1.0) * 100.0 if untraced else 0.0


def _http(port: int, method: str, path: str, body: bytes | None = None):
    """One request on its own connection, as the repo's urllib clients do.

    A kept-alive connection would stall ~40 ms per reply: the server
    writes headers and body in two sends, and Nagle holds the second
    until the client's delayed ACK.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(method, path, body, _HEADERS)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


_HEADERS = {"Content-Type": "application/json", "Connection": "close"}


def _traced_slice(trace: bool, due: float) -> bool:
    """In a traced run, odd slices of the schedule are traced."""
    return trace and int(due / HTTP_SLICE_S) % 2 == 1


class OpenLoop:
    """Open-loop HTTP load: one sender on the schedule, one result fetcher.

    Each :meth:`run` sends one part of the schedule.  Per-request times
    (due, sent, acknowledged, fetched) accumulate across parts, keyed by
    schedule index.  ``on_toggle(tracing)`` runs on the sender thread
    whenever the next request starts a traced or untraced slice.
    """

    def __init__(self, port: int, schedule: list[dict], seed: int,
                 trace: bool, on_toggle) -> None:
        self.port = port
        self.schedule = schedule
        self.trace = trace
        self.on_toggle = on_toggle
        self.bodies = []
        for index, item in enumerate(schedule):
            kind = "search" if "search" in item else "submit"
            payload = dict(item[kind], idempotency_key=f"bench-{seed}-{index}")
            self.bodies.append((f"/{kind}",
                                json.dumps(payload).encode("utf-8")))
        self.due: dict[int, float] = {}
        self.sent: dict[int, float] = {}
        self.acked: dict[int, float] = {}
        self.fetched: dict[int, float] = {}
        self.replies: dict[int, tuple[int, dict]] = {}
        self.results: dict[str, dict] = {}
        self.errors: list[str] = []
        self.elapsed_s = 0.0

    def run(self, begin: float, end: float) -> None:
        """Send the requests due in ``[begin, end)`` of the schedule,
        with ``begin`` mapped to now."""
        indices = [i for i, item in enumerate(self.schedule)
                   if begin <= item["due"] < end]
        pending: queue.Queue = queue.Queue()
        start = time.perf_counter() + 0.05

        def sender() -> None:
            tracing = False
            try:
                for index in indices:
                    offset = self.schedule[index]["due"]
                    due = self.due[index] = start + offset - begin
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    if _traced_slice(self.trace, offset) != tracing:
                        tracing = not tracing
                        self.on_toggle(tracing)
                    path, body = self.bodies[index]
                    self.sent[index] = time.perf_counter()
                    status, reply = _http(self.port, "POST", path, body)
                    self.acked[index] = time.perf_counter()
                    self.replies[index] = (status, reply)
                    if status == 202:
                        pending.put((index, reply["id"]))
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self.errors.append(f"sender: {type(exc).__name__}: {exc}")
            finally:
                if tracing:
                    self.on_toggle(False)
                pending.put(None)

        def fetcher() -> None:
            try:
                while (item := pending.get()) is not None:
                    index, request_id = item
                    while True:
                        status, body = _http(self.port, "GET",
                                             f"/result/{request_id}")
                        if status != 202:
                            break
                        time.sleep(POLL_S)
                    self.fetched[index] = time.perf_counter()
                    if status != 200:
                        self.errors.append(f"{request_id}: GET /result "
                                           f"answered {status}")
                    elif request_id in self.results:
                        self.errors.append(f"{request_id} fetched twice")
                    else:
                        self.results[request_id] = body
            except (OSError, http.client.HTTPException, ValueError) as exc:
                self.errors.append(f"fetcher: {type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=sender),
                   threading.Thread(target=fetcher)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150.0)
            if thread.is_alive():
                raise BenchError("load generator did not finish")
        self.elapsed_s += time.perf_counter() - start


def durable_http(run: Run) -> dict:
    args = run.args
    schedule = open_loop_schedule(args.seed, args.seconds)
    if not schedule:
        raise BenchError("the open-loop schedule is empty; raise --seconds")

    server = run.spawn("http-server")
    arrived, ready = server.expect("ready", READY_TIMEOUT_S)
    setups = [arrived - server.spawned]
    server.send("begin")
    traced = bool(args.trace)
    load = OpenLoop(
        ready["port"], schedule, args.seed, traced,
        lambda tracing: server.send("trace" if tracing else "untrace"))
    setups += run.interleaved(
        "http-server",
        lambda part, seconds: load.run(part * seconds, (part + 1) * seconds))
    server.send("end")
    _, window = server.expect("window", 120.0)
    server.send("stop")
    _, stopped = server.expect("stopped", 60.0)
    server.finish()

    problems = load.errors + _cold_window(window)
    bits = codebook_bits()
    reference = load_reference()["serve"]
    acked_results = {}
    ids = []
    latency = {True: [], False: []}
    ack = {True: [], False: []}
    failed = rejected = 0
    for index, item in enumerate(schedule):
        status, reply = load.replies.get(index, (None, {}))
        in_traced_slice = _traced_slice(traced, item["due"])
        if status in (429, 503):
            rejected += 1
        if status != 202:
            failed += 1
            continue
        request_id = reply["id"]
        ids.append(request_id)
        result = load.results.get(request_id)
        if result is None:
            failed += 1
            problems.append(f"{request_id}: acknowledged but never fetched")
            continue
        acked_results[request_id] = result
        due = load.due[index]
        latency[in_traced_slice].append(load.fetched[index] - due)
        ack[in_traced_slice].append(load.acked[index] - due)
        if result.get("status") != "ok":
            failed += 1
            problems.append(f"{request_id}: ended {result.get('status')}")
        elif "search" in item:
            query = item["search"]
            top_ids, distances = brute_force_top_k(
                bits, query["query"], query["k"], query["relax_bits"])
            served = result.get("search") or {}
            if served.get("ids") != top_ids or \
                    served.get("distances") != distances:
                problems.append(f"{request_id}: top-k differs from brute force")
        else:
            submit = item["submit"]
            expected = point_tuple(reference[key_name(
                submit["workload"], submit["relax_bits"],
                submit["dataset_bytes"])])
            if point_tuple(result.get("point") or {}) != expected:
                problems.append(f"{request_id}: point differs from direct "
                                "pricing")
    if len(set(ids)) != len(ids):
        problems.append("an id was acknowledged for two requests")

    acked_path = os.path.join(run.scratch, "acked.json")
    with open(acked_path, "w", encoding="utf-8") as handle:
        json.dump(acked_results, handle)
    recovery = run.spawn("recover", journal_dir=ready["journal_dir"],
                         acked_path=acked_path)
    run.setup(recovery)
    _, recovered = recovery.expect("result", 120.0)
    recovery.finish()
    for name in ("missing", "changed", "replayed"):
        if recovered[name]:
            problems.append(f"restart: {recovered[name]} acknowledged "
                            f"result(s) {name}")

    untraced_latency = latency[False]
    report = {
        "attempted": len(schedule),
        "failed": failed,
        "problems": problems,
        "end_to_end": {
            "setup_s": median(setups),
            "latency_p10_ms": percentile(untraced_latency, 0.1) * 1e3,
            "peak_rss_mb": stopped["peak_rss_mb"],
        },
    }
    if traced:
        handler_s = window["handler_s"]
        transport = [
            load.acked[i] - load.sent[i] - handler_s[reply[1]["id"]]
            for i, reply in load.replies.items()
            if reply[0] == 202 and reply[1]["id"] in handler_s
        ]
        lags = [load.sent[i] - load.due[i] for i in load.sent]
        report["layers"] = dict(window["layers"])
        report["layers"].update({
            "serving.frontend.transport_us_p50":
                median(transport) * 1e6 if transport else 0.0,
            "serving.scheduler.rejected": rejected,
            "serving.journal.load_s": recovered["load_s"],
            "bench.gen_lag_p99_ms": percentile(lags, 0.99) * 1e3,
            "bench.tracing_overhead_pct": _overhead(
                percentile(latency[True], 0.1),
                percentile(untraced_latency, 0.1)),
            # A keep-up check: the offered rate while the server keeps up.
            "bench.throughput_rps": len(load.fetched) / load.elapsed_s,
            "bench.latency_p50_ms": median(untraced_latency) * 1e3,
            "bench.latency_p95_ms": percentile(untraced_latency, 0.95) * 1e3,
            "bench.latency_p99_ms": percentile(untraced_latency, 0.99) * 1e3,
            "bench.ack_p50_ms": median(ack[False]) * 1e3,
            "bench.ack_p99_ms": percentile(ack[False], 0.99) * 1e3,
            "bench.recover_s": recovered["recover_s"],
        })
    return report


WORKLOADS = {
    "warm-serve": warm_serve,
    "durable-http": durable_http,
}


# -- output -------------------------------------------------------------------

def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def result_line(report: dict, trace: bool) -> dict:
    """The contract's final line: every declared metric, with its unit.

    Per-layer metrics a workload never exercises read 0 (a layer absent
    from the workload did no work).
    """
    spec = load_benchmark()["per_layer" if trace else "end_to_end"]
    measured = report["layers"] if trace else report["end_to_end"]
    unknown = set(measured) - {metric["name"] for metric in spec}
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics = {}
    for metric in spec:
        value = measured.get(metric["name"], 0.0) if trace \
            else measured[metric["name"]]
        if value != value:  # nan: no samples
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": not report["problems"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }


# -- maintenance: reference and self-check ------------------------------------

def direct_reference() -> dict:
    """Every checked number, priced directly with `run_point` (no pool)."""
    from repro.runtime.campaign import run_campaign, run_point
    from repro.runtime.comparison import ComparisonHarness
    from repro.workloads import workload_by_name

    harness = ComparisonHarness(tile_elements=SERVE_TILE,
                                rng_seed=PROGRAM_SEED)
    serve = {}
    for workload, relax, size in serve_keys():
        point = run_point(workload_by_name(workload), relax, float(size),
                          harness)
        serve[key_name(workload, relax, size)] = dataclasses.asdict(point)
    grid = run_campaign(list(CAMPAIGN_WORKLOADS), list(RELAX_LEVELS),
                        dataset_bytes=CAMPAIGN_SIZE, seed=PROGRAM_SEED)
    campaign = {point.key: dataclasses.asdict(point) for point in grid.points}
    return {"serve": serve, "campaign": campaign}


def self_check() -> int:
    """Schema, reference and a tiny run of every workload in both modes."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    failures = []
    spec = load_benchmark()
    expected_keys = {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}
    if set(spec) != expected_keys:
        failures.append(f"BENCHMARK.json keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.py")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]):
        failures.append("no setup_s end-to-end metric")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or \
                not 0 < metric["bound"] <= 0.25:
            failures.append(f"bad end-to-end metric {metric}")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            failures.append(f"bad per-layer metric {metric}")
    if direct_reference() != load_reference():
        failures.append("direct pricing differs from perfbench/reference.json")
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", workload, "--seed", "1",
                       "--seconds", "2", "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True,
                                  timeout=300, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if done.returncode != 0 or not lines:
                failures.append(f"{label}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-400:]}")
                continue
            line = json.loads(lines[-1])
            declared = spec["per_layer" if trace else "end_to_end"]
            names = {m["name"]: m["unit"] for m in declared}
            printed = {n: m["unit"] for n, m in line["metrics"].items()}
            if printed != names:
                failures.append(f"{label}: metrics or units differ")
            if not line["correct"] or line["failed"]:
                failures.append(f"{label}: {line}")
            print(f"self-check {label}: ok", file=sys.stderr)
    for failure in failures:
        print(f"self-check FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"self_check": "ok" if not failures else "failed"}))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="validate schema, reference and a tiny run")
    parser.add_argument("--write-reference", action="store_true",
                        help=f"regenerate {os.path.basename(REFERENCE_PATH)} "
                        "from direct pricing")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)",
              file=sys.stderr)
        return 2
    if args.write_reference:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
            json.dump(direct_reference(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    # A terminated run still stops and reaps its children (`finally`).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(args)
    try:
        report = WORKLOADS[args.workload](run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    line = result_line(report, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
