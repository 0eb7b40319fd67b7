"""Inputs, statistics and reference data shared by the benchmark's processes.

Everything the benchmark feeds the program is derived here from the
``--seed`` argument, so the same seed always produces the same inputs.
The program itself is always configured with its shipped seed (2017):
the benchmark seed only chooses request order, mix and arrival times,
which is what lets every served number be checked against one committed
reference.
"""

from __future__ import annotations

import json
import math
import os
import resource

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

#: The program's own seed (pool, harness and codebook); fixed so served
#: numbers can be compared with the committed reference.
PROGRAM_SEED = 2017
MIB = 1 << 20
GIB = 1 << 30

#: The Table-1 campaign: six paper workloads x relax levels at 1 GiB,
#: at `run_campaign`'s default tile.  Only `--self-check` runs it, to
#: confirm the program still prices it as `reference.json` records.
CAMPAIGN_WORKLOADS = ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen",
                      "QuasiR")
RELAX_LEVELS = (0, 4, 8, 16, 24, 32)
CAMPAIGN_SIZE = GIB

#: The serving mix: the paper workloads plus GEMM at every relax level.
SERVE_WORKLOADS = CAMPAIGN_WORKLOADS + ("GEMM",)
SERVE_SIZES = (64 * MIB, 256 * MIB, GIB)
#: Tile size of `repro serve` (its shipped default).
SERVE_TILE = 1 << 10

#: Open-loop arrival rate of durable-http, in requests per second.  At
#: 200/s a one-second host or fsync stall left a backlog the server
#: barely drained (2 of 10 runs lost the whole window to it).
HTTP_RATE = 100.0
#: Share of durable-http requests that are `/search` retrievals.
SEARCH_SHARE = 0.2
SEARCH_K = (5, 10)
SEARCH_RELAX = (0, 8)
#: Shape of the serving codebook (`default_search_index` defaults).
CODEBOOK_ENTRIES = 512
CODEBOOK_DIM = 256

#: CampaignPoint fields, in declaration order.
POINT_FIELDS = (
    "workload", "relax_bits", "dataset_bytes", "qol_percent", "qos_ok",
    "speedup", "energy_improvement", "edp_improvement", "apim_time_s",
    "apim_energy_j", "status", "attempts", "effective_relax_bits",
)


def serve_keys() -> list[tuple[str, int, int]]:
    """Every (workload, relax_bits, dataset_bytes) the serving mix uses."""
    return [
        (workload, relax, size)
        for workload in SERVE_WORKLOADS
        for relax in RELAX_LEVELS
        for size in SERVE_SIZES
    ]


def key_name(workload: str, relax: int, size: int) -> str:
    return f"{workload}/m{relax}/{size}"


def closed_loop_sequence(seed: int, length: int = 1 << 18) -> np.ndarray:
    """Indices into :func:`serve_keys` for the closed-loop caller."""
    rng = np.random.default_rng([seed, 1])
    return rng.integers(0, len(serve_keys()), length)


def open_loop_schedule(seed: int, seconds: float) -> list[dict]:
    """The durable-http arrivals: Poisson at :data:`HTTP_RATE`.

    Each entry carries its due offset (seconds from the window start)
    and either a submit key or a search query.
    """
    rng = np.random.default_rng([seed, 2])
    keys = serve_keys()
    schedule = []
    due = 0.0
    while True:
        due += rng.exponential(1.0 / HTTP_RATE)
        if due >= seconds:
            return schedule
        if rng.random() < SEARCH_SHARE:
            schedule.append({
                "due": due,
                "search": {
                    "query": rng.integers(0, 2, CODEBOOK_DIM).tolist(),
                    "k": int(rng.choice(SEARCH_K)),
                    "relax_bits": int(rng.choice(SEARCH_RELAX)),
                },
            })
        else:
            workload, relax, size = keys[int(rng.integers(0, len(keys)))]
            schedule.append({
                "due": due,
                "submit": {
                    "workload": workload,
                    "relax_bits": relax,
                    "dataset_bytes": size,
                },
            })


def codebook_bits() -> np.ndarray:
    """The serving codebook, rebuilt client-side from the program seed
    exactly as `repro.search.default_search_index` draws it."""
    rng = np.random.default_rng(PROGRAM_SEED)
    return rng.integers(0, 2, (CODEBOOK_ENTRIES, CODEBOOK_DIM),
                        dtype=np.uint8)


def brute_force_top_k(bits: np.ndarray, query, k: int, relax_bits: int):
    """Numpy Hamming top-k with the relax rung's quantization and
    lower-id tie breaks: the check for every served `/search`."""
    distances = (bits != np.asarray(query, dtype=np.uint8)).sum(axis=1)
    shift = relax_bits // 4
    quantized = (distances >> shift) << shift
    order = np.argsort(quantized, kind="stable")[:k]
    return [int(i) for i in order], [int(d) for d in quantized[order]]


def point_tuple(point: dict) -> tuple:
    return tuple(point[name] for name in POINT_FIELDS)


def load_reference() -> dict:
    """``{"serve": {key: point dict}, "campaign": {key: point dict}}``."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``nan`` on no samples)."""
    if len(values) == 0:
        return math.nan
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
    return ordered[index]


def median(values) -> float:
    return percentile(values, 0.5)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(tag: str, payload=None) -> None:
    """One protocol line to the orchestrating process."""
    print(f"@@{tag} {json.dumps(payload)}", flush=True)
