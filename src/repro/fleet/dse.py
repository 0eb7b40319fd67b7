"""Offline design-space exploration: sweep, Pareto, per-tenant select.

The fleet's sizing question — how many shards, what block geometry, what
interconnect, what batch ceiling — is answered *offline*, the
rad_gen/COFFE move at serving scale.  :func:`run_dse` sweeps the design
grid, pricing each point through the existing campaign/pool machinery (a
real :class:`~repro.serving.pool.CrossbarPool` on the inline runtime, so
per-request pricing is bit-identical to what the live fleet would serve),
then folds the simulated measurements into a serving model at the target
offered load:

- ``service_s`` / ``energy_j`` — mean simulated APIM latency and energy
  of a served request at this block geometry and interconnect;
- batching amortisation — a coalesced batch of B prices one cold tile
  plus B-1 warm-cache hits, so effective per-request service shrinks
  toward ``_WARM_FRACTION`` of a cold execution as B grows;
- queueing — an M/M/c-flavoured penalty in the utilisation at the
  offered load (capped below saturation), plus the coalescing wait a
  request spends assembling its batch;
- cost — serving energy per second at the offered load plus a static
  floor per provisioned shard (idle shards are not free).

The cost–latency frontier is the generic strict non-domination filter
from :mod:`repro.analysis.pareto`; per-tenant selection picks the
cheapest frontier point meeting each tenant's latency SLO (falling back
to the fastest point when none does).  :func:`write_fleet_config` /
:func:`load_fleet_config` round-trip the result as the JSON file
``repro serve --fleet-config`` boots from.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from itertools import product

from repro.analysis.pareto import non_dominated
from repro.core.config import default_config
from repro.errors import FleetError
from repro.units import MIB

__all__ = [
    "DesignPoint",
    "DSEResult",
    "load_fleet_config",
    "run_dse",
    "write_fleet_config",
]

#: Dataset size every design point's requests are priced at.
_DATASET_BYTES = 4 * MIB
#: Warm-tile cost as a fraction of a cold execution (batch amortisation).
_WARM_FRACTION = 0.25
#: Static power of one provisioned shard, as a fraction of its full-rate
#: serving power — the term that makes over-provisioning cost something.
_IDLE_FRACTION = 0.05
#: Utilisation ceiling for the queueing term (the model refuses to
#: report a finite latency at or beyond saturation).
_MAX_UTILISATION = 0.95

#: Current fleet-config file schema.
CONFIG_VERSION = 1


@dataclass(frozen=True)
class DesignPoint:
    """One corner of the sweep grid."""

    block_rows: int
    interconnect_scale: float
    shard_count: int
    max_batch_size: int

    @property
    def key(self) -> str:
        return (
            f"b{self.block_rows}-i{self.interconnect_scale:g}"
            f"-s{self.shard_count}-q{self.max_batch_size}"
        )


@dataclass
class DSEResult:
    """Everything the sweep learned: raw evaluations, frontier, picks."""

    offered_rps: float
    seed: int
    evaluations: list[dict] = field(default_factory=list)
    frontier: list[dict] = field(default_factory=list)
    selection: dict[str, dict] = field(default_factory=dict)


def _measure_point(
    point: DesignPoint,
    workloads: tuple[str, ...],
    requests_per_point: int,
    tile_elements: int,
    seed: int,
) -> tuple[float, float, int]:
    """Price one design point through a real (inline) pool.

    Returns ``(mean service_s, mean energy_j, completed)`` over the
    simulated APIM measurements — deterministic in the seed.
    """
    from repro.serving.pool import Client, CrossbarPool
    from repro.serving.scheduler import ServingConfig

    config = default_config()
    config = config.with_overrides(
        block_rows=point.block_rows,
        e_interconnect=config.e_interconnect * point.interconnect_scale,
    )
    pool = CrossbarPool(
        shards=point.shard_count,
        serving_config=ServingConfig(
            max_batch_size=point.max_batch_size,
            max_wait_s=0.0,
            queue_capacity=max(64, requests_per_point * 2),
        ),
        apim_config=config,
        tile_elements=tile_elements,
        seed=seed,
        runtime="inline",
    )
    times: list[float] = []
    energies: list[float] = []
    with pool:
        client = Client(pool, tenant="dse")
        for i in range(requests_per_point):
            workload = workloads[i % len(workloads)]
            result = client.call(
                workload, dataset_bytes=_DATASET_BYTES, timeout=120.0
            )
            if result.point is not None and result.completed:
                times.append(result.point.apim_time_s)
                energies.append(result.point.apim_energy_j)
    if not times:
        raise FleetError(
            f"design point {point.key} completed no requests; "
            "cannot price it"
        )
    return (
        sum(times) / len(times),
        sum(energies) / len(energies),
        len(times),
    )


def _serving_model(
    point: DesignPoint,
    service_s: float,
    energy_j: float,
    offered_rps: float,
) -> dict:
    """Fold one point's simulated pricing into (cost, latency) at load."""
    batch = point.max_batch_size
    # A batch of B prices one cold execution plus B-1 warm-cache hits.
    effective_service_s = service_s * (
        1.0 + (batch - 1) * _WARM_FRACTION
    ) / batch
    effective_energy_j = energy_j * (
        1.0 + (batch - 1) * _WARM_FRACTION
    ) / batch
    capacity_rps = point.shard_count / max(effective_service_s, 1e-12)
    utilisation = min(offered_rps / capacity_rps, _MAX_UTILISATION)
    queueing_s = effective_service_s * utilisation / (1.0 - utilisation)
    coalesce_s = (batch - 1) / (2.0 * offered_rps) if batch > 1 else 0.0
    latency_s = effective_service_s + queueing_s + coalesce_s
    serving_w = offered_rps * effective_energy_j
    static_w = (
        point.shard_count * (energy_j / max(service_s, 1e-12))
        * _IDLE_FRACTION
    )
    return {
        "capacity_rps": capacity_rps,
        "utilisation": utilisation,
        "latency_s": latency_s,
        "cost_w": serving_w + static_w,
    }


def run_dse(
    block_rows: tuple[int, ...] = (256, 1024),
    interconnect_scales: tuple[float, ...] = (1.0, 4.0),
    shard_counts: tuple[int, ...] = (1, 2, 4),
    batch_sizes: tuple[int, ...] = (1, 8),
    workloads: tuple[str, ...] = ("Sobel",),
    tenants: dict[str, dict] | None = None,
    offered_rps: float = 200.0,
    requests_per_point: int = 3,
    tile_elements: int = 1 << 8,
    seed: int = 2017,
) -> DSEResult:
    """Sweep the grid and build the cost–latency frontier.

    ``tenants`` maps name to ``{"priority": int, "latency_slo_s": float}``;
    when omitted a single default tenant with a generous SLO is used.
    Deterministic in its arguments — same grid, same seed, same frontier.
    """
    if tenants is None:
        tenants = {"default": {"priority": 1, "latency_slo_s": 1.0}}
    result = DSEResult(offered_rps=offered_rps, seed=seed)
    # Simulated per-request pricing depends only on the hardware half of
    # the design point; price each (block_rows, interconnect) corner once
    # and reuse it across the shard/batch half of the grid.
    measured: dict[tuple[int, float], tuple[float, float, int]] = {}
    for rows, scale, shards, batch in product(
        block_rows, interconnect_scales, shard_counts, batch_sizes
    ):
        point = DesignPoint(
            block_rows=rows,
            interconnect_scale=scale,
            shard_count=shards,
            max_batch_size=batch,
        )
        hardware = (rows, scale)
        if hardware not in measured:
            measured[hardware] = _measure_point(
                point, workloads, requests_per_point, tile_elements, seed,
            )
        service_s, energy_j, completed = measured[hardware]
        model = _serving_model(point, service_s, energy_j, offered_rps)
        result.evaluations.append(
            {
                "design_point": asdict(point),
                "key": point.key,
                "service_s": service_s,
                "energy_j": energy_j,
                "completed": completed,
                **model,
            }
        )
    result.frontier = sorted(
        non_dominated(
            result.evaluations,
            lambda ev: (ev["cost_w"], ev["latency_s"]),
        ),
        key=lambda ev: ev["cost_w"],
    )
    for name, spec in tenants.items():
        slo_s = float(spec.get("latency_slo_s", 1.0))
        eligible = [
            ev for ev in result.frontier if ev["latency_s"] <= slo_s
        ]
        # Cheapest point meeting the SLO; when nothing does, the
        # fastest point is the least-bad promise the fleet can make.
        chosen = (
            min(eligible, key=lambda ev: ev["cost_w"])
            if eligible
            else min(result.frontier, key=lambda ev: ev["latency_s"])
        )
        result.selection[name] = {
            "priority": int(spec.get("priority", 1)),
            "latency_slo_s": slo_s,
            "meets_slo": bool(eligible),
            **chosen,
        }
    return result


def write_fleet_config(
    path: str,
    result: DSEResult,
    policy: dict | None = None,
) -> dict:
    """Serialise a DSE result as the ``--fleet-config`` file.

    One pool serves every tenant, so the pool-level design point is the
    *highest-priority* tenant's pick (priority 0 wins ties by name); the
    per-tenant table keeps each tenant's own selection and priority for
    the autoscaler's shed ranking.  Returns the written document.
    """
    if not result.selection:
        raise FleetError("DSE result has no tenant selection to write")
    leader = min(
        sorted(result.selection),
        key=lambda name: result.selection[name]["priority"],
    )
    pool_point = result.selection[leader]["design_point"]
    document = {
        "version": CONFIG_VERSION,
        "seed": result.seed,
        "offered_rps": result.offered_rps,
        "pool": dict(pool_point),
        "autoscaler": policy or {},
        "tenants": {
            name: {
                "priority": sel["priority"],
                "latency_slo_s": sel["latency_slo_s"],
                "meets_slo": sel["meets_slo"],
                "design_point": dict(sel["design_point"]),
                "latency_s": sel["latency_s"],
                "cost_w": sel["cost_w"],
            }
            for name, sel in sorted(result.selection.items())
        },
        "frontier": result.frontier,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return document


def load_fleet_config(path: str) -> dict:
    """Parse and validate a ``--fleet-config`` file.

    Returns the document with the pool design point materialised under
    ``"pool"``; any malformation raises :class:`~repro.errors.FleetError`
    (never a raw ``KeyError``/``JSONDecodeError``).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise FleetError(f"cannot read fleet config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FleetError(
            f"fleet config {path!r} is not valid JSON: {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise FleetError(f"fleet config {path!r} must be a JSON object")
    if document.get("version") != CONFIG_VERSION:
        raise FleetError(
            f"fleet config {path!r} has version "
            f"{document.get('version')!r}, expected {CONFIG_VERSION}"
        )
    pool = document.get("pool")
    required = (
        "block_rows", "interconnect_scale", "shard_count", "max_batch_size"
    )
    if not isinstance(pool, dict) or any(k not in pool for k in required):
        raise FleetError(
            f"fleet config {path!r} 'pool' must carry {required}"
        )
    try:
        pool["block_rows"] = int(pool["block_rows"])
        pool["interconnect_scale"] = float(pool["interconnect_scale"])
        pool["shard_count"] = int(pool["shard_count"])
        pool["max_batch_size"] = int(pool["max_batch_size"])
    except (TypeError, ValueError) as exc:
        raise FleetError(
            f"fleet config {path!r} 'pool' fields must be numeric: {exc}"
        ) from exc
    if pool["shard_count"] < 1 or pool["max_batch_size"] < 1:
        raise FleetError(
            f"fleet config {path!r}: shard_count and max_batch_size "
            "must be at least 1"
        )
    tenants = document.get("tenants", {})
    if not isinstance(tenants, dict):
        raise FleetError(f"fleet config {path!r} 'tenants' must be an object")
    for name, spec in tenants.items():
        if not isinstance(spec, dict) or "priority" not in spec:
            raise FleetError(
                f"fleet config {path!r} tenant {name!r} must carry a "
                "'priority'"
            )
    return document
