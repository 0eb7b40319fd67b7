"""A priced-memo hit skips the rescue ladder.

Without chaos, :func:`~repro.runtime.campaign.run_point` looks a point up
in the process-wide priced memo before it supervises anything.  Pricing
is deterministic and a raising tile stays raising, so a priced key is one
whose first supervised attempt is clean: the hit returns the entry's one
shared ``ok`` point, equal field by field to the cold supervised point,
and records one ``campaign`` ``hit`` event instead of the supervisor's.
Under chaos every call runs the ladder, so no hit is ever recorded.
"""

from __future__ import annotations

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.campaign import CampaignPoint
from repro.runtime.chaos import ChaosPolicy
from repro.serving import Client, CrossbarPool
from repro.serving.pool import build_shard
from repro.units import GIB, MIB

TILE = 1 << 9
#: The serving benchmark's mix: seven workloads, six relax levels, three
#: dataset sizes.
WORKLOADS = ("Sobel", "Robert", "FFT", "DwtHaar1D", "Sharpen", "QuasiR", "GEMM")
RELAX_LEVELS = (0, 4, 8, 16, 24, 32)
SIZES = (64 * MIB, 256 * MIB, GIB)
FIELDS = [field.name for field in dataclasses.fields(CampaignPoint)]

#: Each example prices at a harness identity no other test interns, so
#: its first request is cold.
_FRESH_SEEDS = itertools.count(50_000)


class Events:
    """A trace sink keeping ``(layer, kind)`` of every event."""

    def __init__(self) -> None:
        self.kinds: list[tuple[str, str]] = []

    def event(self, layer, kind, detail="", **attrs) -> None:
        self.kinds.append((layer, kind))


def _fields(point: CampaignPoint) -> list[str]:
    """Every field as its ``repr``: floats must match to the last bit."""
    return [repr(getattr(point, name)) for name in FIELDS]


@given(
    name=st.sampled_from(WORKLOADS),
    relax=st.sampled_from(RELAX_LEVELS),
    size=st.sampled_from(SIZES),
)
@settings(max_examples=20, deadline=None)
def test_a_hit_is_the_cold_supervised_point(name, relax, size):
    """The cold point comes out of supervision; every later request on
    either shard is a hit that equals it field by field and is one shared
    instance."""
    seed = next(_FRESH_SEEDS)
    shards = [build_shard(index, seed, TILE) for index in (0, 1)]
    cold_trace = Events()
    cold = shards[0].price(name, relax, size, cold_trace)
    assert ("supervisor", "success") in cold_trace.kinds
    assert ("campaign", "hit") not in cold_trace.kinds
    hits = []
    for shard in (*shards, *shards):
        trace = Events()
        hits.append(shard.price(name, relax, size, trace))
        assert trace.kinds == [("campaign", "hit")]
    assert (cold.status, cold.attempts, cold.effective_relax_bits) == (
        "ok", 1, relax,
    )
    assert _fields(hits[0]) == _fields(cold)
    assert all(hit is hits[0] for hit in hits)
    assert [shard.supervisor.attempts for shard in shards] == [1, 0]


def test_chaos_pool_never_records_a_hit():
    """A chaos injector, even one that injects nothing on a call, sends
    every repeat through supervision."""
    policy = ChaosPolicy(transient_rate=0.2, seed=11)
    with CrossbarPool(shards=2, tile_elements=TILE, runtime="inline",
                      chaos_policy=policy) as pool:
        client = Client(pool, tenant="chaos")
        results = [client.call("Robert", relax_bits=8) for _ in range(6)]
        kinds = [
            {(event.layer, event.kind)
             for event in pool.traces.get(result.trace_id).events}
            for result in results
        ]
    assert all(result.status != "failed" for result in results)
    assert all(("campaign", "hit") not in seen for seen in kinds)
    assert all(("supervisor", "attempt") in seen for seen in kinds)
