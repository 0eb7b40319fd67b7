"""Tests for the in-memory similarity-search subsystem (repro.search)
and its serving integration (`/search`).

The load-bearing claims: bit-packing round-trips exactly, the MAGIC NOR
kernel computes the same distances as integer XOR, top-k at relax 0 is
bit-identical to a numpy brute force, quantized tiers degrade recall
monotonically with stable tie-breaks, and a `/search` request rides the
full serving lifecycle (journal, idempotency, trace, replay).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import SearchError, ServingError
from repro.search import (
    WORD_BITS,
    BinaryCodebook,
    MagicHammingKernel,
    SearchIndex,
    build_planted_index,
    default_search_index,
    distance_shift,
    pack_bits,
    popcount,
    recall_at_k,
)
from repro.serving.frontend import build_server
from repro.serving.pool import SEARCH_WORKLOAD, Client, CrossbarPool

TILE = 1 << 9


class TestCodebook:
    def test_pack_round_trips_exactly(self):
        rng = np.random.default_rng(1)
        bits = rng.integers(0, 2, (13, 100), dtype=np.uint8)
        book = BinaryCodebook.from_bits(bits)
        unpacked = np.unpackbits(
            book.words.view(np.uint8), axis=1
        )[:, : book.dim]
        assert np.array_equal(unpacked, bits)

    def test_distances_match_unpacked_reference(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2, (64, 130), dtype=np.uint8)
        book = BinaryCodebook.from_bits(bits)
        query = rng.integers(0, 2, 130, dtype=np.uint8)
        assert np.array_equal(
            book.distances(query), book.reference_distances(query)
        )

    def test_popcount_lookup_table(self):
        words = np.array([0, 1, 0xFF, (1 << 64) - 1], dtype=np.uint64)
        assert popcount(words).tolist() == [0, 1, 8, 64]

    def test_pack_rejects_bad_inputs(self):
        with pytest.raises(SearchError):
            pack_bits(np.zeros((2, 0), dtype=np.uint8))  # zero dim
        with pytest.raises(SearchError):
            pack_bits(np.full((2, 8), 2, dtype=np.uint8))  # not 0/1
        # A 1-D vector is promoted to one row, not rejected.
        assert pack_bits(np.ones(8, dtype=np.uint8)).shape == (1, 1)

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_pack_rejects_values_other_than_0_and_1(self, value):
        bits = np.zeros(256, dtype=type(value))
        bits[7] = value
        with pytest.raises(SearchError):
            pack_bits(bits)
        with pytest.raises(SearchError):
            pack_bits(bits.tolist())  # as a /search query arrives

    def test_pack_accepts_bool_vectors(self):
        bits = np.random.default_rng(3).integers(0, 2, (3, 70))
        assert np.array_equal(pack_bits(bits.astype(bool)), pack_bits(bits))

    def test_pack_query_validates_dim(self):
        book = BinaryCodebook.from_bits(
            np.zeros((4, 32), dtype=np.uint8)
        )
        with pytest.raises(SearchError):
            book.pack_query(np.zeros(31, dtype=np.uint8))


class TestMagicKernel:
    def test_self_test_passes(self):
        MagicHammingKernel(word_bits=16).self_test(
            np.random.default_rng(3)
        )
        MagicHammingKernel().self_test(np.random.default_rng(4), trials=4)

    def test_distance_is_integer_xor_popcount(self):
        kernel = MagicHammingKernel(word_bits=8)
        assert kernel.distance(0b1010_1010, 0b0101_0101) == 8
        assert kernel.distance(0xFF, 0xFF) == 0

    def test_word_cost_shape(self):
        # 1 bulk INIT + 5 NORs/bit + the log-depth popcount TICK: the
        # price every Similarity comparison is charged.
        cost = MagicHammingKernel(word_bits=16).measure_word_cost()
        assert cost.nor_ops == 5 * 16
        assert cost.cycles > cost.nor_ops  # INIT + TICK on top

    def test_rejects_out_of_range(self):
        with pytest.raises(SearchError):
            MagicHammingKernel(word_bits=0)
        with pytest.raises(SearchError):
            MagicHammingKernel(word_bits=WORD_BITS + 1)
        with pytest.raises(SearchError):
            MagicHammingKernel(word_bits=8).distance(256, 0)


class TestSearchIndex:
    @pytest.fixture(scope="class")
    def planted(self):
        return build_planted_index(entries=128, dim=64, queries=4, seed=9)

    def test_exact_top_k_matches_brute_force(self, planted):
        index, queries, _ = planted
        for i in range(queries.shape[0]):
            top = index.top_k(queries[i], 10, relax_bits=0)
            distances = index.codebook.distances(queries[i])
            order = np.argsort(distances, kind="stable")[:10]
            assert list(top.ids) == [int(j) for j in order]
            assert list(top.distances) == [int(distances[j]) for j in order]

    def test_planted_neighbour_found_exact(self, planted):
        index, queries, ids = planted
        for i in range(queries.shape[0]):
            top = index.top_k(queries[i], 1, relax_bits=0)
            assert top.ids[0] == ids[i]

    def test_recall_monotone_down_the_ladder(self, planted):
        index, queries, _ = planted
        exact = index.top_k(queries[0], 10, relax_bits=0)
        recalls = []
        for level in (0, 8, 16, 32):
            approx = index.top_k(queries[0], 10, relax_bits=level)
            recalls.append(
                recall_at_k(np.array(exact.ids), np.array(approx.ids))
            )
        assert recalls[0] == 1.0
        assert all(a >= b - 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_distance_shift_ladder(self):
        assert [distance_shift(m) for m in (0, 3, 4, 8, 32)] == [
            0, 0, 1, 2, 8,
        ]
        with pytest.raises(SearchError):
            distance_shift(-1)

    def test_validate_k_bounds(self, planted):
        index, _, _ = planted
        with pytest.raises(SearchError):
            index.validate_k(0)
        with pytest.raises(SearchError):
            index.validate_k(index.entries + 1)

    def test_ties_break_to_lower_id(self):
        # Three identical codewords: equal distances must rank by index.
        bits = np.zeros((3, 16), dtype=np.uint8)
        index = SearchIndex(BinaryCodebook.from_bits(bits))
        top = index.top_k(np.ones(16, dtype=np.uint8), 3, relax_bits=16)
        assert top.ids == (0, 1, 2)

    def test_recall_at_k_validates(self):
        with pytest.raises(SearchError):
            recall_at_k(np.array([]), np.array([1]))

    def test_default_index_deterministic_in_seed(self):
        a = default_search_index(seed=7)
        b = default_search_index(seed=7)
        c = default_search_index(seed=8)
        assert np.array_equal(a.codebook.words, b.codebook.words)
        assert not np.array_equal(a.codebook.words, c.codebook.words)


class TestServedSearch:
    def test_search_round_trip_exact(self):
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline"
        ) as pool:
            client = Client(pool)
            index = default_search_index(seed=pool.seed)
            query = np.random.default_rng(5).integers(
                0, 2, index.dim, dtype=np.uint8
            )
            result = client.search(query, k=10, relax_bits=0)
            assert result.status == "ok"
            assert result.workload == SEARCH_WORKLOAD
            top = index.top_k(query, 10, relax_bits=0)
            assert tuple(result.search["ids"]) == top.ids
            assert tuple(result.search["distances"]) == top.distances
            assert result.search["shift"] == 0

    def test_search_quantized_tier_reports_shift_and_recall(self):
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline"
        ) as pool:
            client = Client(pool)
            query = np.random.default_rng(6).integers(
                0, 2, pool.search_index().dim, dtype=np.uint8
            )
            result = client.search(query, k=10, relax_bits=8)
            assert result.search["shift"] == 2
            assert 0.0 <= result.search["recall_vs_exact"] <= 1.0

    def test_search_idempotency_contract(self):
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline"
        ) as pool:
            query = np.random.default_rng(7).integers(
                0, 2, pool.search_index().dim, dtype=np.uint8
            )
            first, dup1 = pool.admit_search(
                query, k=5, idempotency_key="key"
            )
            again, dup2 = pool.admit_search(
                query, k=5, idempotency_key="key"
            )
            assert first == again and not dup1 and dup2
            from repro.errors import DuplicateRequestError

            with pytest.raises(DuplicateRequestError):
                pool.admit_search(query, k=6, idempotency_key="key")

    def test_search_rejects_bad_inputs_at_the_door(self):
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline"
        ) as pool:
            dim = pool.search_index().dim
            good = np.zeros(dim, dtype=np.uint8)
            with pytest.raises(SearchError):
                pool.admit_search(np.zeros(dim - 1, dtype=np.uint8))
            with pytest.raises(SearchError):
                pool.admit_search(np.full(dim, 2, dtype=np.uint8))
            with pytest.raises(SearchError):
                pool.admit_search(good, k=0)
            with pytest.raises(ServingError):
                pool.admit_search(good, relax_bits=-1)

    def test_unknown_workload_400_enumerates_registry(self):
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline"
        ) as pool:
            with pytest.raises(ServingError) as info:
                pool.admit("NoSuchWorkload")
            message = str(info.value)
            for name in ("Sobel", "Similarity", "QuantizedLayer"):
                assert name in message

    def test_search_replays_bit_identically_after_restart(self, tmp_path):
        journal = str(tmp_path / "requests.jsonl")
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline", journal=journal
        ) as pool:
            query = np.random.default_rng(8).integers(
                0, 2, pool.search_index().dim, dtype=np.uint8
            )
            request_id, _ = pool.admit_search(query, k=7, relax_bits=4)
            first = pool.result(request_id, timeout=30)
        # Strip the terminal record: the SIGKILL-between-dispatch-and-
        # completion case the journal exists for.
        from repro.runtime.recordlog import RecordLog, load_records

        records, _ = load_records(journal)
        kept = [r for r in records if r.get("type") != "completed"]
        (tmp_path / "requests.jsonl").unlink()
        log = RecordLog(journal, resume=True, error_cls=ServingError)
        for record in kept:
            log.append(record)
        log.close()
        with CrossbarPool(
            shards=1, tile_elements=TILE, runtime="inline", journal=journal
        ) as pool:
            assert pool.recovery["replayed"] == 1
            second = pool.result(request_id, timeout=30)
            assert second.search["ids"] == first.search["ids"]
            assert second.search["distances"] == first.search["distances"]


def _http_json(url: str, payload: dict | None = None):
    if payload is None:
        request = urllib.request.Request(url)
    else:
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


class TestSearchEndpoint:
    def test_post_search_over_http(self):
        pool = CrossbarPool(shards=1, tile_elements=TILE, runtime="inline")
        server = build_server(pool)
        with pool, server:
            base = server.url
            index = default_search_index(seed=pool.seed)
            query = np.random.default_rng(11).integers(
                0, 2, index.dim
            ).tolist()
            status, reply = _http_json(
                f"{base}/search", {"query": query, "k": 5}
            )
            assert status == 202 and "id" in reply
            for _ in range(200):
                status, result = _http_json(
                    f"{base}/result/{reply['id']}"
                )
                if status == 200:
                    break
                time.sleep(0.02)
            assert status == 200
            # The exact tier equals a plain numpy brute force: exact
            # Hamming distances, stable argsort.
            distances = index.codebook.distances(np.asarray(query))
            order = np.argsort(distances, kind="stable")[:5]
            served = result["search"]
            top = index.top_k(np.asarray(query), 5, relax_bits=0)
            assert tuple(served["ids"]) == top.ids
            assert served["ids"] == [int(i) for i in order]
            assert served["distances"] == [int(d) for d in distances[order]]
            assert served["shift"] == 0
            status, timeline = _http_json(
                f"{base}/trace/{result['id']}"
            )
            assert status == 200
            kinds = {(e["layer"], e["kind"]) for e in timeline["events"]}
            assert ("executor", "search") in kinds
            # Client mistakes are self-correcting 400s.
            status, _ = _http_json(f"{base}/search", {"query": [0, 1, 2]})
            assert status == 400
            status, _ = _http_json(f"{base}/search", {"query": query, "k": 0})
            assert status == 400
            status, _ = _http_json(
                f"{base}/search", {"query": query, "bogus": 1}
            )
            assert status == 400
            status, body = _http_json(
                f"{base}/submit", {"workload": "nope"}
            )
            assert status == 400
            assert "Similarity" in body["error"]
