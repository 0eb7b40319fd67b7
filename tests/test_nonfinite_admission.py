"""Non-finite numbers are refused at the `/submit` handler.

``NaN`` fails every comparison, so a check such as ``deadline_s <= 0``
lets it through, and ``int()`` of an infinity raises ``OverflowError``
rather than ``ValueError``.  Each numeric admission field is given NaN,
+Infinity and -Infinity as a decoded body would carry them; every
refusal is a 400 that mints no id and writes no journal line.  The HTTP
reader refuses the ``NaN``/``Infinity`` tokens before any handler runs
(``tests/test_http_reader.py``), and ``pool.submit`` refuses the values
with ``ServingError`` (``tests/test_serving_pool.py::TestAdmissionLadder``).
"""

from __future__ import annotations

import math
import os

import pytest

from repro.serving import CrossbarPool
from repro.serving.frontend import build_routes

FIELDS = ("dataset_bytes", "relax_bits", "priority", "deadline_s")
VALUES = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


@pytest.fixture
def pool(tmp_path):
    with CrossbarPool(
        shards=1, tile_elements=1 << 9, runtime="inline",
        journal=str(tmp_path / "requests.jsonl"),
    ) as running:
        yield running


def _refused_cleanly(pool, refuse) -> None:
    """Run ``refuse``; then the journal must be as it was and the next
    accepted request must get the pool's first id."""
    journal = pool.journal.path
    size = os.path.getsize(journal)
    refuse()
    assert os.path.getsize(journal) == size
    assert pool.submit("Robert") == "default-00000000"


@pytest.mark.parametrize("token", sorted(VALUES))
@pytest.mark.parametrize("field", FIELDS)
def test_handler_answers_400(pool, field, token):
    handler = build_routes(pool)[0][2]

    def refuse():
        reply = handler(None, {"workload": "Robert", field: VALUES[token]})
        assert reply[0] == 400, reply

    _refused_cleanly(pool, refuse)
