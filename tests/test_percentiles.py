"""The image generator's percentile helper against ``np.percentile``.

``synthetic_image`` scales its pixels between the 1st and 99th
percentiles.  It takes them from :func:`repro.workloads.images.percentiles`
rather than ``np.percentile``, which imports ``numpy.ma``; the two must
agree bit for bit, or every image workload's input (and every pinned
golden) would move.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.workloads.images import percentiles

arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=12),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)
quantiles = st.lists(
    st.one_of(st.integers(0, 100), st.floats(0, 100)), min_size=1, max_size=5
)


@given(values=arrays, q=quantiles)
@example(values=np.array([0.0, -0.0, 1.5, -0.0]), q=[1, 99])  # the image call
@settings(max_examples=400, deadline=None)
def test_equals_np_percentile_bit_for_bit(values, q):
    kept = values.copy()
    assert percentiles(values, q).tobytes() == np.percentile(values, q).tobytes()
    assert np.array_equal(values, kept)  # the input is not reordered
