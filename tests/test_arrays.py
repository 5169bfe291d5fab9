"""``unique_sorted`` is a drop-in for ``np.unique`` on integer arrays."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.arrays import unique_sorted


def _assert_same(a):
    got = unique_sorted(a)
    expected = np.unique(a)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "values",
    [[], [7], [3, 3, 3, 3], [-5, 2, -5, 0, -1, 2], [2**31 - 1, -(2**31), 0]],
    ids=["empty", "singleton", "all-duplicate", "negative", "extremes"],
)
def test_edge_cases(values, dtype):
    _assert_same(np.asarray(values, dtype=dtype))


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(
        dtype=st.sampled_from([np.int32, np.int64]),
        shape=hnp.array_shapes(
            min_dims=1, max_dims=2, min_side=0, max_side=40
        ),
        elements=st.integers(-50, 50),
    )
)
def test_matches_np_unique(a):
    _assert_same(a)
