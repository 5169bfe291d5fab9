"""Shared CSR/bucket index helpers for kernel backends.

The per-bucket index arithmetic — row starts, the ``(n, d)`` neighbor
position matrix, the ``arange(d)`` column offsets — used to be redone
from scratch on every aggregator forward (satellite of the kernel-layer
issue).  This module hoists it:

* :func:`cached_arange` memoizes the read-only column-offset vector per
  ``(length, dtype)``; a model revisits the same handful of degrees on
  every micro-batch of every epoch.
* :func:`bucket_starts` validates a bucket's row degrees against a
  block **once** (the result is remembered per ``(bucket, block)``
  pair via a weak set) instead of on every forward.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import unique_sorted
from repro.errors import GraphError
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket

__all__ = [
    "cached_arange",
    "bucket_starts",
    "bucket_positions",
]

#: (length, dtype-str) -> read-only arange.  A model touches O(cutoff)
#: distinct degrees, so this stays tiny; entries are marked immutable
#: because they are shared across every bucket of that degree.
_ARANGE_CACHE: dict[tuple[int, str], np.ndarray] = {}


def cached_arange(length: int, dtype) -> np.ndarray:
    """A read-only ``np.arange(length, dtype=dtype)``, memoized."""
    dtype = np.dtype(dtype)
    key = (int(length), dtype.str)
    arange = _ARANGE_CACHE.get(key)
    if arange is None:
        arange = np.arange(length, dtype=dtype)
        arange.setflags(write=False)
        _ARANGE_CACHE[key] = arange
    return arange


def bucket_starts(block: Block, bucket: Bucket) -> np.ndarray:
    """Row-start offsets ``block.indptr[bucket.rows]``, validated once.

    The degree check (every row of a degree-``d`` bucket must span
    exactly ``d`` CSR entries) runs the first time a ``(bucket, block)``
    pair is seen and is skipped afterwards — bucketization is upstream
    of training, so a bucket that validated once stays valid.
    """
    starts = block.indptr[bucket.rows]
    if not bucket.validated_for(block):
        row_degrees = block.indptr[bucket.rows + 1] - starts
        if np.any(row_degrees != bucket.degree):
            raise GraphError(
                f"bucket labeled degree {bucket.degree} contains rows of "
                f"degrees {unique_sorted(row_degrees)}"
            )
        bucket.mark_validated(block)
    return starts


def bucket_positions(block: Block, bucket: Bucket) -> np.ndarray:
    """The ``(n, d)`` matrix of source positions for a bucket's rows.

    ``positions[i, j]`` indexes ``block.src_nodes`` (and therefore the
    layer's source-feature rows) for neighbor ``j`` of bucket row ``i``.
    Freshly allocated — kernel backends that only need one column at a
    time use :func:`bucket_starts` plus arena scratch instead.
    """
    starts = bucket_starts(block, bucket)
    offsets = cached_arange(bucket.degree, starts.dtype)
    return block.indices[starts[:, None] + offsets]
