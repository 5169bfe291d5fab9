"""Array primitives shared by the host-side hot path.

Sampling, block generation, the scheduler's reachability walks and the
feature store all reduce id arrays to their distinct values many times
per iteration.  numpy 2.x's :func:`numpy.unique` hashes integer input
and then sorts the survivors, which is an order of magnitude slower
than one sort plus a neighbour comparison at the sizes seen here
(thousands to hundreds of thousands of ids).
"""

from __future__ import annotations

import numpy as np


def unique_sorted(a) -> np.ndarray:
    """Sorted distinct values of an integer array: ``np.unique(a)``.

    Same output as ``np.unique(a)`` (flattened, ascending, input dtype
    kept) for integer input, computed as one sort and a mask of the
    positions that differ from their left neighbour.  Use
    :func:`numpy.unique` when counts, indices or an inverse are needed.
    """
    flat = np.sort(np.asarray(a), axis=None)
    if flat.size < 2:
        return flat
    keep = np.empty(flat.size, dtype=bool)
    keep[0] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]
