"""Bucket-aggregation kernel layer (dispatch, backends, workspace).

See docs/kernels.md for the backend matrix and arena lifetime rules.
"""

from repro.kernels.base import KernelBackend
from repro.kernels.csr import bucket_positions, bucket_starts, cached_arange
from repro.kernels.dispatch import (
    KERNEL_BACKENDS,
    get_kernel_backend,
    resolve_backend,
    set_kernel_backend,
    use_kernel_backend,
)
from repro.kernels.fused import FusedBackend
from repro.kernels.reference import ReferenceBackend
from repro.kernels.workspace import Workspace

__all__ = [
    "KERNEL_BACKENDS",
    "FusedBackend",
    "KernelBackend",
    "ReferenceBackend",
    "Workspace",
    "bucket_positions",
    "bucket_starts",
    "cached_arange",
    "get_kernel_backend",
    "resolve_backend",
    "set_kernel_backend",
    "use_kernel_backend",
]
