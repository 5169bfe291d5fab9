"""Fused kernel backend: CSR segment-reduce without neighbor tensors.

The dense path pays ``n * d * f`` floats twice per bucket — once for the
gathered neighbor tensor, once for its gradient — and keeps the gather
alive in a backward closure until the micro-batch's ``backward()``
finishes.  This backend never materializes it:

* **sum / mean / weighted-sum / attention** — the bucket is one
  ``(n, n_src)`` CSR operator ``A`` (row ``i`` holds that destination's
  ``d`` neighbor columns); the reduction is ``A @ src`` and its input
  gradient is ``A^T @ grad``, both computed by ``scipy.sparse`` when
  available and by a vectorized per-column loop otherwise.
* **max** — a per-column running maximum with an int32 best-column
  tracker; backward scatters the output gradient to each column masked
  by ``best == j`` (exactly the dense argmax semantics, including
  first-occurrence tie-breaking).

The enabling trick is that ``A`` costs ~0.1 ms to *rebuild* from
``(block.indptr, block.indices, bucket.rows)``: backward closures
capture only ``(block, bucket, src, ...)`` — things the graph keeps
alive anyway — and every index/scratch array comes from the
:class:`~repro.kernels.workspace.Workspace` arena, reused across
buckets and micro-batches.  Peak live bytes drop by the two
``(n, d, f)`` arrays the reference backend retains; wall time drops
because the sparse matmul touches each source row once.

Tolerance note: CSR matmul sums a row's neighbors in index order while
the dense reduction sums pairwise, so fused forwards match reference
only to float32 round-off (~1e-6 relative; the differential suite pins
the exact bound).  The max *forward* is bit-for-bit (same compares,
same first-occurrence tie-breaking); its backward scatter-adds in
column order where the reference scatters row-major, so when a source
row is the argmax of several destinations the accumulated gradient
again matches only to round-off.

Hybrid dispatch: buckets below the dense/CSR crossover of work take
the dense reference path — CSR assembly is a fixed Python-side cost
that tiny low-degree buckets never amortize, and a power-law batch has
many of them.  The crossover is the fixed
:data:`DENSE_FALLBACK_ELEMENTS`; ``buffalo.kernel.dense_fallbacks``
counts dense routings plus the pool/LSTM neighbor tensors the fused
layer cannot express.  Every kernel runs serially on the calling
(compute) thread.
"""

from __future__ import annotations

import numpy as np

from repro.config import INDEX_DTYPE
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket
from repro.kernels.base import KernelBackend
from repro.kernels.csr import bucket_starts, cached_arange
from repro.kernels.reference import ReferenceBackend
from repro.tensor.tensor import Tensor

try:  # scipy is a declared dependency, but degrade gracefully without it
    import scipy.sparse as _sparse
except ImportError:  # pragma: no cover - exercised only without scipy
    _sparse = None

__all__ = ["FusedBackend"]

#: Below this many elements of bucket work (``n * d * f``) the dense
#: gather beats the CSR operator: assembling the sparse matrix costs a
#: fixed ~0.2 ms of Python/scipy overhead that small buckets never
#: amortize (measured float32 crossover ~20k elements; low-degree
#: buckets of a power-law batch sit well under it, the cut-off bucket
#: far above).
DENSE_FALLBACK_ELEMENTS = 16384


class FusedBackend(KernelBackend):
    """CSR segment-reduce with arena scratch and hand-written backward."""

    name = "fused"

    def __init__(
        self, *, dense_fallback_elements: int = DENSE_FALLBACK_ELEMENTS
    ) -> None:
        super().__init__()
        # Dense (n, d, f) materializations: pool/LSTM (which the fused
        # layer cannot help) plus small buckets below the hybrid
        # dispatch crossover.  The count makes the residual dense
        # traffic visible in metrics.
        self._dense_fallbacks = 0
        self._reduce_calls = 0
        # Tests force the CSR arm with 0.
        self.dense_fallback_elements = dense_fallback_elements

    def _prefers_dense(self, bucket: Bucket, src_feats: Tensor) -> bool:
        """Hybrid dispatch: route tiny buckets to the dense path."""
        work = bucket.n_edges * src_feats.shape[1]
        return work < self.dense_fallback_elements

    # ------------------------------------------------------------------
    # group lifetime / metrics
    # ------------------------------------------------------------------
    def end_group(self) -> None:
        from repro.obs.metrics import get_metrics

        metrics = get_metrics()
        if self._reduce_calls:
            metrics.counter(
                "buffalo.kernel.reduce_calls",
                help="fused segment-reduce primitive invocations",
            ).inc(self._reduce_calls)
            self._reduce_calls = 0
        if self._dense_fallbacks:
            metrics.counter(
                "buffalo.kernel.dense_fallbacks",
                help="dense (n, d, f) materializations "
                "(pool/LSTM and sub-crossover buckets)",
            ).inc(self._dense_fallbacks)
            self._dense_fallbacks = 0
        super().end_group()

    # ------------------------------------------------------------------
    # CSR operator plumbing
    # ------------------------------------------------------------------
    def _flat_positions(
        self, block: Block, bucket: Bucket, starts: np.ndarray
    ) -> np.ndarray:
        """Arena view of the bucket's ``n * d`` source positions."""
        n, d = bucket.volume, bucket.degree
        ws = self.workspace
        offsets = ws.request("fused.offsets", (n * d,), INDEX_DTYPE)
        np.add.outer(
            starts, cached_arange(d, INDEX_DTYPE), out=offsets.reshape(n, d)
        )
        # Separate buffer: np.take with out= aliasing its index array
        # is undefined behavior.
        flat = ws.request("fused.flat", (n * d,), INDEX_DTYPE)
        np.take(block.indices, offsets, out=flat)
        return flat

    def _operator(
        self,
        block: Block,
        bucket: Bucket,
        starts: np.ndarray,
        data: np.ndarray,
    ):
        """The bucket's ``(n, n_src)`` CSR aggregation operator."""
        n, d = bucket.volume, bucket.degree
        flat = self._flat_positions(block, bucket, starts)
        indptr = self.workspace.request(
            "fused.indptr", (n + 1,), INDEX_DTYPE
        )
        np.multiply(cached_arange(n + 1, INDEX_DTYPE), d, out=indptr)
        return _sparse.csr_matrix(
            (data, flat, indptr), shape=(n, block.n_src)
        )

    def _ones(self, count: int, dtype) -> np.ndarray:
        ones = self.workspace.request("fused.ones", (count,), dtype)
        ones.fill(1.0)
        return ones

    def _column(
        self,
        block: Block,
        starts: np.ndarray,
        j: int,
        out: np.ndarray,
    ) -> np.ndarray:
        """Source positions of neighbor column ``j`` (arena view)."""
        np.add(starts, j, out=out)
        np.take(block.indices, out, out=out)
        return out

    # ------------------------------------------------------------------
    # sum / mean
    # ------------------------------------------------------------------
    def bucket_reduce(
        self, block: Block, bucket: Bucket, src_feats: Tensor, op: str
    ) -> Tensor:
        self._check_op(op)
        self._reduce_calls += 1
        if self._prefers_dense(bucket, src_feats):
            return ReferenceBackend.bucket_reduce(
                self, block, bucket, src_feats, op
            )
        if op == "max":
            return self._reduce_max(block, bucket, src_feats)
        return self._reduce_linear(
            block, bucket, src_feats, scale=None, mean=(op == "mean")
        )

    def _reduce_linear(
        self,
        block: Block,
        bucket: Bucket,
        src_feats: Tensor,
        *,
        scale: np.ndarray | None,
        mean: bool = False,
        alpha: Tensor | None = None,
    ) -> Tensor:
        """Shared core of sum/mean/weighted-sum/attention.

        ``scale`` is a constant per-edge weight (GCN), ``alpha`` a
        learned one (GAT); both absent means plain sum (optionally
        divided by ``d`` for mean).
        """
        n, d = bucket.volume, bucket.degree
        starts = bucket_starts(block, bucket)
        src = src_feats.data
        inv_d = 1.0 / d if mean else None

        if alpha is not None:
            weights = np.ascontiguousarray(alpha.data).ravel()
        elif scale is not None:
            weights = np.ascontiguousarray(scale).ravel()
        else:
            weights = None

        if _sparse is not None:
            data = (
                weights
                if weights is not None
                else self._ones(n * d, src.dtype)
            )
            operator = self._operator(block, bucket, starts, data)
            out = operator @ src
        else:
            out = self._columnwise_weighted_sum(
                block, bucket, starts, src, weights
            )
        if inv_d is not None:
            out *= inv_d

        def backward_fn(grad: np.ndarray) -> None:
            g = grad
            if inv_d is not None:
                scaled = self.workspace.request(
                    "fused.grad_scaled", grad.shape, grad.dtype
                )
                np.multiply(grad, inv_d, out=scaled)
                g = scaled
            if src_feats.requires_grad:
                if alpha is not None:
                    w = np.ascontiguousarray(alpha.data).ravel()
                elif scale is not None:
                    w = np.ascontiguousarray(scale).ravel()
                else:
                    w = None
                src_feats._accumulate(
                    self._input_gradient(block, bucket, g, w, src)
                )
            if alpha is not None and alpha.requires_grad:
                alpha._accumulate(
                    self._weight_gradient(block, bucket, g, src)
                )

        parents = (src_feats,) if alpha is None else (src_feats, alpha)
        return Tensor._make(out, parents, backward_fn)

    def _columnwise_weighted_sum(
        self,
        block: Block,
        bucket: Bucket,
        starts: np.ndarray,
        src: np.ndarray,
        weights: np.ndarray | None,
    ) -> np.ndarray:
        """No-scipy fallback: accumulate one neighbor column at a time."""
        n, d = bucket.volume, bucket.degree
        f = src.shape[1]
        ws = self.workspace
        col = ws.request("fused.col", (n,), INDEX_DTYPE)
        scratch = ws.request("fused.gather", (n, f), src.dtype)
        w2d = None if weights is None else weights.reshape(n, d)
        # The reduction output is autograd-visible (it becomes
        # Tensor.data), so it is an owned allocation, never arena
        # scratch.
        out = np.zeros((n, f), dtype=src.dtype)  # repro: noqa[hot-alloc] owned Tensor.data
        for j in range(d):
            self._column(block, starts, j, col)
            np.take(src, col, axis=0, out=scratch)
            if w2d is not None:
                scratch *= w2d[:, j : j + 1]
            out += scratch
        return out

    def _input_gradient(
        self,
        block: Block,
        bucket: Bucket,
        grad: np.ndarray,
        weights: np.ndarray | None,
        src: np.ndarray,
    ) -> np.ndarray:
        """``A^T @ grad`` — scatter the output grad back to source rows.

        Returns arena scratch (or a transient scipy product); callers
        hand it straight to ``Tensor._accumulate``, which copies.
        """
        n, d = bucket.volume, bucket.degree
        starts = bucket_starts(block, bucket)
        if _sparse is not None:
            data = (
                weights
                if weights is not None
                else self._ones(n * d, grad.dtype)
            )
            operator = self._operator(block, bucket, starts, data)
            return operator.T @ grad
        ws = self.workspace
        gsrc = ws.request("fused.grad_src", src.shape, grad.dtype)
        gsrc.fill(0.0)
        col = ws.request("fused.col", (n,), INDEX_DTYPE)
        scratch = ws.request("fused.gather", grad.shape, grad.dtype)
        w2d = None if weights is None else weights.reshape(n, d)
        for j in range(d):
            self._column(block, starts, j, col)
            piece = grad
            if w2d is not None:
                np.multiply(grad, w2d[:, j : j + 1], out=scratch)
                piece = scratch
            np.add.at(gsrc, col, piece)
        return gsrc

    def _weight_gradient(
        self,
        block: Block,
        bucket: Bucket,
        grad: np.ndarray,
        src: np.ndarray,
    ) -> np.ndarray:
        """``d(out)/d(alpha)``: per-edge dot of grad with its source row."""
        n, d = bucket.volume, bucket.degree
        starts = bucket_starts(block, bucket)
        ws = self.workspace
        galpha = ws.request("fused.grad_alpha", (n, d), grad.dtype)
        col = ws.request("fused.col", (n,), INDEX_DTYPE)
        scratch = ws.request("fused.gather", grad.shape, grad.dtype)
        for j in range(d):
            self._column(block, starts, j, col)
            np.take(src, col, axis=0, out=scratch)
            np.einsum("nf,nf->n", grad, scratch, out=galpha[:, j])
        return galpha

    # ------------------------------------------------------------------
    # max
    # ------------------------------------------------------------------
    def _reduce_max(
        self, block: Block, bucket: Bucket, src_feats: Tensor
    ) -> Tensor:
        n, d = bucket.volume, bucket.degree
        starts = bucket_starts(block, bucket)
        src = src_feats.data
        f = src.shape[1]
        ws = self.workspace
        col = ws.request("fused.col", (n,), INDEX_DTYPE)
        scratch = ws.request("fused.gather", (n, f), src.dtype)
        # Owned allocations: `out` becomes Tensor.data and `best` is
        # captured by the backward closure until backward() runs.
        out = np.empty((n, f), dtype=src.dtype)  # repro: noqa[hot-alloc] owned Tensor.data
        best = (
            np.zeros((n, f), dtype=np.int32)  # repro: noqa[hot-alloc] retained by backward closure
            if src_feats.requires_grad
            else None
        )
        mask = (
            ws.request("fused.mask", (n, f), np.bool_)
            if best is not None
            else None
        )
        for j in range(d):
            self._column(block, starts, j, col)
            if j == 0:
                np.take(src, col, axis=0, out=out)
                continue
            np.take(src, col, axis=0, out=scratch)
            if best is not None:
                # Strictly-greater keeps the first occurrence on ties —
                # the same winner np.argmax picks on the dense tensor.
                np.greater(scratch, out, out=mask)
                best[mask] = j
            np.maximum(out, scratch, out=out)

        def backward_fn(grad: np.ndarray) -> None:
            gsrc = ws.request("fused.grad_src", src.shape, grad.dtype)
            gsrc.fill(0.0)
            bcol = ws.request("fused.col", (n,), INDEX_DTYPE)
            bmask = ws.request("fused.mask", (n, f), np.bool_)
            piece = ws.request("fused.gather", (n, f), grad.dtype)
            for j in range(d):
                self._column(block, starts, j, bcol)
                np.equal(best, j, out=bmask)
                np.multiply(grad, bmask, out=piece)
                np.add.at(gsrc, bcol, piece)
            src_feats._accumulate(gsrc)

        return Tensor._make(out, (src_feats,), backward_fn)

    # ------------------------------------------------------------------
    # weighted / attention sums
    # ------------------------------------------------------------------
    def bucket_weighted_sum(
        self,
        block: Block,
        bucket: Bucket,
        src_feats: Tensor,
        coeff: np.ndarray,
    ) -> Tensor:
        self._reduce_calls += 1
        if self._prefers_dense(bucket, src_feats):
            return ReferenceBackend.bucket_weighted_sum(
                self, block, bucket, src_feats, coeff
            )
        return self._reduce_linear(block, bucket, src_feats, scale=coeff)

    def bucket_attention_sum(
        self,
        block: Block,
        bucket: Bucket,
        src_feats: Tensor,
        alpha: Tensor,
    ) -> Tensor:
        self._reduce_calls += 1
        if self._prefers_dense(bucket, src_feats):
            return ReferenceBackend.bucket_attention_sum(
                self, block, bucket, src_feats, alpha
            )
        return self._reduce_linear(
            block, bucket, src_feats, scale=None, alpha=alpha
        )

    # ------------------------------------------------------------------
    # dense fallback
    # ------------------------------------------------------------------
    def neighbor_tensor(
        self, block: Block, bucket: Bucket, src_feats: Tensor
    ) -> Tensor:
        self._dense_fallbacks += 1
        return ReferenceBackend.neighbor_tensor(
            self, block, bucket, src_feats
        )
