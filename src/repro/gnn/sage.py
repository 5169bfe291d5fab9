"""GraphSAGE with bucketed message passing (Hamilton et al. 2017)."""

from __future__ import annotations

import numpy as np

from repro.arrays import unique_sorted
from repro.errors import GraphError
from repro.gnn.aggregators import make_aggregator
from repro.gnn.block import Block
from repro.gnn.bucketing import Bucket, bucketize_degrees
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.tensor.ops import concat, gather_rows
from repro.tensor.tensor import Tensor


def apply_bucketed(
    aggregator,
    block: Block,
    buckets: list[Bucket],
    src_feats: Tensor,
) -> Tensor:
    """Run ``aggregator`` over each bucket and reassemble dst-row order.

    Returns the ``(n_dst, agg_dim)`` aggregated-neighbor tensor.  Bucket
    outputs are concatenated then permuted back so row ``i`` corresponds
    to ``block.dst_nodes[i]`` regardless of bucket order — this is what
    makes bucket splitting/grouping transparent to the model.
    """
    covered = np.concatenate([b.rows for b in buckets])
    if (
        covered.size != block.n_dst
        or unique_sorted(covered).size != block.n_dst
    ):
        raise GraphError(
            "buckets must partition the block's destination rows"
        )
    outputs = [aggregator(block, b, src_feats) for b in buckets]
    stacked = outputs[0] if len(outputs) == 1 else concat(outputs, axis=0)
    inverse = np.empty(block.n_dst, dtype=covered.dtype)
    inverse[covered] = np.arange(block.n_dst, dtype=covered.dtype)
    return gather_rows(stacked, inverse)


class SAGELayer(Module):
    """One GraphSAGE layer: ``h' = act(W_self h + W_neigh agg(N(h)))``.

    Args:
        in_dim: input feature width.
        out_dim: output width.
        aggregator: registry name ("mean", "sum", "max", "pool", "lstm").
        agg_hidden: hidden width for pool/LSTM aggregators (defaults to
            ``out_dim``, matching the paper's "hidden size").
        activation: apply ReLU (disabled on the output layer).
        rng: initializer seed.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        aggregator: str = "mean",
        *,
        agg_hidden: int | None = None,
        activation: bool = True,
        rng=None,
    ) -> None:
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        agg_hidden = out_dim if agg_hidden is None else agg_hidden
        self.aggregator = make_aggregator(
            aggregator, in_dim, agg_hidden, rng=rng
        )
        agg_out = self.aggregator.output_dim(in_dim)
        self.w_self = Linear(in_dim, out_dim, rng=rng)
        self.w_neigh = Linear(agg_out, out_dim, bias=False, rng=rng)

    def forward(
        self,
        block: Block,
        src_feats: Tensor,
        cutoff: int,
        buckets: list[Bucket] | None = None,
    ) -> Tensor:
        """Compute dst features ``(n_dst, out_dim)`` from src features."""
        if src_feats.shape[0] != block.n_src:
            raise GraphError(
                f"src_feats rows ({src_feats.shape[0]}) must match "
                f"block.n_src ({block.n_src})"
            )
        if buckets is None:
            buckets = bucketize_degrees(block.degrees, cutoff)
        aggregated = apply_bucketed(
            self.aggregator, block, buckets, src_feats
        )
        h_dst = src_feats[: block.n_dst]
        out = self.w_self(h_dst) + self.w_neigh(aggregated)
        return out.relu() if self.activation else out


class GraphSAGE(Module):
    """Multi-layer GraphSAGE over a chained block list.

    Args:
        in_dim: input feature width.
        hidden_dim: hidden width (also the aggregator hidden size).
        n_classes: output logits width.
        n_layers: aggregation depth ``L``.
        aggregator: aggregator registry name, shared by all layers.
        dropout: feature dropout applied before every layer but the
            first (0 disables; active only in training mode).
        rng: initializer seed.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        n_classes: int,
        n_layers: int = 2,
        aggregator: str = "mean",
        *,
        dropout: float = 0.0,
        rng=None,
    ) -> None:
        if n_layers < 1:
            raise GraphError(f"n_layers must be >= 1, got {n_layers}")
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.n_classes = n_classes
        self.n_layers = n_layers
        self.aggregator_name = aggregator
        dims = [in_dim] + [hidden_dim] * (n_layers - 1) + [n_classes]
        self.layers = [
            SAGELayer(
                dims[i],
                dims[i + 1],
                aggregator,
                agg_hidden=hidden_dim,
                activation=(i < n_layers - 1),
                rng=None if rng is None else rng + i,
            )
            for i in range(n_layers)
        ]
        self.dropout = (
            Dropout(dropout, seed=0 if rng is None else rng)
            if dropout > 0
            else None
        )

    def forward(
        self,
        blocks: list[Block],
        input_feats: Tensor,
        cutoffs: list[int],
        buckets_per_layer: list[list[Bucket]] | None = None,
    ) -> Tensor:
        """Logits for the output nodes of ``blocks[-1]``.

        Args:
            blocks: chained blocks, input-most first.
            input_feats: features of ``blocks[0].src_nodes``.
            cutoffs: bucketing cut-off per block (aligned with blocks).
            buckets_per_layer: optional externally scheduled buckets
                (Buffalo supplies split/grouped buckets for the output
                layer).
        """
        if len(blocks) != self.n_layers:
            raise GraphError(
                f"model has {self.n_layers} layers but got "
                f"{len(blocks)} blocks"
            )
        h = input_feats
        for i, (block, layer) in enumerate(zip(blocks, self.layers)):
            if i > 0 and self.dropout is not None:
                h = self.dropout(h)
            buckets = (
                buckets_per_layer[i] if buckets_per_layer is not None else None
            )
            h = layer(block, h, cutoffs[i], buckets)
        return h
