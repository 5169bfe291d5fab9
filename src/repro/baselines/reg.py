"""Betty's redundancy-embedded graph (REG) construction.

Betty partitions at the batch level by first building a graph over the
*output nodes* whose edge weights encode shared dependencies: two output
nodes are connected with weight proportional to the number of sampled
input nodes they both depend on.  METIS on this graph then groups
redundant outputs together, minimizing duplicated loads across
micro-batches.

The construction is the expensive step the paper measures ("a few
minutes for a billion-scale graph"): it materializes every output node's
L-hop dependency set and inverts it.  We cap the number of pairs charged
per shared input (``pair_cap``) exactly as practical implementations do,
otherwise a hub input shared by ``t`` outputs contributes ``O(t^2)``
edges.

Betty's documented limitation is reproduced faithfully: output nodes
with zero in-edges break the construction
(:class:`~repro.errors.PartitioningError`), which is why Betty cannot
train OGBN-papers (Fig. 11).
"""

from __future__ import annotations

import numpy as np

from repro.arrays import unique_sorted
from repro.config import INDEX_DTYPE, rng_from
from repro.baselines.metis import WeightedGraph
from repro.errors import PartitioningError
from repro.gnn.block import Block


def dependency_sets(blocks: list[Block]) -> list[np.ndarray]:
    """Per output node, the positions of its input-layer dependencies.

    Walks the chained blocks from the output layer inward, one output
    node at a time (this serial per-node expansion is the realistic cost
    of REG construction).
    """
    n_out = blocks[-1].n_dst
    result: list[np.ndarray] = []
    for out_row in range(n_out):
        rows = np.array([out_row], dtype=INDEX_DTYPE)
        for block in reversed(blocks):
            collected = [rows]
            for r in rows:
                collected.append(block.neighbor_positions(int(r)))
            rows = unique_sorted(np.concatenate(collected))
        result.append(rows)
    return result


def build_reg(
    blocks: list[Block],
    *,
    pair_cap: int = 16,
    seed: int | np.random.Generator | None = None,
) -> WeightedGraph:
    """Build the redundancy-embedded graph over the batch's output nodes.

    Args:
        blocks: the batch's chained blocks.
        pair_cap: per shared input node, at most this many output pairs
            receive an edge (hub inputs are subsampled).
        seed: RNG for the pair subsampling.

    Raises:
        PartitioningError: when any output node has zero in-edges
            (Betty's documented limitation).
    """
    out_block = blocks[-1]
    degrees = out_block.degrees
    if np.any(degrees == 0):
        zero = int(np.flatnonzero(degrees == 0)[0])
        raise PartitioningError(
            "Betty cannot process nodes with zero in-edges "
            f"(output row {zero}); this breaks REG construction on "
            "datasets like OGBN-papers"
        )
    rng = rng_from(seed)

    deps = dependency_sets(blocks)
    n_out = out_block.n_dst

    # Invert: input position -> output nodes depending on it.
    inverted: dict[int, list[int]] = {}
    for out_row, dep in enumerate(deps):
        for pos in dep:
            inverted.setdefault(int(pos), []).append(out_row)

    weights: dict[tuple[int, int], float] = {}
    for outputs in inverted.values():
        t = len(outputs)
        if t < 2:
            continue
        if t * (t - 1) // 2 <= pair_cap:
            pairs = [
                (outputs[i], outputs[j])
                for i in range(t)
                for j in range(i + 1, t)
            ]
        else:
            chosen = rng.choice(t, size=(pair_cap, 2))
            pairs = [
                (outputs[int(a)], outputs[int(b)])
                for a, b in chosen
                if a != b
            ]
        for a, b in pairs:
            key = (a, b) if a < b else (b, a)
            weights[key] = weights.get(key, 0.0) + 1.0

    if weights:
        src = np.fromiter((k[0] for k in weights), dtype=INDEX_DTYPE)
        dst = np.fromiter((k[1] for k in weights), dtype=INDEX_DTYPE)
        w = np.fromiter(weights.values(), dtype=np.float64)
    else:
        src = dst = np.empty(0, dtype=INDEX_DTYPE)
        w = np.empty(0)

    node_weights = np.array([d.size for d in deps], dtype=np.float64)
    return WeightedGraph.from_edges(src, dst, w, n_out, node_weights)
