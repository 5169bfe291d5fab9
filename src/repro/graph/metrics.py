"""Structural graph metrics used by Buffalo's memory model and datasets.

The average clustering coefficient ``C`` is the key input to the
redundancy-aware memory estimator (paper Eq. 1); the power-law fit backs
the dataset generators and the Fig. 1 / Table II reproductions.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import unique_sorted
from repro.config import INDEX_DTYPE, rng_from
from repro.errors import GraphError
from repro.graph.csr import CSRGraph


def degree_histogram(graph: CSRGraph) -> np.ndarray:
    """Return ``hist`` where ``hist[d]`` counts nodes of in-degree ``d``."""
    return np.bincount(graph.degrees)


def local_clustering(graph: CSRGraph, node: int) -> float:
    """Clustering coefficient of a single node.

    Fraction of pairs of neighbors that are themselves connected.  Treats
    the adjacency as undirected (an edge in either direction closes a
    triangle), matching the standard definition used for Table II.
    """
    nbrs = graph.neighbors(node)
    k = nbrs.size
    if k < 2:
        return 0.0
    nbr_set = set(int(x) for x in nbrs)
    links = 0
    for u in nbrs:
        row = graph.neighbors(int(u))
        # Count neighbors of u that are also neighbors of `node`.
        links += sum(1 for w in row if int(w) in nbr_set)
    return links / (k * (k - 1))


def average_clustering(
    graph: CSRGraph,
    *,
    sample: int | None = None,
    seed: int | None = None,
) -> float:
    """Average clustering coefficient of the graph.

    Args:
        graph: the graph (assumed symmetric for a meaningful result).
        sample: when given, estimate over a uniform node sample of this
            size instead of all nodes — the paper computes ``C`` offline,
            and a sampled estimate is standard for billion-scale graphs.
        seed: RNG seed for the sampled estimate.
    """
    n = graph.n_nodes
    if n == 0:
        raise GraphError("average_clustering of an empty graph is undefined")
    if sample is not None and sample < n:
        rng = rng_from(seed)
        nodes = rng.choice(n, size=sample, replace=False)
    else:
        nodes = np.arange(n)
    total = 0.0
    for node in nodes:
        total += local_clustering(graph, int(node))
    return total / len(nodes)


def fit_power_law(degrees: np.ndarray, *, d_min: int = 2) -> float:
    """Maximum-likelihood power-law exponent of a degree sequence.

    Uses the continuous MLE ``alpha = 1 + n / sum(ln(d / (d_min - 0.5)))``
    over degrees ``>= d_min`` (Clauset et al. 2009).  Returns ``inf`` when
    fewer than two usable degrees exist.
    """
    degrees = np.asarray(degrees, dtype=np.float64)
    tail = degrees[degrees >= d_min]
    if tail.size < 2:
        return float("inf")
    return float(1.0 + tail.size / np.sum(np.log(tail / (d_min - 0.5))))


def is_power_law(graph: CSRGraph, *, ratio_threshold: float = 4.0) -> bool:
    """Heuristic heavy-tail test matching Table II's ``Power Law`` column.

    A graph is flagged power-law when its maximum degree exceeds the
    median degree by ``ratio_threshold`` — i.e. the degree distribution
    has the long tail that causes bucket explosion.  Flat-degree graphs
    (lattices, small-world, complete graphs) have max/median close to 1;
    preferential-attachment graphs grow hubs whose degree dwarfs the
    median.  The ratio test (rather than an exponent fit over all
    degrees) stays robust for graphs whose bulk sits at a high degree
    with a power-law tail on top, such as community-overlay graphs.
    """
    degrees = graph.degrees
    if degrees.size == 0 or degrees.max() == 0:
        return False
    median = max(float(np.median(degrees)), 1.0)
    return degrees.max() / median >= ratio_threshold


def average_degree(graph: CSRGraph) -> float:
    """Mean in-degree."""
    if graph.n_nodes == 0:
        raise GraphError("average_degree of an empty graph is undefined")
    return graph.n_edges / graph.n_nodes


def connected_components(graph: CSRGraph) -> np.ndarray:
    """Component label per node (treating edges as undirected).

    Uses iterative frontier expansion with the vectorized row gather, so
    million-edge graphs label in milliseconds.  Labels are dense ints;
    label values follow the smallest node id in each component's
    discovery order.
    """
    from repro.graph.subgraph import gather_rows

    n = graph.n_nodes
    labels = np.full(n, -1, dtype=INDEX_DTYPE)
    reverse = graph.reverse()
    current = 0
    for start in range(n):
        if labels[start] >= 0:
            continue
        labels[start] = current
        frontier = np.array([start], dtype=INDEX_DTYPE)
        while frontier.size:
            _, fwd = gather_rows(graph, frontier)
            _, bwd = gather_rows(reverse, frontier)
            neighbors = unique_sorted(np.concatenate([fwd, bwd]))
            neighbors = neighbors[labels[neighbors] < 0]
            labels[neighbors] = current
            frontier = neighbors
        current += 1
    return labels


def n_connected_components(graph: CSRGraph) -> int:
    """Number of (weakly) connected components."""
    if graph.n_nodes == 0:
        return 0
    return int(connected_components(graph).max()) + 1


def degree_assortativity(graph: CSRGraph) -> float:
    """Pearson correlation of endpoint degrees over all edges.

    Positive values mean hubs attach to hubs (assortative mixing, Newman
    2002); preferential-attachment graphs are typically disassortative
    (negative).  Returns 0 for degree-regular graphs, where the
    correlation is undefined.
    """
    if graph.n_edges == 0:
        raise GraphError("assortativity of an edgeless graph is undefined")
    dst = np.repeat(
        np.arange(graph.n_nodes, dtype=np.int64), graph.degrees
    )
    src = graph.indices
    x = graph.degrees[src].astype(np.float64)
    y = graph.degrees[dst].astype(np.float64)
    x_std = x.std()
    y_std = y.std()
    if x_std == 0 or y_std == 0:
        return 0.0
    return float(((x - x.mean()) * (y - y.mean())).mean() / (x_std * y_std))
