"""profile_many must be exactly equivalent to per-bucket profile()."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import generate_blocks_fast
from repro.core.estimator import BucketMemEstimator
from repro.core.splitting import split_explosion_bucket
from repro.gnn.bucketing import Bucket, bucketize_degrees, detect_explosion
from repro.gnn.footprint import ModelSpec
from repro.graph import from_edge_list, sample_batch

from .conftest import CUTOFF


@pytest.fixture()
def estimator_fresh(blocks, spec):
    return BucketMemEstimator(blocks, spec, clustering_coefficient=0.3)


class TestProfileMany:
    def test_matches_individual_profiles(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        explosion = detect_explosion(buckets, CUTOFF)
        if explosion is not None:
            buckets = [b for b in buckets if b is not explosion]
            buckets.extend(split_explosion_bucket(explosion, 4))

        batched = estimator_fresh.profile_many(buckets)

        reference = BucketMemEstimator(blocks, spec, 0.3)
        for bucket, profile in zip(buckets, batched):
            expected = reference.profile(bucket)
            assert profile.n_output == expected.n_output
            assert profile.degree == expected.degree
            assert profile.n_input == expected.n_input
            assert profile.layer_histograms == expected.layer_histograms

    def test_estimates_identical(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        estimator_fresh.profile_many(buckets)
        reference = BucketMemEstimator(blocks, spec, 0.3)
        for bucket in buckets:
            assert estimator_fresh.estimate(bucket) == pytest.approx(
                reference.estimate(bucket)
            )

    def test_cache_populated(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        estimator_fresh.profile_many(buckets)
        assert len(estimator_fresh._profile_cache) >= len(buckets)

    def test_idempotent(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        first = estimator_fresh.profile_many(buckets)
        second = estimator_fresh.profile_many(buckets)
        for a, b in zip(first, second):
            assert a is b  # cache hit returns the same object

    def test_single_bucket(self, blocks, spec, estimator_fresh):
        buckets = bucketize_degrees(blocks[-1].degrees, CUTOFF)
        [profile] = estimator_fresh.profile_many(buckets[:1])
        assert profile.n_output == buckets[0].volume


@settings(max_examples=40, deadline=None)
@given(
    n_nodes=st.integers(12, 80),
    n_edges=st.integers(0, 300),
    n_isolated=st.integers(1, 4),
    n_layers=st.integers(1, 3),
    fanout=st.integers(1, 6),
    n_split=st.integers(2, 5),
    seed=st.integers(0, 10_000),
)
def test_fused_key_walk_matches_profile(
    n_nodes, n_edges, n_isolated, n_layers, fanout, n_split, seed
):
    """The segmented walk equals per-bucket walks on awkward bucket sets:
    a degree-0 bucket, a bucket spanning every dst row, split
    micro-buckets, and buckets that share rows."""
    rng = np.random.default_rng(seed)
    # The last n_isolated nodes have no edges, so seeding them yields a
    # degree-0 bucket at the output layer.
    n_linked = n_nodes - n_isolated
    graph = from_edge_list(
        rng.integers(0, n_linked, n_edges),
        rng.integers(0, n_linked, n_edges),
        n_nodes,
        symmetrize=True,
    )
    seeds = np.concatenate(
        [
            rng.choice(n_linked, size=min(10, n_linked), replace=False),
            np.arange(n_linked, n_nodes),
        ]
    )
    batch = sample_batch(graph, seeds, [fanout] * n_layers, rng=seed)
    blocks = generate_blocks_fast(batch)
    spec = ModelSpec(8, 8, 3, n_layers, "mean")

    buckets = bucketize_degrees(blocks[-1].degrees, fanout)
    assert any(b.degree == 0 for b in buckets)
    widest = max(buckets, key=lambda b: b.volume)
    buckets += split_explosion_bucket(widest, n_split)
    buckets.append(Bucket(degree=fanout, rows=np.arange(blocks[-1].n_dst)))

    batched = BucketMemEstimator(blocks, spec, 0.3).profile_many(buckets)
    for bucket, profile in zip(buckets, batched):
        expected = BucketMemEstimator(blocks, spec, 0.3).profile(bucket)
        assert profile == expected
