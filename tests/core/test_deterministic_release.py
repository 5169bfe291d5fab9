"""Activations are freed by refcount, without the cyclic collector.

The trainer drops each micro-batch's autograd graph with a plain ``del``
and never calls ``gc.collect()``.  That is only correct while the graph
is acyclic — no backward closure may capture its own output tensor — so
these tests train K>1 micro-batches with the collector disabled and
check that every micro-batch returns the device ledger to where it
started, that nothing cyclic is left for the collector, and that the
losses match a run with the collector on bit for bit.
"""

import gc

import pytest

from repro.core import BuffaloTrainer
from repro.datasets import load
from repro.device import SimulatedGPU
from repro.gnn.footprint import ModelSpec
from repro.tensor.tensor import Tensor


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


def _trainer(dataset, backend):
    spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")
    device = SimulatedGPU(capacity_bytes=10**12)
    # A tight constraint forces many micro-batches per iteration.
    return BuffaloTrainer(
        dataset, spec, device, fanouts=[5, 5], seed=0,
        memory_constraint=1.5e5, kernel_backend=backend,
    )


def _train(dataset, backend):
    """Two iterations; returns (losses, Ks, per-micro-batch live bytes
    before/after, Tensors only the collector could free)."""
    trainer = _trainer(dataset, backend)
    device = trainer.device
    inner = trainer.trainer
    train_micro_batch = inner.train_micro_batch
    ledger: list[tuple[int, int]] = []

    def recording(*args, **kwargs):
        before = device.live_bytes
        out = train_micro_batch(*args, **kwargs)
        ledger.append((before, device.live_bytes))
        return out

    inner.train_micro_batch = recording
    losses, ks = [], []
    for i in range(2):
        seeds = dataset.train_nodes[40 * i:40 * (i + 1)]
        report = trainer.run_iteration(seeds)
        losses.append(report.result.loss)
        ks.append(report.plan.k)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, Tensor)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return losses, ks, ledger, cyclic


@pytest.mark.parametrize("backend", ["reference", "fused"])
def test_micro_batches_release_without_collector(dataset, backend):
    with_collector = _train(dataset, backend)[0]

    gc.collect()
    gc.disable()
    try:
        losses, ks, ledger, cyclic = _train(dataset, backend)
    finally:
        gc.enable()

    assert min(ks) > 1
    assert len(ledger) == sum(ks)
    for before, after in ledger:
        assert after == before
    assert cyclic == []
    assert losses == with_collector
