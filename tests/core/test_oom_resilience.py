"""Failure injection: OOM mid-iteration triggers re-planning.

The memory estimator is analytical; if it is too optimistic for a
workload, the device OOMs during concrete execution.  BuffaloTrainer
must tighten the scheduling constraint and retry rather than crash.
"""

import gc

import numpy as np
import pytest

from repro.core import BuffaloTrainer
from repro.datasets import load
from repro.device import SimulatedGPU
from repro.errors import DeviceOutOfMemoryError
from repro.gnn.footprint import ModelSpec


@pytest.fixture(scope="module")
def dataset():
    return load("ogbn_arxiv", scale=0.02, seed=0)


def _trainer(dataset, constraint_fraction, capacity=None):
    """Trainer whose scheduler believes it has MORE memory than exists.

    Setting the scheduling constraint above the device capacity
    guarantees the estimator's plan overshoots the real budget — the
    failure we are injecting.
    """
    spec = ModelSpec(dataset.feat_dim, 32, dataset.n_classes, 2, "lstm")
    if capacity is None:
        # Measure an untight peak first to pick a stressful capacity.
        probe_device = SimulatedGPU(capacity_bytes=10**13)
        probe = BuffaloTrainer(
            dataset, spec, probe_device, fanouts=[6, 6], seed=0
        )
        report = probe.run_iteration(dataset.train_nodes[:60])
        capacity = int(report.result.peak_bytes * 0.7)
    device = SimulatedGPU(capacity_bytes=capacity)
    return BuffaloTrainer(
        dataset,
        spec,
        device,
        fanouts=[6, 6],
        seed=0,
        memory_constraint=capacity * constraint_fraction,
    )


class TestOOMResilience:
    def test_overoptimistic_constraint_recovers(self, dataset):
        # Constraint set ABOVE capacity: the first plan must OOM, the
        # retry (tightened constraint -> more micro-batches) must pass.
        trainer = _trainer(dataset, constraint_fraction=3.0)
        report = trainer.run_iteration(dataset.train_nodes[:60])
        assert np.isfinite(report.result.loss)
        assert report.result.peak_bytes <= trainer.device.capacity
        # The constraint was tightened below its original value.
        assert (
            trainer.scheduler.memory_constraint
            < 3.0 * trainer.device.capacity
        )

    def test_retries_exhausted_raises(self, dataset):
        spec = ModelSpec(dataset.feat_dim, 32, dataset.n_classes, 2, "lstm")
        # Device so small even a single-node micro-batch cannot fit.
        device = SimulatedGPU(capacity_bytes=200_000)
        trainer = BuffaloTrainer(
            dataset,
            spec,
            device,
            fanouts=[6, 6],
            seed=0,
            memory_constraint=10**12,  # scheduler thinks all is fine
            k_max=4,
        )
        with pytest.raises(DeviceOutOfMemoryError):
            trainer.run_iteration(
                dataset.train_nodes[:60], max_oom_retries=1
            )

    def test_tightened_constraint_persists(self, dataset):
        trainer = _trainer(dataset, constraint_fraction=3.0)
        trainer.run_iteration(dataset.train_nodes[:60])
        tightened = trainer.scheduler.memory_constraint
        # The next iteration reuses the corrected constraint and should
        # not tighten further (it already fits).
        trainer.run_iteration(dataset.train_nodes[:60])
        assert trainer.scheduler.memory_constraint == tightened

    def test_no_retry_when_estimates_hold(self, dataset):
        trainer = _trainer(dataset, constraint_fraction=0.9, capacity=10**12)
        before = trainer.scheduler.memory_constraint
        trainer.run_iteration(dataset.train_nodes[:60])
        assert trainer.scheduler.memory_constraint == before


class TestOOMReleaseWithoutCollector:
    """A failed micro-batch's graph is freed by refcount before re-plan.

    The retry path never calls ``gc.collect()``: once the handled
    exception and its traceback are dropped, nothing may still pin the
    failed micro-batch's activations in the device ledger.
    """

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("fail_at", [0, 3])
    def test_ledger_restored_before_replan(self, dataset, backend, fail_at):
        spec = ModelSpec(dataset.feat_dim, 16, dataset.n_classes, 2, "mean")
        device = SimulatedGPU(capacity_bytes=10**12)
        trainer = BuffaloTrainer(
            dataset, spec, device, fanouts=[5, 5], seed=0,
            memory_constraint=1.5e5, kernel_backend=backend,
        )
        state = {"micro_batch": 0, "tracks": None, "live_at_oom": None}

        train_micro_batch = trainer.trainer.train_micro_batch

        def counting(*args, **kwargs):
            if state["micro_batch"] == fail_at:
                state["tracks"] = 0
            state["micro_batch"] += 1
            return train_micro_batch(*args, **kwargs)

        track = device.track

        def failing_track(array):
            # Fail the sixth buffer of micro-batch `fail_at`: mid-forward,
            # with the micro-batch's inputs and activations live.
            if state["tracks"] is not None:
                state["tracks"] += 1
                if state["tracks"] == 6:
                    state["tracks"] = None
                    state["live_at_oom"] = device.live_bytes
                    raise DeviceOutOfMemoryError(
                        int(array.nbytes), device.live_bytes, device.capacity
                    )
            track(array)

        schedule = trainer.scheduler.schedule
        live_at_schedule = []

        def recording_schedule(*args, **kwargs):
            live_at_schedule.append(device.live_bytes)
            return schedule(*args, **kwargs)

        trainer.trainer.train_micro_batch = counting
        device.track = failing_track
        trainer.scheduler.schedule = recording_schedule
        gc.collect()
        gc.disable()
        try:
            report = trainer.run_iteration(dataset.train_nodes[:40])
        finally:
            gc.enable()

        before, replan = live_at_schedule
        assert state["live_at_oom"] > before
        assert replan == before
        assert np.isfinite(report.result.loss)
