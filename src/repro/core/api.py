"""High-level Buffalo facade.

Wires the full online pipeline of Fig. 6 for one training iteration:

1. sample a batch (subgraph) from the dataset;
2. generate the batch's blocks with the fast generator;
3. run the Buffalo scheduler (bucketize, split, group) under the memory
   constraint;
4. materialize micro-batches (fast block generation per group);
5. train with gradient accumulation (Algorithm 2).

All phases are profiled with the Fig. 11 phase names.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fastblock import generate_blocks_fast
from repro.core.microbatch import MicroBatch, generate_micro_batches
from repro.core.scheduler import BuffaloScheduler, SchedulePlan
from repro.core.trainer import MicroBatchTrainer, TrainResult
from repro.datasets.catalog import Dataset
from repro.device.device import SimulatedGPU
from repro.device.feature_cache import FeatureCache
from repro.device.profiler import Profiler
from repro.errors import SchedulingError
from repro.gnn.footprint import ModelSpec
from repro.gnn.gat import GAT
from repro.gnn.gcn import GCN
from repro.gnn.sage import GraphSAGE
from repro.graph.sampling import SampledBatch, sample_batch
from repro.kernels.dispatch import use_kernel_backend
from repro.nn.optim import Adam, Optimizer
from repro.obs.estimator import EstimatorTelemetry
from repro.obs.metrics import SMALL_COUNT_BUCKETS, get_metrics
from repro.obs.trace import get_tracer
from repro.pipeline.engine import (
    PipelineConfig,
    PipelineEngine,
    PipelineReport,
)
from repro.pipeline.reuse import FeatureReuseManager
from repro.store import FeatureStore, SchedulePrefetcher


def build_model(spec: ModelSpec, *, rng: int = 0):
    """Instantiate the model a :class:`ModelSpec` describes."""
    if spec.aggregator == "attention":
        return GAT(
            spec.in_dim,
            spec.hidden_dim,
            spec.n_classes,
            spec.n_layers,
            heads=spec.heads,
            rng=rng,
        )
    if spec.aggregator == "gcn":
        return GCN(
            spec.in_dim,
            spec.hidden_dim,
            spec.n_classes,
            spec.n_layers,
            rng=rng,
        )
    return GraphSAGE(
        spec.in_dim,
        spec.hidden_dim,
        spec.n_classes,
        spec.n_layers,
        aggregator=spec.aggregator,
        dropout=spec.dropout,
        rng=rng,
    )


@dataclass
class IterationReport:
    """Everything one Buffalo iteration produced."""

    result: TrainResult
    plan: SchedulePlan
    micro_batches: list[MicroBatch]
    batch: SampledBatch
    pipeline: PipelineReport | None = None

    @property
    def n_micro_batches(self) -> int:
        return self.plan.k


class BuffaloTrainer:
    """End-to-end Buffalo training on a dataset.

    Args:
        dataset: a loaded :class:`~repro.datasets.catalog.Dataset`.
        spec: model description; ``spec.in_dim`` must equal the dataset's
            feature width.
        device: simulated GPU supplying the memory constraint.
        fanouts: per-layer sampling sizes, output layer first (these are
            also the bucketing cut-offs, as in the paper).
        memory_constraint: per-micro-batch byte budget; defaults to 90%
            of the device capacity (headroom for parameters/optimizer).
        optimizer: optional custom optimizer (default Adam, lr=1e-3).
        seed: RNG seed for sampling and model init.
        pipeline_depth: prefetch-queue depth of the staged execution
            engine; ``1`` (the default) keeps the strictly sequential
            Algorithm 2 schedule.  Any depth yields bit-identical
            gradients — only stage overlap changes.
        pipeline_mode: ``"auto"`` | ``"sync"`` | ``"threaded"`` (see
            :class:`~repro.pipeline.engine.PipelineConfig`).
        reuse_features: pin feature rows that consecutive bucket groups
            both request in a device-resident cache, so they cross PCIe
            once per iteration instead of once per group.
        feature_cache_bytes: byte budget of the reuse cache; defaults
            to 10% of the device capacity.
        store_prefetch: when the dataset's features are served by an
            out-of-core :class:`~repro.store.FeatureStore`, warm each
            bucket group's input rows ahead of its compute using the
            schedule's input-node sets (on by default; numerics are
            identical either way).
        store_prefetch_depth: staged groups the prefetcher may run
            ahead (defaults to ``max(2, pipeline_depth)``).
        kernel_backend: bucket-aggregation kernel backend,
            ``"reference"`` (dense gather, bit-for-bit legacy
            semantics) or ``"fused"`` (CSR segment-reduce, no
            ``(n, d, f)`` neighbor tensor — see docs/kernels.md).
            Scheduling and execution both run under this backend so
            Eq. 1-2 estimates match the executed live set.
        kernel_threads: worker threads for the fused backend's sharded
            CSR execution (1 = serial; bit-for-bit at any count).
        kernel_calibration: path to an autotuned dispatch calibration
            file (``repro bench kernels --tune``); ``None`` keeps the
            backend's per-host default resolution.
    """

    def __init__(
        self,
        dataset: Dataset,
        spec: ModelSpec,
        device: SimulatedGPU,
        fanouts: list[int],
        *,
        memory_constraint: float | None = None,
        optimizer: Optimizer | None = None,
        lr: float = 1e-3,
        clustering_coefficient: float | None = None,
        seed: int = 0,
        k_max: int = 128,
        pipeline_depth: int = 1,
        pipeline_mode: str = "auto",
        reuse_features: bool = False,
        feature_cache_bytes: int | None = None,
        store_prefetch: bool = True,
        store_prefetch_depth: int | None = None,
        kernel_backend: str = "reference",
        kernel_threads: int = 1,
        kernel_calibration: str | None = None,
    ) -> None:
        if spec.in_dim != dataset.feat_dim:
            raise SchedulingError(
                f"spec.in_dim ({spec.in_dim}) must match dataset features "
                f"({dataset.feat_dim})"
            )
        if len(fanouts) != spec.n_layers:
            raise SchedulingError(
                f"need one fanout per layer: got {len(fanouts)} fanouts "
                f"for {spec.n_layers} layers"
            )
        self.dataset = dataset
        self.spec = spec
        self.device = device
        self.fanouts = list(fanouts)
        self.seed = seed
        if memory_constraint is None:
            capacity = device.capacity or 0
            memory_constraint = 0.9 * capacity if capacity else float("inf")
        if clustering_coefficient is None:
            clustering_coefficient = dataset.stats(
                clustering_sample=1000
            )["avg_clustering"]
        self.scheduler = BuffaloScheduler(
            spec,
            memory_constraint,
            cutoff=self.fanouts[0],
            clustering_coefficient=clustering_coefficient,
            k_max=k_max,
        )
        self.model = build_model(spec, rng=seed)
        self.optimizer = optimizer or Adam(self.model.parameters(), lr=lr)
        self.trainer = MicroBatchTrainer(
            self.model, spec, self.optimizer, device,
            kernel_backend=kernel_backend,
            kernel_threads=kernel_threads,
            kernel_calibration=kernel_calibration,
        )
        self.pipeline_config = PipelineConfig(
            depth=pipeline_depth, mode=pipeline_mode
        )
        self.engine = PipelineEngine(self.trainer, self.pipeline_config)
        # depth 1 + auto keeps the legacy (strictly sequential) path;
        # any explicit mode, or depth > 1, routes through the engine.
        self.use_pipeline = pipeline_depth > 1 or pipeline_mode != "auto"
        self.feature_cache: FeatureCache | None = None
        self.reuse: FeatureReuseManager | None = None
        if reuse_features:
            feat_bytes = int(
                dataset.feat_dim * dataset.features.dtype.itemsize
            )
            if feature_cache_bytes is None:
                capacity = device.capacity or 0
                feature_cache_bytes = (
                    int(0.1 * capacity) if capacity else 64 << 20
                )
            feature_cache_bytes = max(feature_cache_bytes, feat_bytes)
            self.feature_cache = FeatureCache(
                device, feat_bytes, feature_cache_bytes
            )
            self.reuse = FeatureReuseManager(self.feature_cache)
        # Out-of-core datasets expose their features as a FeatureStore;
        # the schedule-aware prefetcher overlaps its shard reads with
        # compute, one bucket group ahead of the trainer.
        self.store: FeatureStore | None = (
            dataset.features
            if isinstance(dataset.features, FeatureStore)
            else None
        )
        self.prefetcher: SchedulePrefetcher | None = None
        if self.store is not None and store_prefetch:
            self.prefetcher = SchedulePrefetcher(
                self.store,
                depth=store_prefetch_depth or max(2, pipeline_depth),
                threaded=self.pipeline_config.threaded,
            )
        self.telemetry = EstimatorTelemetry()
        self.timeline = None
        self._iteration = 0

    # ------------------------------------------------------------------
    def attach_timeline(self, *, max_samples: int = 100_000):
        """Attach a four-tier memory timeline recorder to this trainer.

        Wires the recorder to the device allocation ledger, the
        out-of-core feature store (when present), the feature-reuse
        cache (when enabled), and the kernel workspace arena; the
        micro-batch trainer samples after every micro-batch.  Returns
        the recorder.
        """
        from repro.obs.observatory.timeline import MemoryTimelineRecorder

        self.timeline = MemoryTimelineRecorder(
            device=self.device,
            store=self.store,
            cache=self.feature_cache,
            workspace=getattr(self.trainer.kernel, "workspace", None),
            max_samples=max_samples,
        )
        self.trainer.timeline = self.timeline
        return self.timeline

    def detach_timeline(self) -> None:
        self.timeline = None
        self.trainer.timeline = None

    # ------------------------------------------------------------------
    def _plan_batch(
        self,
        seeds: np.ndarray | None = None,
        *,
        profiler: Profiler | None = None,
    ):
        """Sample one batch and schedule it (no micro-batch generation)."""
        profiler = profiler or Profiler()
        if seeds is None:
            seeds = self.dataset.train_nodes

        with use_kernel_backend(self.trainer.kernel):
            return self._plan_batch_inner(seeds, profiler)

    def _plan_batch_inner(self, seeds, profiler):
        """Body of :meth:`_plan_batch`, with the kernel backend active.

        The Eq. 1-2 estimator consults the active backend's footprint
        formulas (fused retains less), so scheduling must run under the
        same backend the trainer executes with — otherwise K and the
        group boundaries would be planned for the wrong live set.
        """
        with profiler.phase("sampling") as span:
            batch = sample_batch(
                self.dataset.graph,
                seeds,
                self.fanouts,
                rng=self.seed + self._iteration,
            )
            span.set_attrs(
                {"n_seeds": batch.n_seeds, "n_layers": len(self.fanouts)}
            )
        with profiler.phase("block_generation") as span:
            blocks = generate_blocks_fast(batch)
            span.set_attr("n_input", blocks[0].n_src)
        with profiler.phase("buffalo_scheduling") as span:
            plan = self.scheduler.schedule(batch, blocks)
            span.set_attrs({"k": plan.k, "split": plan.split_applied})
        return batch, blocks, plan, profiler

    def prepare(
        self,
        seeds: np.ndarray | None = None,
        *,
        profiler: Profiler | None = None,
    ) -> tuple[SampledBatch, SchedulePlan, list[MicroBatch], Profiler]:
        """Sample, schedule, and materialize micro-batches for one batch."""
        batch, _blocks, plan, profiler = self._plan_batch(
            seeds, profiler=profiler
        )
        with profiler.phase("block_generation") as span:
            micro_batches = generate_micro_batches(batch, plan)
            span.set_attr("n_micro_batches", len(micro_batches))
        return batch, plan, micro_batches, profiler

    def run_iteration(
        self,
        seeds: np.ndarray | None = None,
        *,
        max_oom_retries: int = 2,
    ) -> IterationReport:
        """One full online-training iteration (Fig. 6 pipeline).

        OOM resilience: the memory estimator is analytical, so a group
        can occasionally exceed its estimate during concrete execution.
        When the device raises OOM mid-iteration, the scheduler's
        constraint is tightened by 25% and the iteration is re-planned
        and retried (up to ``max_oom_retries`` times) — the same
        fallback a production system performs.  The tightened
        constraint persists for subsequent iterations (the estimator's
        bias is systematic, not per-batch).

        Raises:
            DeviceOutOfMemoryError: when retries are exhausted.
        """
        from repro.errors import DeviceOutOfMemoryError

        cutoffs = list(reversed(self.fanouts))
        last_oom: DeviceOutOfMemoryError | None = None
        tracer = get_tracer()
        metrics = get_metrics()
        if self.timeline is not None:
            self.timeline.begin_iteration(self._iteration)
        for attempt in range(max_oom_retries + 1):
            with tracer.span(
                "buffalo.iteration",
                {"iteration": self._iteration, "attempt": attempt},
            ) as iter_span:
                try:
                    batch, blocks, plan, profiler = self._plan_batch(seeds)
                except SchedulingError:
                    # A tightened constraint can become unschedulable;
                    # that is the same terminal condition as the OOM
                    # that caused the tightening.
                    if last_oom is not None:
                        raise last_oom
                    raise
                oom_info: tuple[int, int, int] | None = None
                micro_batches: list[MicroBatch] = []
                pipeline_report: PipelineReport | None = None
                reuse_active = False
                prefetch_active = False
                try:
                    if self.reuse is not None:
                        local_sets = plan.input_node_sets(blocks)
                        self.reuse.begin_iteration(
                            [batch.node_map[s] for s in local_sets]
                        )
                        self.trainer.reuse = self.reuse
                        reuse_active = True
                    if self.prefetcher is not None:
                        local_sets = plan.input_node_sets(blocks)
                        self.prefetcher.begin_iteration(
                            [batch.node_map[s] for s in local_sets]
                        )
                        prefetch_active = True
                    if self.use_pipeline:
                        result, micro_batches, pipeline_report = (
                            self.engine.run(
                                self.dataset,
                                batch,
                                plan,
                                cutoffs,
                                profiler=profiler,
                            )
                        )
                    else:
                        with profiler.phase("block_generation") as span:
                            micro_batches = generate_micro_batches(
                                batch, plan
                            )
                            span.set_attr(
                                "n_micro_batches", len(micro_batches)
                            )
                        result = self.trainer.train_iteration(
                            self.dataset,
                            batch.node_map,
                            micro_batches,
                            cutoffs,
                            profiler=profiler,
                        )
                except DeviceOutOfMemoryError as exc:
                    if attempt == max_oom_retries:
                        raise
                    oom_info = (exc.requested, exc.live, exc.capacity)
                finally:
                    if reuse_active:
                        self.reuse.end_iteration()
                        self.trainer.reuse = None
                    if prefetch_active:
                        self.prefetcher.end_iteration()
                if oom_info is None:
                    iter_span.set_attrs(
                        {
                            "k": plan.k,
                            "loss": result.loss,
                            "peak_bytes": result.peak_bytes,
                        }
                    )
            if oom_info is not None:
                # Outside the except block the handled exception and its
                # traceback are gone, and with them the frames that held
                # the failed micro-batch's activation graph: refcounting
                # has already returned those bytes to the device ledger.
                last_oom = DeviceOutOfMemoryError(*oom_info)
                del batch, blocks, plan, micro_batches, profiler
                if self.feature_cache is not None:
                    # Release cached rows: the retry recomputes the
                    # constraint from the device's real headroom, and
                    # resident cache bytes would distort it.
                    self.feature_cache.clear()
                # Snap to the device's real headroom (minus resident
                # parameters), then keep shaving 25% per further OOM.
                tightened = 0.75 * self.scheduler.memory_constraint
                if self.device.capacity:
                    headroom = 0.85 * (
                        self.device.capacity - self.device.live_bytes
                    )
                    tightened = min(tightened, headroom)
                self.scheduler.memory_constraint = max(tightened, 1.0)
                metrics.counter(
                    "buffalo.oom_retries",
                    help="iterations re-planned after device OOM",
                ).inc()
                continue
            metrics.counter(
                "buffalo.iterations", help="completed training iterations"
            ).inc()
            metrics.histogram(
                "buffalo.micro_batches_per_iter",
                SMALL_COUNT_BUCKETS,
                help="K (micro-batches) per iteration",
            ).observe(plan.k)
            metrics.gauge(
                "buffalo.peak_mem_bytes",
                help="device peak bytes of the last iteration",
            ).set(result.peak_bytes)
            self.telemetry.record_iteration(
                self._iteration,
                plan.estimated_bytes,
                result.micro_batch_peaks,
            )
            if self.timeline is not None:
                self.timeline.sample("iteration_end")
            self._iteration += 1
            return IterationReport(
                result=result,
                plan=plan,
                micro_batches=micro_batches,
                batch=batch,
                pipeline=pipeline_report,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def train_epochs(
        self, n_iterations: int, seeds: np.ndarray | None = None
    ) -> list[float]:
        """Run several iterations; returns the loss curve."""
        return [
            self.run_iteration(seeds).result.loss
            for _ in range(n_iterations)
        ]
