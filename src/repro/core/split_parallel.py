"""Split-parallel Buffalo training across a simulated device fleet.

Where the data-parallel trainer (:mod:`repro.core.distributed`)
replicates the feature matrix and round-robins micro-batches, the
split-parallel trainer follows the GSplit/DistGNN direction: the
feature matrix is *partitioned* across devices in contiguous node-id
blocks (:func:`partition_nodes`), Algorithm 3's K-search is extended to
a joint (K, N) placement (:func:`plan_placement`) that assigns whole
bucket groups to devices under per-device Eq. 1-2 memory ledgers, and
every micro-batch's input features split into

* **local rows** — owned by the executing device, read from its
  resident shard at device-memory bandwidth
  (:meth:`~repro.device.fleet.DeviceFleet.shard_read`);
* **halo rows** — owned by peers, gathered over the interconnect
  (:meth:`~repro.device.fleet.DeviceFleet.exchange`, one latency charge
  per peer contacted).

Gradients are reduced with the canonical schedule-order semantics of
:class:`~repro.core.trainer.GradientContributions`, so split-parallel
training is **bit-for-bit** identical to data-parallel and
single-device training on the same schedule — Buffalo's full-batch
gradient-parity invariant survives the partitioning.  The simulated
clocks are the only thing N changes: per-device compute and halo
gathers overlap, the gradient ring all-reduce is a barrier.

Scheduling (sampling, block generation, the K-search, placement) stays
serial on the host, reproducing the paper's finding that only the
GPU-compute share of an iteration parallelizes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.arrays import unique_sorted
from repro.core.api import build_model
from repro.core.fastblock import generate_blocks_fast
from repro.core.grouping import mem_balanced_grouping, refine_balance
from repro.core.microbatch import MicroBatch, materialize_micro_batch
from repro.core.scheduler import BuffaloScheduler, SchedulePlan
from repro.core.trainer import (
    GradientContributions,
    MicroBatchTrainer,
    TrainResult,
)
from repro.datasets.catalog import Dataset
from repro.device.fleet import DeviceFleet
from repro.device.profiler import Profiler
from repro.errors import ReproError, SchedulingError
from repro.gnn.block import Block
from repro.gnn.footprint import ModelSpec, input_feature_bytes
from repro.graph.sampling import SampledBatch, sample_batch
from repro.nn.optim import Adam, Optimizer
from repro.obs.metrics import BYTE_BUCKETS, get_metrics
from repro.obs.trace import get_tracer
from repro.pipeline.model import StageTiming

__all__ = [
    "SplitPlacement",
    "SplitIteration",
    "SplitParallelBuffaloTrainer",
    "partition_nodes",
    "plan_placement",
    "ensure_group_count",
]


def partition_nodes(n_nodes: int, n_devices: int) -> np.ndarray:
    """Owner device of every global node id (contiguous blocks).

    Node ids are split into ``n_devices`` contiguous ranges of (nearly)
    equal size — the standard block partition of a feature matrix.
    Returns an int array of length ``n_nodes`` with values in
    ``[0, n_devices)``.
    """
    if n_devices < 1:
        raise SchedulingError(
            f"need at least 1 device, got {n_devices}"
        )
    if n_nodes < 0:
        raise SchedulingError(f"negative node count {n_nodes}")
    block = max(1, -(-n_nodes // n_devices))  # ceil division
    owner = np.arange(n_nodes, dtype=np.int64) // block
    return np.minimum(owner, n_devices - 1)


@dataclass
class SplitPlacement:
    """A joint (K, N) placement of bucket groups onto devices.

    Attributes:
        assignments: device index of each bucket group, in schedule
            order (``len == plan.k``).
        n_devices: fleet size N.
        owner: global-node-id -> owning device (the feature partition).
        input_sets: per-group *global* input node ids, schedule order.
        halo_sets: per-device sorted global node ids the device needs
            but does not own (the cross-partition intersection of its
            groups' input sets with other devices' partitions).
        per_device_bytes: per-device Eq. 1-2 ledger — the worst single
            group estimate placed on each device (groups execute
            sequentially, releasing activations in between).
        regrouped: True when Algorithm 3 returned K < N and the buckets
            were regrouped to K = N (the joint search's second axis).
    """

    assignments: list[int]
    n_devices: int
    owner: np.ndarray
    input_sets: list[np.ndarray]
    halo_sets: list[np.ndarray]
    per_device_bytes: list[float]
    regrouped: bool = False

    @property
    def halo_bytes_estimate(self) -> int:
        """Total halo rows across devices, in feature-matrix rows."""
        return int(sum(s.size for s in self.halo_sets))

    def groups_of(self, device: int) -> list[int]:
        """Schedule indices of the groups placed on ``device``."""
        return [
            i for i, d in enumerate(self.assignments) if d == device
        ]


def ensure_group_count(
    plan: SchedulePlan,
    n_devices: int,
    memory_constraint: float,
) -> tuple[SchedulePlan, bool]:
    """Joint (K, N) search: raise K to at least N when Algorithm 3
    returned fewer groups than devices.

    The K-search optimizes memory alone; with N devices a K < N plan
    would leave devices idle, so the final buckets are regrouped into
    ``max(K, N)`` groups with the same Algorithm 4 packer (splitting
    the largest buckets further when there are fewer buckets than
    devices).  Returns ``(plan, regrouped)`` — the original plan object
    when K >= N already.
    """
    if n_devices < 1:
        raise SchedulingError(
            f"need at least 1 device, got {n_devices}"
        )
    if plan.k >= n_devices:
        return plan, False
    from repro.core.splitting import split_explosion_bucket

    buckets = list(plan.buckets)
    # More groups than buckets is impossible; cut the widest buckets
    # into halves until there is one granule per device (or every
    # bucket is a single output row).
    while len(buckets) < n_devices:
        widest = max(buckets, key=lambda b: b.volume)
        if widest.volume <= 1:
            break
        buckets.remove(widest)
        buckets.extend(split_explosion_bucket(widest, 2))
    k = min(n_devices, len(buckets))
    success, groups = mem_balanced_grouping(
        buckets, k, memory_constraint, plan.estimator
    )
    if not success:
        raise SchedulingError(
            f"no feasible K={k} regrouping for {n_devices} devices "
            f"under constraint {memory_constraint / 2**30:.2f} GiB"
        )
    if 1 < len(groups) <= 32:
        groups = refine_balance(groups, plan.estimator)
    return (
        SchedulePlan(
            groups=groups,
            k=len(groups),
            split_applied=True,
            buckets=buckets,
            estimator=plan.estimator,
        ),
        True,
    )


def plan_placement(
    plan: SchedulePlan,
    blocks: list[Block],
    batch: SampledBatch,
    n_devices: int,
    memory_constraint: float,
    *,
    owner: np.ndarray | None = None,
    n_nodes: int | None = None,
) -> SplitPlacement:
    """Assign the plan's bucket groups to devices and derive halo sets.

    The assignment is the same LPT greedy Algorithm 4 uses for buckets,
    lifted one level: groups (largest Eq. 2 estimate first) go to the
    device with the least total estimated load, which balances the
    per-device compute streams.  Each device's memory ledger is the
    *maximum* group estimate it hosts — groups run sequentially with
    activations released in between — and must fit the constraint.

    Halo sets reuse ``SchedulePlan.input_node_sets``: device ``d``'s
    halo is the union of its groups' input nodes (mapped to global ids
    via ``batch.node_map``) minus the nodes ``d`` owns.
    """
    if owner is None:
        if n_nodes is None:
            raise SchedulingError(
                "plan_placement needs `owner` or `n_nodes`"
            )
        owner = partition_nodes(n_nodes, n_devices)
    estimates = plan.estimated_bytes
    oversize = [
        e for e in estimates if e > memory_constraint
    ]
    if oversize:
        raise SchedulingError(
            f"{len(oversize)} group(s) exceed the per-device budget "
            f"{memory_constraint / 2**30:.2f} GiB"
        )
    # LPT over groups: largest first onto the least-loaded device.
    order = sorted(
        range(plan.k), key=lambda i: estimates[i], reverse=True
    )
    load = [0.0] * n_devices
    worst = [0.0] * n_devices
    assignments = [0] * plan.k
    for i in order:
        target = min(range(n_devices), key=lambda d: load[d])
        assignments[i] = target
        load[target] += estimates[i]
        worst[target] = max(worst[target], estimates[i])

    local_sets = plan.input_node_sets(blocks)
    input_sets = [batch.node_map[s] for s in local_sets]
    halo_sets: list[np.ndarray] = []
    for d in range(n_devices):
        needed = [
            input_sets[i] for i in range(plan.k) if assignments[i] == d
        ]
        if not needed:
            halo_sets.append(np.empty(0, dtype=np.int64))
            continue
        union = unique_sorted(np.concatenate(needed))
        halo_sets.append(union[owner[union] != d])
    return SplitPlacement(
        assignments=assignments,
        n_devices=n_devices,
        owner=owner,
        input_sets=input_sets,
        halo_sets=halo_sets,
        per_device_bytes=worst,
    )


class _ShardStager:
    """Feature staging policy pricing shard reads + halo exchange.

    Duck-types the ``reuse`` hook of
    :meth:`~repro.core.trainer.MicroBatchTrainer._load_features`:
    ``stage(global_nodes)`` returns the simulated staging duration.
    Owned rows cost device-memory bandwidth on the executing device;
    halo rows cross the interconnect with one latency charge per peer
    that owns any of them.  Partitioning changes modeled time, never
    numerics — the host gather is identical either way.
    """

    def __init__(
        self,
        fleet: DeviceFleet,
        device_index: int,
        owner: np.ndarray,
        row_bytes: int,
    ) -> None:
        self.fleet = fleet
        self.device_index = device_index
        self.owner = owner
        self.row_bytes = row_bytes
        self.last_stage_s = 0.0

    def stage(self, global_nodes: np.ndarray) -> float:
        owners = self.owner[global_nodes]
        halo_mask = owners != self.device_index
        n_halo = int(halo_mask.sum())
        n_local = int(global_nodes.size - n_halo)
        duration = self.fleet.shard_read(
            self.device_index, n_local * self.row_bytes
        )
        if n_halo:
            n_peers = int(unique_sorted(owners[halo_mask]).size)
            duration += self.fleet.exchange(
                self.device_index,
                n_halo * self.row_bytes,
                n_peers=n_peers,
            )
        self.last_stage_s = duration
        return duration


@dataclass
class SplitIteration:
    """Outcome of one split-parallel iteration."""

    loss: float
    n_micro_batches: int
    per_device_peaks: list[int]
    sim_time_s: float
    comm_time_s: float
    halo_bytes: int
    allreduce_bytes: int
    halo_exchange_s: float
    placement: SplitPlacement
    plan: SchedulePlan
    timings: list[StageTiming] = field(default_factory=list)
    profiler: Profiler = field(default_factory=Profiler)

    @property
    def result(self) -> TrainResult:
        """TrainResult view for :class:`~repro.training.loop.TrainingLoop`."""
        return TrainResult(
            loss=self.loss,
            peak_bytes=max(self.per_device_peaks, default=0),
            n_micro_batches=self.n_micro_batches,
            micro_batch_peaks=list(self.per_device_peaks),
            profiler=self.profiler,
        )


class SplitParallelBuffaloTrainer:
    """Buffalo training with bucket groups split across a device fleet.

    Args:
        dataset: training data; the feature matrix is modeled as
            partitioned device-resident (contiguous node-id blocks).
        spec: model description (replicated per device; parameters are
            small next to activations, the paper's §V-G premise).
        devices: the :class:`DeviceFleet` (or a device count, which
            builds a PCIe-peered RTX 6000 fleet).
        fanouts: per-layer sampling sizes (output layer first).
        memory_constraint: per-micro-batch = per-device budget;
            defaults to 90% of a single device's capacity.
        seed: sampling/init seed (all replicas share initialization).
    """

    def __init__(
        self,
        dataset: Dataset,
        spec: ModelSpec,
        devices: DeviceFleet | int,
        fanouts: list[int],
        *,
        memory_constraint: float | None = None,
        lr: float = 1e-3,
        clustering_coefficient: float | None = None,
        seed: int = 0,
        k_max: int = 128,
    ) -> None:
        if spec.in_dim != dataset.feat_dim:
            raise SchedulingError(
                f"spec.in_dim ({spec.in_dim}) must match dataset features "
                f"({dataset.feat_dim})"
            )
        if isinstance(devices, int):
            devices = DeviceFleet(devices)
        self.dataset = dataset
        self.spec = spec
        self.fleet = devices
        self.fanouts = list(fanouts)
        self.seed = seed
        if memory_constraint is None:
            capacity = devices.devices[0].capacity or 0
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
        # Identical initialization on every replica.
        self.replicas = [
            build_model(spec, rng=seed) for _ in devices.devices
        ]
        self.optimizers: list[Optimizer] = [
            Adam(replica.parameters(), lr=lr) for replica in self.replicas
        ]
        self.trainers = [
            MicroBatchTrainer(replica, spec, optimizer, device)
            for replica, optimizer, device in zip(
                self.replicas, self.optimizers, devices.devices
            )
        ]
        self.owner = partition_nodes(
            dataset.graph.n_nodes, devices.n_devices
        )
        # Replace the host->device transfer pricing with shard-read +
        # halo-exchange pricing; the trainers' math is untouched.
        row_bytes = input_feature_bytes(1, dataset.feat_dim)
        for d, trainer in enumerate(self.trainers):
            trainer.reuse = _ShardStager(
                devices, d, self.owner, row_bytes
            )
        self.timeline = None
        self._iteration = 0

    @property
    def model(self):
        """The (synchronized) model; replica 0 by convention."""
        return self.replicas[0]

    @property
    def n_devices(self) -> int:
        return self.fleet.n_devices

    # ------------------------------------------------------------------
    def attach_timeline(self, *, max_samples: int = 100_000):
        """Attach a memory timeline recorder over the fleet's ledgers.

        The recorder's device tier reads the fleet-wide views
        (``live_bytes`` = sum of shards, ``peak_bytes`` = worst single
        device); sampled once per micro-batch.  Returns the recorder.
        """
        from repro.obs.observatory.timeline import MemoryTimelineRecorder

        self.timeline = MemoryTimelineRecorder(
            device=self.fleet, max_samples=max_samples
        )
        return self.timeline

    def detach_timeline(self) -> None:
        self.timeline = None

    # ------------------------------------------------------------------
    def run_iteration(
        self, seeds: np.ndarray | None = None
    ) -> SplitIteration:
        """One split-parallel iteration over one sampled batch."""
        if seeds is None:
            seeds = self.dataset.train_nodes
        tracer = get_tracer()
        profiler = Profiler()
        if self.timeline is not None:
            self.timeline.begin_iteration(self._iteration)
        with profiler.phase("sampling"):
            batch = sample_batch(
                self.dataset.graph,
                seeds,
                self.fanouts,
                rng=self.seed + self._iteration,
            )
        with profiler.phase("block_generation"):
            blocks = generate_blocks_fast(batch)
        with profiler.phase("buffalo_scheduling"):
            plan = self.scheduler.schedule(batch, blocks)
            plan, regrouped = ensure_group_count(
                plan,
                self.fleet.n_devices,
                self.scheduler.memory_constraint,
            )
        with profiler.phase("placement"), tracer.span(
            "split.placement",
            {"k": plan.k, "n_devices": self.fleet.n_devices},
        ) as span:
            placement = plan_placement(
                plan,
                blocks,
                batch,
                self.fleet.n_devices,
                self.scheduler.memory_constraint,
                owner=self.owner,
            )
            placement.regrouped = regrouped
            span.set_attrs(
                {
                    "regrouped": regrouped,
                    "halo_rows": placement.halo_bytes_estimate,
                }
            )

        halo_bytes_before = self.fleet.halo_bytes
        exchange_s_before = self.fleet.exchange_time_s
        for device in self.fleet.devices:
            device.reset_peak()
        for replica in self.replicas:
            replica.zero_grad()

        cutoffs = list(reversed(self.fanouts))
        total_outputs = batch.n_seeds
        # All device trainers record into one shared contribution set
        # keyed by global schedule index, so the reduction is the
        # canonical single-device one regardless of placement.
        contributions = GradientContributions()
        for trainer in self.trainers:
            trainer._contributions = contributions
        per_device_peaks = [0] * self.fleet.n_devices
        timings: list[StageTiming] = []
        # Schedule order on the host; each micro-batch's compute and
        # halo traffic land on its assigned device's clock, so device
        # streams overlap while this loop stays serial (the paper's
        # serial-host finding).
        for i, group in enumerate(plan.groups):
            d = placement.assignments[i]
            trainer = self.trainers[d]
            device = self.fleet.devices[d]
            gen_start = time.perf_counter()
            with profiler.phase("block_generation"):
                mb: MicroBatch = materialize_micro_batch(batch, group)
            gen_s = time.perf_counter() - gen_start
            sim_before = device.sim_time_s
            compute_start = time.perf_counter()
            _, peak = trainer.train_micro_batch(
                self.dataset,
                batch.node_map,
                mb,
                cutoffs,
                total_outputs,
                profiler,
                index=i,
            )
            stage_s = trainer.reuse.last_stage_s
            compute_s = (
                time.perf_counter()
                - compute_start
                + (device.sim_time_s - sim_before)
                - stage_s
            )
            per_device_peaks[d] = max(per_device_peaks[d], peak or 0)
            timings.append(
                StageTiming(
                    block_gen_s=gen_s,
                    staging_s=stage_s,
                    compute_s=compute_s,
                )
            )
            if self.timeline is not None:
                self.timeline.sample("micro_batch")

        # Ring all-reduce of the parameter-sized gradient, then the
        # canonical reduction installed on every replica: identical
        # gradients -> identical Adam steps -> replicas stay in sync.
        comm_s = self.fleet.allreduce(self.spec.param_bytes())
        reduced = contributions.reduced()
        for replica in self.replicas:
            contributions.apply(replica.parameters(), reduced)
        for optimizer in self.optimizers:
            optimizer.step()
        self._verify_sync()

        loss = contributions.reduced_loss()
        halo_bytes = self.fleet.halo_bytes - halo_bytes_before
        halo_s = self.fleet.exchange_time_s - exchange_s_before
        self._record_metrics(
            placement, per_device_peaks, halo_bytes, halo_s, comm_s
        )
        if self.timeline is not None:
            self.timeline.sample("iteration_end")
        self._iteration += 1
        return SplitIteration(
            loss=float(loss),
            n_micro_batches=plan.k,
            per_device_peaks=per_device_peaks,
            sim_time_s=self.fleet.sim_time_s,
            comm_time_s=comm_s,
            halo_bytes=halo_bytes,
            allreduce_bytes=(
                self.spec.param_bytes()
                if self.fleet.n_devices > 1
                else 0
            ),
            halo_exchange_s=halo_s,
            placement=placement,
            plan=plan,
            timings=timings,
            profiler=profiler,
        )

    def _record_metrics(
        self,
        placement: SplitPlacement,
        per_device_peaks: list[int],
        halo_bytes: int,
        halo_s: float,
        comm_s: float,
    ) -> None:
        metrics = get_metrics()
        metrics.gauge(
            "buffalo.device.count", help="devices in the training fleet"
        ).set(self.fleet.n_devices)
        peaks = metrics.histogram(
            "buffalo.device.peak_bytes",
            BYTE_BUCKETS,
            help="per-device peak bytes per iteration",
        )
        for peak in per_device_peaks:
            peaks.observe(peak)
        metrics.counter(
            "buffalo.device.halo_bytes",
            help="halo feature bytes exchanged across partitions",
        ).inc(halo_bytes)
        metrics.counter(
            "buffalo.device.allreduce_bytes",
            help="gradient bytes all-reduced across the fleet",
        ).inc(
            self.spec.param_bytes() if self.fleet.n_devices > 1 else 0
        )
        metrics.counter(
            "buffalo.device.halo_exchange_s",
            help="simulated seconds of halo-feature exchange",
        ).inc(halo_s)
        metrics.counter(
            "buffalo.device.allreduce_s",
            help="simulated seconds of gradient all-reduce",
        ).inc(comm_s)

    def _verify_sync(self) -> None:
        """Replicas must stay bit-identical after each step."""
        reference = self.replicas[0].state_dict()
        for replica in self.replicas[1:]:
            state = replica.state_dict()
            for key, value in reference.items():
                if not np.array_equal(value, state[key]):
                    raise ReproError(
                        f"replica desynchronized at parameter {key}"
                    )
