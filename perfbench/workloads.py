"""The benchmark's workloads and the phases one run executes.

Every workload runs the pipeline a user runs: set up (load or open the
data, build the trainer), train, checkpoint, and serve the checkpoint
open-loop and in bursts.  After a warm-up the run proceeds in *rounds*;
each round trains ``epochs_per_round`` epochs, serves one open-loop
segment and one burst.  Every measured duration is scaled to a
reference host speed by probes timed between and within the phases
(``hostspeed.py``), and p99 is a median over windows of the open loop,
so the host's shifts in speed do not set a run's figures.  Workloads
differ in data,
model, memory budget, kernel backend, embedding-cache size and how much
of a round is training (see README.md).

Only public ``repro`` API is called.  Imports of ``repro`` happen
inside the functions, after the worker has pinned the environment.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass

MiB = 2**20

#: Loss-curve tolerance, relative.  Different K, backends or a store
#: change only float32 summation order; measured gaps are below 1e-6.
LOSS_RTOL = 1e-4

#: Settings every workload shares.
HIDDEN = 64
FANOUTS = (10, 25)
HOT_CACHE_BYTES = MiB // 2
WARM_REQUESTS = 300
BURST_SIZE = 1500

#: The host is probed (see ``hostspeed.py``) after every
#: ``PROBE_REQUESTS`` open-loop requests, once all of them are
#: answered, and between the parts of ``BURST_PART`` requests a burst
#: is submitted in.  The host's speed shifts within a second, so a
#: probe only tracks the work within a few tenths of a second of it.
PROBE_REQUESTS = 50
BURST_PART = 100

#: Embedding-cache size of the training workloads' serving engines: it
#: holds every train node's logits, so only a node's first request misses.
CACHE_BYTES = 8 * MiB

#: ``serve_p99_ms`` is the median of the p99s of consecutive windows of
#: this many open-loop requests.  One host stall delays every request
#: due during it, so a p99 pooled over a whole run is set by whether a
#: stall happened at all.  The median discounts a stall that touches a
#: few windows; a delay that recurs in most windows still sets it.  The
#: pooled p99 is printed beside it.
P99_WINDOW = 250

#: Serving-correctness sample sizes (see ``check_serving``).
N_PROBE = 16
N_SERVED = 64

#: Open-loop arrival rate.  At 300 Hz the p99 of repeated runs of one
#: seed on a 2-core host ranged from 9 to 29 ms, at 150 Hz from 7.5 to
#: 9.2 ms.
RATE_HZ = 150.0

#: Latency limit for ``serve_slo_share``.
SLO_S = 0.050

#: Nominal wall of one round on a 2-core host; ``--seconds`` becomes a
#: whole number of rounds, so runs with equal ``--seconds`` do equal work.
ROUND_S = 8.5

#: The reference trainer a run's first epoch must match: the
#: ``reference`` kernel backend under a budget no batch fills (K=1).
CHECK_BACKEND = "reference"
CHECK_BUDGET_GB = 1000.0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    dataset: str
    out_of_core: bool
    aggregator: str
    batch_size: int
    budget_gb: float
    backend: str
    epochs_per_round: int
    requests_per_round: int
    cache_bytes: int
    zipf: float

    def rounds(self, seconds: float) -> int:
        return max(2, round(seconds / ROUND_S))


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="train-tight",
            dataset="ogbn_products",
            out_of_core=True,
            aggregator="mean",
            batch_size=1000,
            budget_gb=1.0,
            backend="reference",
            epochs_per_round=1,
            requests_per_round=500,
            cache_bytes=CACHE_BYTES,
            zipf=1.1,
        ),
        Workload(
            name="train-roomy",
            dataset="pubmed",
            out_of_core=False,
            aggregator="attention",
            batch_size=500,
            budget_gb=24.0,
            backend="fused",
            epochs_per_round=6,
            requests_per_round=500,
            cache_bytes=CACHE_BYTES,
            zipf=1.1,
        ),
        Workload(
            name="serve-zipf",
            dataset="ogbn_products",
            out_of_core=False,
            aggregator="mean",
            batch_size=1000,
            budget_gb=24.0,
            backend="fused",
            epochs_per_round=1,
            requests_per_round=750,
            cache_bytes=32 * 1024,
            zipf=0.8,
        ),
    )
}


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sequence."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    low = math.floor(pos)
    a, b = ordered[low], ordered[min(low + 1, len(ordered) - 1)]
    # Rejected requests are infinite latencies; avoid inf - inf.
    return a if a == b else a + (b - a) * (pos - low)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build_store_for(w: Workload, seed: int, path) -> None:
    """Offline step: write the workload's dataset as an on-disk store."""
    from repro.datasets import load
    from repro.store import build_store

    build_store(load(w.dataset, seed=seed), path, overwrite=True)


def open_data(w: Workload, seed: int, store_path):
    if w.out_of_core:
        from repro.datasets import open_dataset

        return open_dataset(store_path, hot_cache_bytes=HOT_CACHE_BYTES)
    from repro.datasets import load

    return load(w.dataset, seed=seed)


def make_trainer(w: Workload, dataset, seed: int, budget_gb: float,
                 backend: str):
    from repro.bench.workloads import budget_bytes
    from repro.core import BuffaloTrainer
    from repro.device import SimulatedGPU
    from repro.gnn.footprint import ModelSpec

    spec = ModelSpec(dataset.feat_dim, HIDDEN, dataset.n_classes,
                     len(FANOUTS), w.aggregator)
    device = SimulatedGPU(capacity_bytes=budget_bytes(dataset, budget_gb))
    return BuffaloTrainer(dataset, spec, device, list(FANOUTS), seed=seed,
                          kernel_backend=backend)


@dataclass(frozen=True)
class IterationRecord:
    """The fields of one ``IterationReport`` the benchmark keeps.

    Holding whole reports would keep every batch's blocks alive, which
    grows the heap, the cost of each garbage collection and the RSS.
    """

    loss: float
    peak_bytes: int
    k: int
    estimated_bytes: tuple[float, ...]
    micro_batch_peaks: tuple[int, ...]
    seeds: int
    start: float
    end: float


def record_reports(trainer, speed=None) -> list[IterationRecord]:
    """Record every iteration the trainer runs; with a ``HostSpeed``,
    probe the host between iterations."""
    reports: list[IterationRecord] = []
    run_iteration = trainer.run_iteration

    def recording(*args, **kwargs):
        if speed is not None:
            speed.tick()
        start = time.perf_counter()
        report = run_iteration(*args, **kwargs)
        end = time.perf_counter()
        reports.append(IterationRecord(
            loss=report.result.loss,
            peak_bytes=report.result.peak_bytes,
            k=report.n_micro_batches,
            estimated_bytes=tuple(report.plan.estimated_bytes),
            micro_batch_peaks=tuple(report.result.micro_batch_peaks),
            seeds=report.batch.n_seeds,
            start=start,
            end=end,
        ))
        return report

    trainer.run_iteration = recording
    return reports


def make_engine(w: Workload, model, dataset, seed: int, cache_bytes: int):
    from repro.serve import EmbeddingCache, ServeEngine

    return ServeEngine(
        model, dataset.graph, dataset.features, list(FANOUTS),
        sampler_seed=seed, cache=EmbeddingCache(cache_bytes),
        kernel_backend=w.backend,
    )


def settle(pendings) -> int:
    """Wait for every request; return how many were answered."""
    from repro.serve import ServeRejected

    done = 0
    for pending in pendings:
        try:
            pending.result(timeout=60.0)
            done += 1
        except ServeRejected:
            pass
    return done


# ----------------------------------------------------------------------
# The measured run
# ----------------------------------------------------------------------
class Run:
    """Warm-up, then rounds of train epochs / open-loop segment / burst.

    Epoch ``e`` shuffles with seed ``seed + e`` and the serving traces
    are seeded from ``seed``, so the work is a pure function of the
    workload, the seed and the number of rounds.
    """

    def __init__(self, w: Workload, seed: int, dataset, trainer,
                 n_rounds: int, checkpoint) -> None:
        from repro.training import TrainingLoop

        self.w = w
        self.seed = seed
        self.dataset = dataset
        self.trainer = trainer
        self.n_rounds = n_rounds
        self.checkpoint = checkpoint
        from hostspeed import HostSpeed

        self.speed = HostSpeed()
        self.reports = record_reports(trainer, self.speed)
        self.loop = TrainingLoop(trainer=trainer, dataset=dataset,
                                 batch_size=w.batch_size, seed=seed)
        self.epoch = 0
        self.warm_iterations = 0
        self.round_iterations: list[tuple[int, int]] = []
        self.segments: list[dict] = []
        self.bursts: list[tuple[float, float, int]] = []
        self.model = None
        self.engine = None
        self.trace: list = []
        self.warm_failed = 0

    def train_epoch(self) -> None:
        self.loop.seed = self.seed + self.epoch
        self.epoch += 1
        self.loop.run(1)

    def warm_up(self) -> None:
        """One epoch, a checkpoint to serve, and embedding-cache fill."""
        from repro.core.api import build_model
        from repro.serve import LoadSpec, generate_trace
        from repro.training import load_checkpoint, save_checkpoint

        self.train_epoch()
        self.warm_iterations = len(self.reports)
        save_checkpoint(self.checkpoint, self.trainer.model,
                        metadata={"epoch": self.epoch})
        self.model = build_model(self.trainer.spec, rng=self.seed)
        load_checkpoint(self.checkpoint, self.model)
        self.engine = make_engine(self.w, self.model, self.dataset,
                                  self.seed, self.w.cache_bytes)
        self.trace = generate_trace(
            LoadSpec(n_requests=WARM_REQUESTS
                     + self.n_rounds * self.w.requests_per_round,
                     rate_hz=RATE_HZ, zipf_exponent=self.w.zipf,
                     seed=self.seed),
            self.dataset.train_nodes,
        )
        warm = self._open_loop(self.trace[:WARM_REQUESTS])
        self.warm_failed = warm["failed"]

    def run_round(self, index: int) -> None:
        """Train, serve a segment, serve a burst; the host is probed
        between iterations and around and within each serving phase."""
        first_iteration = len(self.reports)
        for _ in range(self.w.epochs_per_round):
            self.train_epoch()
        self.round_iterations.append((first_iteration, len(self.reports)))
        self.speed.probe()
        first = WARM_REQUESTS + index * self.w.requests_per_round
        self.segments.append(self._open_loop(
            self.trace[first:first + self.w.requests_per_round]))
        self.speed.probe()
        self._burst(index)
        self.speed.probe()

    # -- serving ----------------------------------------------------------
    def _open_loop(self, requests) -> dict:
        """Submit each request at its due time; time it from then.

        The calling (main) thread is the generator; the server's single
        worker serves.  Due times are relative to the segment's start.
        """
        from repro.serve import BatchPolicy, ServeRejected, ServeServer

        server = ServeServer(self.engine, BatchPolicy()).start()
        pendings = []
        late = []
        base = requests[0].arrival_s
        origin = start = time.perf_counter() + 0.005
        try:
            for i, request in enumerate(requests):
                if i and i % PROBE_REQUESTS == 0:
                    settle(pendings)
                    self.speed.probe()
                    origin = (time.perf_counter() + 0.005
                              - (request.arrival_s - base))
                due = origin + request.arrival_s - base
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late.append(time.perf_counter() - due)
                pendings.append(
                    server.queue.submit(request.node, arrival_s=due))
            # Wait for every response before stopping: stop(drain=True)
            # serves queued requests on this thread while the worker may
            # still be in a batch, and the two overlapping no_grad()
            # scopes can leave the process-global grad mode off, which
            # breaks the next training epoch (see README.md).
            settle(pendings)
        finally:
            server.stop(drain=True)
        latencies = []
        served = []
        for pending in pendings:
            try:
                response = pending.result(timeout=0.0)
            except ServeRejected:
                latencies.append(math.inf)
                continue
            latencies.append(response.latency_s)
            served.append((response.node, response.logits,
                           response.cache_hit))
        return {
            "window": (start, time.perf_counter()),
            "sent": len(pendings),
            "failed": sum(p.rejected for p in pendings),
            "batches": server.batches,
            "latencies": latencies,
            "dues": [p.request.arrival_s for p in pendings],
            "late": late,
            "served": served,
        }

    def _burst(self, index: int) -> None:
        """Admit a whole burst at once (queue depth = burst size).

        Each burst uses a fresh engine and cache and its own trace.
        """
        from repro.serve import (BatchPolicy, LoadSpec, ServeServer,
                                 generate_trace)

        engine = make_engine(self.w, self.model, self.dataset, self.seed,
                             self.w.cache_bytes)
        trace = generate_trace(
            LoadSpec(n_requests=BURST_SIZE, rate_hz=RATE_HZ,
                     zipf_exponent=self.w.zipf,
                     seed=self.seed * 1000 + index + 1),
            self.dataset.train_nodes,
        )
        policy = BatchPolicy(max_queue_depth=BURST_PART)
        server = ServeServer(engine, policy).start()
        try:
            for first in range(0, BURST_SIZE, BURST_PART):
                if first:
                    self.speed.probe()
                start = time.perf_counter()
                pendings = [server.queue.submit(r.node)
                            for r in trace[first:first + BURST_PART]]
                done = settle(pendings)
                self.bursts.append((start, time.perf_counter(), done))
        finally:
            server.stop(drain=True)

    # -- results ----------------------------------------------------------
    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference host speed."""
        return (end - start) * self.speed.factor(start, end)

    def scaled_latency(self, due: float, latency: float) -> float:
        """A latency at the reference host speed.  Its first
        ``max_wait_s`` may be the batching window, a timer that host
        speed does not change; the rest is computing, or waiting for
        it, and is scaled."""
        from repro.serve import BatchPolicy

        if latency == math.inf:
            return latency
        wait = min(latency, BatchPolicy().max_wait_s)
        return wait + self.scaled(due + wait, due + latency)

    def train_summary(self) -> dict:
        from repro.obs import get_metrics

        measured = self.reports[self.warm_iterations:]
        seeds = sum(r.seeds for r in measured)
        wall = sum(r.end - r.start for r in measured)
        scaled = sum(self.scaled(r.start, r.end) for r in measured)
        round_rates = [
            sum(r.seeds for r in self.reports[a:b])
            / sum(self.scaled(r.start, r.end) for r in self.reports[a:b])
            for a, b in self.round_iterations
        ]
        ratios = [
            est / peak
            for r in measured
            for est, peak in zip(r.estimated_bytes, r.micro_batch_peaks)
            if peak
        ]
        oom = get_metrics().snapshot().get("buffalo.oom_retries", {})
        return {
            "losses": [r.loss for r in self.reports],
            "iterations": len(self.reports),
            "warm_iterations": self.warm_iterations,
            "round_rates": round_rates,
            "wall_s": wall,
            "scaled_wall_s": scaled,
            "seeds_per_s": seeds / scaled,
            "raw_seeds_per_s": seeds / wall,
            "peak_device_mib": max(
                r.peak_bytes for r in self.reports) / MiB,
            "k_per_batch": statistics.median(
                r.k for r in measured),
            "est_to_peak": statistics.median(ratios) if ratios else 0.0,
            "oom_retries": int(oom.get("value", 0)),
        }

    def serve_summary(self) -> dict:
        raw = [x for s in self.segments for x in s["latencies"]]
        latencies = [
            self.scaled_latency(due, x)
            for s in self.segments
            for due, x in zip(s["dues"], s["latencies"])
        ]
        late = [x for s in self.segments for x in s["late"]]
        served = [x for s in self.segments for x in s["served"]]
        window_p99s = [
            quantile(latencies[i:i + P99_WINDOW], 0.99) * 1e3
            for i in range(0, len(latencies), P99_WINDOW)
        ]
        parts = BURST_SIZE // BURST_PART
        burst_sent = len(self.bursts) * BURST_PART
        burst_done = sum(done for *_, done in self.bursts)
        burst_wall = sum(end - start for start, end, _ in self.bursts)
        burst_scaled = sum(self.scaled(a, b) for a, b, _ in self.bursts)
        train = self.reports[self.warm_iterations:]
        train_wall = sum(r.end - r.start for r in train)
        serve_wall = burst_wall + sum(b - a for a, b in
                                      (s["window"] for s in self.segments))
        return {
            "sent": len(self.trace),
            "measured": len(latencies),
            "failed": self.warm_failed
            + sum(s["failed"] for s in self.segments),
            "p50_ms": quantile(latencies, 0.50) * 1e3,
            "p99_ms": statistics.median(window_p99s),
            "window_p99_ms": window_p99s,
            "pooled_p99_ms": quantile(latencies, 0.99) * 1e3,
            "raw_p50_ms": quantile(raw, 0.50) * 1e3,
            "raw_p99_ms": quantile(raw, 0.99) * 1e3,
            "slo_share": sum(x <= SLO_S for x in latencies) / len(latencies),
            "cache_hit_ratio": sum(hit for *_, hit in served)
            / max(len(served), 1),
            "occupancy": len(latencies)
            / max(sum(s["batches"] for s in self.segments), 1),
            "generator_late_p99_ms": quantile(late, 0.99) * 1e3,
            "windows": [s["window"] for s in self.segments],
            "burst_sent": burst_sent,
            "burst_failed": burst_sent - burst_done,
            "burst_rates": [
                sum(done for *_, done in burst)
                / sum(self.scaled(a, b) for a, b, _ in burst)
                for burst in (self.bursts[i:i + parts]
                              for i in range(0, len(self.bursts), parts))
            ],
            "burst_rps": burst_done / burst_scaled,
            "raw_burst_rps": burst_done / burst_wall,
            "burst_scaled_s": burst_scaled,
            "serving_share": serve_wall / (serve_wall + train_wall),
        }

    def served(self) -> list[tuple[int, object]]:
        return [(node, logits) for s in self.segments
                for node, logits, _ in s["served"]]


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def losses_match(actual, expected) -> bool:
    return all(
        math.isclose(a, e, rel_tol=LOSS_RTOL, abs_tol=LOSS_RTOL)
        for a, e in zip(actual, expected)
    )


def check_losses(w: Workload, dataset, seed: int, losses,
                 n_first: int, recorded) -> list[str]:
    """Finite curve; equal to the recorded curve and a reference path.

    The reference trainer runs the first epoch's batches with
    ``CHECK_BACKEND`` at K=1: a different K or backend must give the
    same losses (Algorithm 2's full-batch equivalence).
    """
    from repro.training import TrainingLoop

    failures = []
    if not all(math.isfinite(x) for x in losses):
        failures.append("loss curve has a non-finite value")
    if recorded is not None and not losses_match(losses, recorded):
        failures.append(
            f"loss curve differs from the recorded one (rtol {LOSS_RTOL})")
    reference = make_trainer(w, dataset, seed, CHECK_BUDGET_GB,
                             CHECK_BACKEND)
    reports = record_reports(reference)
    TrainingLoop(trainer=reference, dataset=dataset,
                 batch_size=w.batch_size, seed=seed).run(1)
    expected = [r.loss for r in reports][:n_first]
    if not losses_match(losses[:n_first], expected):
        failures.append(
            f"first-epoch losses differ from the {CHECK_BACKEND} trainer "
            f"at K=1 (rtol {LOSS_RTOL})")
    return failures


def check_serving(w: Workload, model, dataset, seed: int,
                  served) -> list[str]:
    """Batched predictions must equal unbatched ones, bit for bit.

    A probe set served in one batch is compared with the same nodes
    served one at a time (caches off, so every row is computed), and
    the first ``N_SERVED`` distinct nodes the open loop answered are
    compared with an unbatched prediction.
    """
    import numpy as np

    failures = []
    rng = np.random.default_rng(seed)
    probe = rng.choice(dataset.train_nodes, size=N_PROBE, replace=False)
    batched, _ = make_engine(w, model, dataset, seed, 0).predict_batch(probe)
    single = make_engine(w, model, dataset, seed, 0)
    for row, node in zip(batched, probe):
        if not np.array_equal(row, single.predict_one(int(node))):
            failures.append(f"probe node {int(node)}: batched != unbatched")
    seen = set()
    for node, logits in served:
        if node in seen:
            continue
        seen.add(node)
        if not np.array_equal(logits, single.predict_one(node)):
            failures.append(f"served node {node}: response != unbatched")
        if len(seen) == N_SERVED:
            break
    return failures
