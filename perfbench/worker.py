"""One benchmark process: set up, train, serve, check; write JSON.

``run.py`` starts this in a fresh interpreter with the environment
already pinned, so ``OPENBLAS_NUM_THREADS`` is set before numpy loads.
Modes:

* ``run`` — the whole workload; with ``--trace 1`` the public entry
  points are wrapped first and per-layer metrics are reported;
* ``setup`` — set-up only, for the ``setup_s`` median;
* ``build-store`` — the offline store build (not timed);
* ``curve`` — set-up and one warm-up plus one measured epoch, for
  recording the expected loss curve.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# Every thread of a worker runs on one CPU: the two CPUs of a shared
# VM shift speed independently, and the host probe must time the core
# the measured work runs on (see hostspeed.py).
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    MiB,
    WORKLOADS,
    build_store_for,
    check_losses,
    Run,
    check_serving,
    make_trainer,
    open_data,
)

EXPECTED_LOSSES = HERE / "expected_losses.json"

#: Host probes timed right after set-up; ``setup_s`` is scaled by
#: their mean (see hostspeed.py).
SETUP_PROBES = 3


def env_info() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "kernel_calibration": os.environ.get("REPRO_KERNEL_CALIBRATION"),
    }


def install_tracing(tracer: Tracer, queue_waits: list) -> None:
    """Wrap each layer's public entry points (see README.md)."""
    from repro.core import (BuffaloScheduler, BuffaloTrainer,
                            MicroBatchTrainer, generate_blocks_fast,
                            generate_micro_batches)
    from repro.datasets import Dataset
    from repro.gnn import GAT, GraphSAGE
    from repro.graph.sampling import sample_batch
    from repro.kernels import FusedBackend, ReferenceBackend
    from repro.nn import SGD, Adam
    from repro.serve import RequestQueue, ServeEngine
    from repro.store import FeatureStore
    from repro.tensor import Tensor

    def rows(args, kwargs):
        return len(args[1])

    def edges(args, kwargs):
        bucket = args[2]
        return bucket.rows.size * bucket.degree

    tracer.wrap(Dataset, "stats", "graph.clustering")
    tracer.wrap(BuffaloTrainer, "run_iteration", "trainer.iteration")
    tracer.wrap(FeatureStore, "gather", "store.gather", rows)
    tracer.wrap(FeatureStore, "prefetch", "store.prefetch", rows)
    tracer.wrap_everywhere(sample_batch, "graph.sample")
    tracer.wrap_everywhere(generate_blocks_fast, "fastblock.generate")
    tracer.wrap(BuffaloScheduler, "schedule", "scheduler.schedule")
    tracer.wrap_everywhere(generate_micro_batches, "microbatch.generate")
    tracer.wrap(MicroBatchTrainer, "train_micro_batch", "trainer.micro_batch")
    for model in (GraphSAGE, GAT):
        tracer.wrap(model, "__call__", "trainer.forward")
    tracer.wrap(Tensor, "backward", "trainer.backward")
    for optimizer in (SGD, Adam):
        tracer.wrap(optimizer, "step", "trainer.optimizer")
    for backend in (ReferenceBackend, FusedBackend):
        for method in ("bucket_reduce", "bucket_weighted_sum",
                       "bucket_attention_sum", "neighbor_tensor"):
            tracer.wrap(backend, method, "kernels.forward", edges)
    tracer.wrap(ServeEngine, "predict_batch", "serve.predict_batch")

    def on_take(batch, args):
        if batch:
            now = time.perf_counter()
            queue_waits.append(
                (now, [now - p.request.arrival_s for p in batch]))

    tracer.observe(RequestQueue, "take_batch", on_take)
    tracer.install_gc()


def layer_metrics(tracer: Tracer, since: float, train_res: dict,
                  serve_res: dict, queue_waits: list, store) -> dict:
    """Per-layer metrics of the measured phases (after warm-up)."""
    setup = tracer.summary()
    spans = tracer.summary(since)

    def self_s(name, summary=spans):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    windows = serve_res["windows"]
    batch_ms = [
        d * 1e3 for start, end in windows
        for d in tracer.durations("serve.predict_batch", start, end)
    ]
    waits = [w * 1e3 for t, ws in queue_waits
             if any(start <= t <= end for start, end in windows)
             for w in ws]
    iteration_s = spans.get("trainer.iteration", {}).get("total_s", 0.0)
    unattributed = self_s("trainer.iteration")
    return {
        "datasets.load_s": self_s("datasets.load", setup),
        "graph.clustering_s": self_s("graph.clustering", setup),
        "store.gather_s": self_s("store.gather"),
        "store.gather_rows": spans.get("store.gather", {}).get("count", 0),
        "store.prefetch_s": self_s("store.prefetch"),
        "store.read_mib": store.bytes_read / MiB if store else 0.0,
        "store.hot_hit_ratio": store.hot_hit_rate if store else 0.0,
        "graph.sample_s": self_s("graph.sample"),
        "graph.sample_calls": calls("graph.sample"),
        "fastblock.generate_s": self_s("fastblock.generate"),
        "fastblock.calls": calls("fastblock.generate"),
        "scheduler.schedule_s": self_s("scheduler.schedule"),
        "scheduler.k_per_batch": train_res["k_per_batch"],
        "scheduler.est_to_peak": train_res["est_to_peak"],
        "microbatch.generate_s": self_s("microbatch.generate"),
        "trainer.micro_batch_s": self_s("trainer.micro_batch"),
        "trainer.micro_batches": calls("trainer.micro_batch"),
        "trainer.gc_s": self_s("trainer.gc"),
        "trainer.gc_collections": calls("trainer.gc"),
        "trainer.forward_s": self_s("trainer.forward"),
        "trainer.backward_s": self_s("trainer.backward"),
        "trainer.optimizer_s": self_s("trainer.optimizer"),
        "kernels.forward_s": self_s("kernels.forward"),
        "kernels.calls": calls("kernels.forward"),
        "kernels.edges": spans.get("kernels.forward", {}).get("count", 0),
        "device.oom_retries": train_res["oom_retries"],
        "serve.predict_batch_ms": statistics.median(batch_ms) if batch_ms else 0.0,
        "serve.queue_wait_ms": statistics.median(waits) if waits else 0.0,
        "serve.batch_occupancy": serve_res["occupancy"],
        "serve.cache_hit_ratio": serve_res["cache_hit_ratio"],
        "serve.generator_late_ms": serve_res["generator_late_p99_ms"],
        "trainer.iteration_s": iteration_s,
        "unattributed_s": unattributed,
        "trace.attributed_share": (
            1.0 - unattributed / iteration_s if iteration_s else 0.0
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("run", "setup", "build-store", "curve"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store", type=Path)
    parser.add_argument("--spawned-at", type=float, default=time.time())
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    result: dict = {"workload": w.name, "seed": args.seed}
    run_dir = args.out.parent

    if args.mode == "build-store":
        build_store_for(w, args.seed, args.store)
        args.out.write_text(json.dumps(result))
        return 0

    tracer = Tracer()
    queue_waits: list = []
    if args.trace:
        install_tracing(tracer, queue_waits)
    with tracer.span("datasets.load"):
        dataset = open_data(w, args.seed, args.store)
    trainer = make_trainer(w, dataset, args.seed, w.budget_gb, w.backend)
    setup_wall = time.time() - args.spawned_at
    speed = HostSpeed()
    for _ in range(SETUP_PROBES):
        speed.probe()
    result["raw_setup_s"] = setup_wall
    result["setup_s"] = (setup_wall * REFERENCE_S
                         / statistics.fmean(speed.walls))
    result["env"] = env_info()
    if args.mode == "setup":
        args.out.write_text(json.dumps(result))
        return 0

    n_rounds = w.rounds(args.seconds)
    run = Run(w, args.seed, dataset, trainer, n_rounds,
              run_dir / "serve-model.npz")
    if args.mode == "curve":
        for _ in range(1 + w.epochs_per_round):
            run.train_epoch()
        result["train"] = {"losses": [r.loss for r in run.reports]}
        args.out.write_text(json.dumps(result))
        return 0

    run.warm_up()
    since = time.perf_counter()
    store = trainer.store
    if store is not None:
        store.reset_stats()
    for index in range(n_rounds):
        run.run_round(index)
    result["rounds"] = n_rounds
    result["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    result["train"] = run.train_summary()
    result["serve"] = run.serve_summary()
    walls = [w * 1e3 for w in run.speed.walls]
    result["host_speed"] = {
        "probes": len(walls),
        "min_ms": min(walls),
        "median_ms": statistics.median(walls),
        "max_ms": max(walls),
        "reference_ms": REFERENCE_S * 1e3,
    }
    if store is not None:
        result["store"] = {
            "read_mib": store.bytes_read / MiB,
            "hot_hit_ratio": store.hot_hit_rate,
        }
    if args.trace:
        result["layers"] = layer_metrics(tracer, since, result["train"],
                                         result["serve"], queue_waits, store)
        tracer.uninstall()
        tracer.write(run_dir / "spans.jsonl")

    recorded = None
    if EXPECTED_LOSSES.is_file():
        table = json.loads(EXPECTED_LOSSES.read_text())
        recorded = table.get(w.name, {}).get(str(args.seed))
    result["recorded_curve"] = recorded is not None
    result["failures"] = check_losses(
        w, dataset, args.seed, result["train"]["losses"],
        result["train"]["warm_iterations"], recorded,
    ) + check_serving(w, run.model, dataset, args.seed, run.served())
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
