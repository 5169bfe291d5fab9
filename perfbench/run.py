"""Repository benchmark: out-of-core training, GAT training, serving.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload train-tight --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run and the tracing overhead.  The last
line of standard output is one JSON object; the exit code is non-zero
when a correctness check fails.  See README.md.

Every measurement runs in a child interpreter (``worker.py``) started
with a pinned environment, so set-up time counts from process start.

Maintenance: ``--record-losses SEED [SEED ...]`` re-records the
expected loss curves of ``--workload`` for those seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from workloads import P99_WINDOW, WORKLOADS  # noqa: E402

#: The whole command must end within this many seconds.
DEADLINE_S = 170.0

#: Set-up-only processes started after the measured one; ``setup_s`` is
#: the median of all set-ups.
EXTRA_SETUPS = 4

END_TO_END = {
    "setup_s": "s",
    "train_seeds_per_s": "seeds/s",
    "peak_device_mib": "MiB",
    "peak_rss_mib": "MiB",
    "serve_p50_ms": "ms",
    "serve_p99_ms": "ms",
    "serve_slo_share": "ratio",
    "serve_burst_rps": "req/s",
}

PER_LAYER = {
    "datasets.load_s": "s",
    "graph.clustering_s": "s",
    "store.gather_s": "s",
    "store.gather_rows": "count",
    "store.prefetch_s": "s",
    "store.read_mib": "MiB",
    "store.hot_hit_ratio": "ratio",
    "graph.sample_s": "s",
    "graph.sample_calls": "count",
    "fastblock.generate_s": "s",
    "fastblock.calls": "count",
    "scheduler.schedule_s": "s",
    "scheduler.k_per_batch": "count",
    "scheduler.est_to_peak": "ratio",
    "microbatch.generate_s": "s",
    "trainer.micro_batch_s": "s",
    "trainer.micro_batches": "count",
    "trainer.gc_s": "s",
    "trainer.gc_collections": "count",
    "trainer.forward_s": "s",
    "trainer.backward_s": "s",
    "trainer.optimizer_s": "s",
    "kernels.forward_s": "s",
    "kernels.calls": "count",
    "kernels.edges": "count",
    "device.oom_retries": "count",
    "serve.predict_batch_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.batch_occupancy": "ratio",
    "serve.cache_hit_ratio": "ratio",
    "serve.generator_late_ms": "ms",
    "trainer.iteration_s": "s",
    "unattributed_s": "s",
    "trace.attributed_share": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """A worker failed or the run cannot proceed."""


class Runner:
    """Starts worker processes under one pinned environment."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.run_dir = WORK / f"run-{workload}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.run_dir.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env.update(
            OPENBLAS_NUM_THREADS="1",
            # A path that never exists: a host tuned with
            # `repro bench kernels --tune` cannot change dispatch.
            REPRO_KERNEL_CALIBRATION=str(self.run_dir / "no-calibration.json"),
        )
        self.env.pop("PYTHONPATH", None)
        self.calls = 0

    def worker(self, mode: str, **options) -> dict:
        self.calls += 1
        out = self.run_dir / f"{mode}-{self.calls}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", self.workload, "--seed", str(self.seed),
               "--out", str(out)]
        for key, value in options.items():
            cmd += [f"--{key.replace('_', '-')}", str(value)]
        cmd += ["--spawned-at", repr(time.time())]
        remaining = self.deadline - time.monotonic()
        if remaining <= 1:
            raise BenchError(f"no time left for the {mode} process")
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT,
                                  timeout=remaining, stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process exceeded the deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} process exited {proc.returncode}")
        return json.loads(out.read_text())

    def store(self) -> Path | None:
        """Build the workload's on-disk store for this seed.

        The store is keyed by the seed and a hash of the code that
        builds it, so a store written by other code is never reused.
        Only the latest store is kept, so disk use stays bounded however
        many seeds are run.  Its files are read once before any measured
        process starts, so every set-up finds them in the page cache.
        """
        if not WORKLOADS[self.workload].out_of_core:
            return None
        path = WORK / f"store-{self.workload}-s{self.seed}-{source_hash()}"
        done = path / ".complete"
        if not done.is_file():
            for old in WORK.glob(f"store-{self.workload}-s*"):
                shutil.rmtree(old)
            self.worker("build-store", store=path)
            done.write_text("")
        for file in sorted(path.rglob("*")):
            if file.is_file():
                file.read_bytes()
        return path


def source_hash() -> str:
    """Hash of the code a store build can run: every ``src/repro``
    module and the benchmark's workload definitions."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "repro").rglob("*.py"))
    for file in files + [HERE / "workloads.py"]:
        digest.update(str(file.relative_to(ROOT)).encode())
        digest.update(file.read_bytes())
    return digest.hexdigest()[:12]


def spread_note(values) -> str:
    return " ".join(f"{v:.4g}" for v in values)


def run_untraced(runner: Runner, args, store) -> tuple[dict, dict]:
    store_opt = {"store": store} if store else {}
    extra = [runner.worker("setup", **store_opt)
             for _ in range(EXTRA_SETUPS // 2)]
    res = runner.worker("run", seconds=args.seconds, **store_opt)
    extra += [runner.worker("setup", **store_opt)
              for _ in range(EXTRA_SETUPS - EXTRA_SETUPS // 2)]
    setups = [r["setup_s"] for r in [res] + extra]
    print(f"setup_s samples: {spread_note(setups)} (unscaled "
          f"{spread_note(r['raw_setup_s'] for r in [res] + extra)})")
    metrics = {
        "setup_s": statistics.median(setups),
        "train_seeds_per_s": res["train"]["seeds_per_s"],
        "peak_device_mib": res["train"]["peak_device_mib"],
        "peak_rss_mib": res["peak_rss_mib"],
        "serve_p50_ms": res["serve"]["p50_ms"],
        "serve_p99_ms": res["serve"]["p99_ms"],
        "serve_slo_share": res["serve"]["slo_share"],
        "serve_burst_rps": res["serve"]["burst_rps"],
    }
    return res, metrics


def run_traced(runner: Runner, args, store) -> tuple[dict, dict]:
    """An untraced and a traced run of the same fixed work.

    Each gets half of ``--seconds``; the overhead is the traced minus
    the untraced wall of the training and burst phases (the open
    loop's wall is fixed by its schedule).
    """
    store_opt = {"store": store} if store else {}
    half = args.seconds / 2
    base = runner.worker("run", seconds=half, **store_opt)
    res = runner.worker("run", seconds=half, trace=1, **store_opt)
    for r in (base, res):
        r["timed_wall_s"] = (r["train"]["scaled_wall_s"]
                             + r["serve"]["burst_scaled_s"])
    metrics = dict(res["layers"])
    metrics["trace.overhead_s"] = res["timed_wall_s"] - base["timed_wall_s"]
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s on "
          f"{base['timed_wall_s']:.3f} s untraced (train + burst wall, "
          f"scaled to the reference host speed); "
          f"iteration wall attributed to named layers: "
          f"{metrics['trace.attributed_share']:.1%}")
    print(f"spans written to {runner.run_dir / 'spans.jsonl'}")
    res["failures"] = base["failures"] + res["failures"]
    return res, metrics


def report(res: dict) -> None:
    """Human-readable context lines (everything but the metrics)."""
    env = res["env"]
    print(f"env: nproc={env['nproc']} affinity={env['affinity']} "
          f"python={env['python']} numpy={env['numpy']} blas={env['blas']} "
          f"OPENBLAS_NUM_THREADS={env['openblas_threads']} "
          f"REPRO_KERNEL_CALIBRATION={env['kernel_calibration']}")
    train, serve = res["train"], res["serve"]
    print(f"rounds: {res['rounds']}; serving (open loop + burst) took "
          f"{serve['serving_share']:.0%} of the round wall")
    speed = res["host_speed"]
    print(f"host probe: {speed['probes']} probes, wall min "
          f"{speed['min_ms']:.2f} median {speed['median_ms']:.2f} max "
          f"{speed['max_ms']:.2f} ms (reference {speed['reference_ms']:.2f} "
          f"ms); unscaled: train {train['raw_seeds_per_s']:.4g} seeds/s, "
          f"p50 {serve['raw_p50_ms']:.4g} ms, p99 {serve['raw_p99_ms']:.4g} "
          f"ms, burst {serve['raw_burst_rps']:.4g} req/s")
    print(f"train: {train['iterations']} iterations "
          f"({train['warm_iterations']} warm-up), seeds/s per round "
          f"{spread_note(train['round_rates'])}, K median "
          f"{train['k_per_batch']}, OOM re-plans (retries) "
          f"{train['oom_retries']}")
    print(f"serve open loop: sent {serve['sent']} succeeded "
          f"{serve['sent'] - serve['failed']} failed {serve['failed']}; "
          f"{serve['measured']} latency samples after "
          f"{serve['sent'] - serve['measured']} warm-up; p99 per window "
          f"of {P99_WINDOW} {spread_note(serve['window_p99_ms'])} ms, "
          f"pooled {serve['pooled_p99_ms']:.4g} ms; cache hits "
          f"{serve['cache_hit_ratio']:.1%}; {serve['occupancy']:.2f} "
          f"requests/batch; generator late p99 "
          f"{serve['generator_late_p99_ms']:.2f} ms")
    print(f"serve burst: sent {serve['burst_sent']} succeeded "
          f"{serve['burst_sent'] - serve['burst_failed']} failed "
          f"{serve['burst_failed']}; req/s per burst "
          f"{spread_note(serve['burst_rates'])}")
    if "store" in res:
        print(f"store: {res['store']['read_mib']:.1f} MiB read, hot-cache "
              f"hits {res['store']['hot_hit_ratio']:.1%}")
    print(f"loss curve checked against the recorded curve: "
          f"{'yes' if res['recorded_curve'] else 'no (seed not recorded)'}")
    for failure in res["failures"]:
        print(f"CHECK FAILED: {failure}")


def record_losses(workload: str, seeds: list[int]) -> int:
    path = HERE / "expected_losses.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for seed in seeds:
        runner = Runner(workload, seed)
        store = runner.store()
        res = runner.worker("curve", **({"store": store} if store else {}))
        table.setdefault(workload, {})[str(seed)] = res["train"]["losses"]
        print(f"{workload} seed {seed}: {len(res['train']['losses'])} losses")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-losses", type=int, nargs="+",
                        metavar="SEED")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_losses:
        return record_losses(args.workload, args.record_losses)
    runner = Runner(args.workload, args.seed)
    try:
        store = runner.store()
        if args.trace:
            res, metrics = run_traced(runner, args, store)
            units = PER_LAYER
        else:
            res, metrics = run_untraced(runner, args, store)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3
    report(res)
    serve = res["serve"]
    failed = serve["failed"] + serve["burst_failed"] + len(res["failures"])
    attempted = (res["train"]["iterations"] + serve["sent"]
                 + serve["burst_sent"])
    correct = not res["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
