"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, main


class TestDatasets:
    def test_prints_all(self, capsys):
        assert main(["datasets", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        for name in ("cora", "ogbn_papers", "reddit"):
            assert name in out


class TestTrain:
    def test_trains(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "cora",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--batch-size",
                "30",
                "--fanouts",
                "5,5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "loss=" in out

    def test_with_eval_and_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "model.npz"
        code = main(
            [
                "train",
                "--dataset",
                "cora",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--batch-size",
                "30",
                "--fanouts",
                "5,5",
                "--eval",
                "--checkpoint",
                str(ckpt),
            ]
        )
        assert code == 0
        assert "val_acc=" in capsys.readouterr().out
        assert ckpt.exists()

    def test_pipeline_and_reuse_flags(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "cora",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--batch-size",
                "30",
                "--fanouts",
                "5,5",
                "--pipeline-depth",
                "2",
                "--reuse-features",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out
        assert "feature-cache hit rate" in out

    def test_sync_pipeline_mode(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "cora",
                "--scale",
                "0.2",
                "--epochs",
                "1",
                "--batch-size",
                "30",
                "--fanouts",
                "5,5",
                "--pipeline-mode",
                "sync",
            ]
        )
        assert code == 0
        assert "epoch 0" in capsys.readouterr().out

    def test_fanout_mismatch_exits(self):
        with pytest.raises(SystemExit):
            main(
                [
                    "train",
                    "--layers",
                    "3",
                    "--fanouts",
                    "5,5",
                    "--dataset",
                    "cora",
                ]
            )

    def test_bad_fanouts_exit(self):
        with pytest.raises(SystemExit):
            main(["train", "--fanouts", "ten,five", "--dataset", "cora"])


class TestMultiDeviceTrain:
    SMOKE = [
        "train",
        "--dataset",
        "cora",
        "--scale",
        "0.2",
        "--epochs",
        "1",
        "--batch-size",
        "30",
        "--fanouts",
        "5,5",
    ]

    def test_rejects_zero_devices(self):
        with pytest.raises(SystemExit, match="--devices"):
            main(self.SMOKE + ["--devices", "0"])

    @pytest.mark.parametrize(
        "flags",
        [
            ["--reuse-features"],
            ["--ledger"],
            ["--pipeline-depth", "2"],
            ["--pipeline-mode", "sync"],
            ["--kernel-backend", "fused"],
            ["--feature-cache-bytes", "1000"],
            ["--parallel", "data", "--timeline", "t.jsonl"],
        ],
    )
    def test_rejects_incompatible_flags(self, flags):
        with pytest.raises(SystemExit, match="does not support"):
            main(self.SMOKE + ["--devices", "2"] + flags)

    def test_split_smoke_emits_device_metrics(self, capsys, tmp_path):
        import json

        from repro.obs.schema import METRIC_NAMES

        metrics_path = tmp_path / "metrics.json"
        code = main(
            self.SMOKE
            + [
                "--devices",
                "2",
                "--parallel",
                "split",
                "--metrics",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 devices (split-parallel)" in out
        assert "halo" in out
        snapshot = json.loads(metrics_path.read_text())["metrics"]
        emitted = {
            name
            for name in snapshot
            if name.startswith("buffalo.device.")
        }
        assert emitted == {
            "buffalo.device.count",
            "buffalo.device.peak_bytes",
            "buffalo.device.halo_bytes",
            "buffalo.device.allreduce_bytes",
            "buffalo.device.halo_exchange_s",
            "buffalo.device.allreduce_s",
        }
        # Every emitted name is schema-registered (metric-name lint).
        assert emitted <= METRIC_NAMES
        assert snapshot["buffalo.device.count"]["value"] == 2
        assert snapshot["buffalo.device.allreduce_bytes"]["value"] > 0

    def test_data_parallel_smoke(self, capsys):
        code = main(
            self.SMOKE + ["--devices", "2", "--parallel", "data"]
        )
        assert code == 0
        assert "(data-parallel)" in capsys.readouterr().out


class TestSchedule:
    def test_prints_plan(self, capsys):
        code = main(
            [
                "schedule",
                "--dataset",
                "ogbn_arxiv",
                "--scale",
                "0.05",
                "--n-seeds",
                "100",
                "--fanouts",
                "5,5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bucket groups" in out
        assert "group 0" in out


class TestServe:
    SMOKE = [
        "serve",
        "--dataset",
        "cora",
        "--scale",
        "0.2",
        "--requests",
        "40",
        "--fanouts",
        "3,4",
        "--hidden",
        "16",
    ]

    def test_serves_generated_trace(self, capsys, tmp_path):
        import json

        metrics = tmp_path / "m.json"
        code = main(self.SMOKE + ["--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "served 40/40 requests" in out
        assert "latency p50" in out
        payload = json.loads(metrics.read_text())
        assert "buffalo.serve.requests_total" in payload["metrics"]
        assert "buffalo.serve.batch_occupancy" in payload["metrics"]

    def test_trace_output_validates(self, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(self.SMOKE + ["--trace", str(trace)]) == 0
        from repro.obs.schema import validate_trace_file

        assert validate_trace_file(str(trace)) > 0

    def test_submits_at_trace_arrival_times(self, capsys, monkeypatch):
        import time

        from repro.serve import LoadSpec, ServeServer, generate_trace

        started, submitted = [], []
        start, submit = ServeServer.start, ServeServer.submit

        def timed_start(server):
            started.append(time.perf_counter())
            return start(server)

        def timed_submit(server, node):
            submitted.append(time.perf_counter())
            return submit(server, node)

        monkeypatch.setattr(ServeServer, "start", timed_start)
        monkeypatch.setattr(ServeServer, "submit", timed_submit)
        n, rate = 8, 40.0
        args = list(self.SMOKE)
        args[args.index("--requests") + 1] = str(n)
        assert main(args + ["--rate-hz", str(rate)]) == 0
        assert f"served {n}/{n} requests" in capsys.readouterr().out
        # Same seed (0) and node pool as the CLI's generated trace.
        from repro.datasets import load

        pool = load("cora", scale=0.2, seed=0).train_nodes
        trace = generate_trace(
            LoadSpec(n_requests=n, rate_hz=rate, seed=0), pool
        )
        assert len(started) == 1 and len(submitted) == n
        assert submitted[-1] - started[0] >= trace[-1].arrival_s

    def test_rejects_bad_knobs(self):
        with pytest.raises(SystemExit):
            main(self.SMOKE + ["--max-batch", "0"])
        with pytest.raises(SystemExit):
            main(self.SMOKE + ["--max-wait-ms", "-1"])


class TestObservabilityFlags:
    def test_schedule_writes_trace_and_metrics(self, capsys, tmp_path):
        import json

        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        code = main(
            [
                "schedule",
                "--dataset",
                "ogbn_arxiv",
                "--scale",
                "0.05",
                "--n-seeds",
                "100",
                "--fanouts",
                "5,5",
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace written" in out and "metrics written" in out

        from repro.obs.schema import validate_trace_file

        assert validate_trace_file(str(trace)) > 0
        payload = json.loads(metrics.read_text())
        assert "buffalo.groups_per_schedule" in payload["metrics"]

    def test_trace_summarize_unknown_file_exits(self):
        with pytest.raises(SystemExit):
            main(["trace", "summarize", "/no/such/trace.jsonl"])

    def test_trace_summarize_garbage_file_exits_cleanly(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("garbage not json\n")
        with pytest.raises(SystemExit, match="not a JSONL trace"):
            main(["trace", "summarize", str(bad)])

    def test_unwritable_trace_path_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot write trace"):
            main(
                [
                    "schedule",
                    "--dataset",
                    "cora",
                    "--scale",
                    "0.05",
                    "--n-seeds",
                    "50",
                    "--fanouts",
                    "5,5",
                    "--trace",
                    "/no/such/dir/t.jsonl",
                ]
            )


class TestExperiment:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_no_name_lists(self, capsys):
        assert main(["experiment"]) == 0
        assert "fig10" in capsys.readouterr().out

    def test_unknown_name_exits(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_runs_fig01(self, capsys):
        assert main(["experiment", "fig01"]) == 0
        out = capsys.readouterr().out
        assert "Fig 1" in out
        assert "[PASS]" in out

    def test_split_scaling_registered(self):
        assert "split_scaling" in EXPERIMENTS

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestStoreCommands:
    def _build(self, tmp_path, capsys):
        dest = tmp_path / "cora.store"
        assert (
            main(
                [
                    "store",
                    "build",
                    "cora",
                    str(dest),
                    "--scale",
                    "0.1",
                    "--shard-rows",
                    "64",
                ]
            )
            == 0
        )
        return dest

    def test_build_and_info(self, capsys, tmp_path):
        dest = self._build(tmp_path, capsys)
        out = capsys.readouterr().out
        assert "built store" in out
        assert main(["store", "info", str(dest), "--verify"]) == 0
        out = capsys.readouterr().out
        assert "checksums: verified" in out
        assert "cora" in out

    def test_info_json(self, capsys, tmp_path):
        import json

        dest = self._build(tmp_path, capsys)
        capsys.readouterr()
        assert main(["store", "info", str(dest), "--json"]) == 0
        info = json.loads(capsys.readouterr().out)
        assert info["dataset"] == "cora"
        assert info["n_shards"] >= 1

    def test_build_from_npz(self, capsys, tmp_path):
        from repro.datasets import load, save_dataset

        save_dataset(tmp_path / "d.npz", load("cora", scale=0.1, seed=0))
        dest = tmp_path / "d.store"
        assert main(["store", "build", str(tmp_path / "d.npz"), str(dest)]) == 0

    def test_train_with_data_store(self, capsys, tmp_path):
        dest = self._build(tmp_path, capsys)
        code = main(
            [
                "train",
                "--data-store",
                str(dest),
                "--epochs",
                "1",
                "--batch-size",
                "20",
                "--fanouts",
                "4,4",
                "--hot-cache-mb",
                "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "feature store:" in out
        assert "hot-cache hit rate" in out


class TestFriendlyErrors:
    """Bad inputs exit with a one-line message, not a traceback."""

    def test_nonexistent_store_path(self, tmp_path):
        with pytest.raises(SystemExit, match="no such dataset store"):
            main(
                [
                    "train",
                    "--data-store",
                    str(tmp_path / "missing.store"),
                    "--epochs",
                    "1",
                ]
            )

    def test_dir_that_is_not_a_store(self, tmp_path):
        with pytest.raises(SystemExit, match="not a dataset store"):
            main(
                ["train", "--data-store", str(tmp_path), "--epochs", "1"]
            )

    def test_store_build_missing_source_file(self, tmp_path):
        with pytest.raises(SystemExit, match="no such dataset file"):
            main(
                [
                    "store",
                    "build",
                    str(tmp_path / "missing.npz"),
                    str(tmp_path / "out.store"),
                ]
            )

    def test_store_info_missing_path(self, tmp_path):
        with pytest.raises(SystemExit, match="no such dataset store"):
            main(["store", "info", str(tmp_path / "missing.store")])

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--budget-gb", "0"),
            ("--budget-gb", "-1"),
            ("--feature-cache-bytes", "0"),
            ("--feature-cache-bytes", "-5"),
            ("--hot-cache-mb", "-0.5"),
            ("--host-budget-mb", "0"),
        ],
    )
    def test_non_positive_budgets_exit(self, flag, value):
        with pytest.raises(SystemExit, match="must be positive") as excinfo:
            main(
                [
                    "train",
                    "--dataset",
                    "cora",
                    "--scale",
                    "0.1",
                    "--epochs",
                    "1",
                    flag,
                    value,
                ]
            )
        msg = str(excinfo.value)
        assert flag in msg and value in msg
        assert "\n" not in msg  # one-line, friendly

    def test_schedule_non_positive_budget(self):
        with pytest.raises(SystemExit, match="must be positive"):
            main(
                [
                    "schedule",
                    "--dataset",
                    "cora",
                    "--scale",
                    "0.1",
                    "--budget-gb",
                    "0",
                ]
            )
