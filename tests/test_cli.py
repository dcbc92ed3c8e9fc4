"""Tests for the hbm-repro CLI."""

import pytest

from repro._cli import _parse_params, build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2a" in out and "tab2b" in out

    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "spgemm" in out and "sort" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_rejects_unknown_id(self, capsys):
        assert main(["run", "not-an-experiment"]) == 2
        assert "unknown experiment ids" in capsys.readouterr().err


class TestParamParsing:
    def test_types_inferred(self):
        params = _parse_params(["n=100", "density=0.25", "coalesce=true", "tag=x"])
        assert params == {"n": 100, "density": 0.25, "coalesce": True, "tag": "x"}

    def test_rejects_missing_equals(self):
        with pytest.raises(SystemExit):
            _parse_params(["oops"])


class TestRunCommands:
    def test_simulate_prints_summary(self, capsys):
        code = main(
            [
                "simulate",
                "adversarial_cycle",
                "--threads",
                "4",
                "--hbm-slots",
                "32",
                "--param",
                "pages=16",
                "--param",
                "repeats=2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_run_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "thm4",
                "--scale",
                "smoke",
                "--output-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "thm4.csv").exists()
        assert (tmp_path / "thm4.txt").exists()
        assert "[PASS]" in capsys.readouterr().out

    def test_profile_prints_locality(self, capsys):
        code = main(
            [
                "profile",
                "adversarial_cycle",
                "--param",
                "pages=16",
                "--param",
                "repeats=3",
                "--capacities",
                "8,16",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out
        assert "reuse distance" in out

    SIMULATE_ARGV = [
        "simulate",
        "adversarial_cycle",
        "--threads",
        "4",
        "--hbm-slots",
        "32",
        "--param",
        "pages=16",
        "--param",
        "repeats=2",
    ]

    def test_simulate_rejects_unknown_engine(self):
        # simulate has no engine flag: it always runs the reference
        # engine, and --engine is an unknown argument
        with pytest.raises(SystemExit):
            main(self.SIMULATE_ARGV + ["--engine", "reference"])

    def test_run_engine_flags_restore_defaults(self, capsys):
        # campaigns have no engine flag: every job runs on the reference
        # engine
        with pytest.raises(SystemExit):
            main(["run", "thm4", "--engine", "reference"])
        capsys.readouterr()
        code = main(["run", "thm4", "--no-result-cache"])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_run_exit_code_on_failed_checks(self, monkeypatch, capsys):
        from repro.experiments import registry
        from repro.experiments.base import Campaign, Reduction

        fake = Campaign.local(
            "thm4",
            "fake",
            lambda ctx: Reduction(rows=[], checks={"doomed": False}, text=""),
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "thm4", (fake, "fake"))
        assert main(["run", "thm4"]) == 1
        assert "FAILED shape checks" in capsys.readouterr().err


class TestEachCampaignOnce:
    """One ``repro run`` simulates each campaign at most once: a
    composite and its panels, or Table 1 and Figure 5, share one sweep
    (with no store to replay from, a second run would simulate again)."""

    @pytest.mark.parametrize(
        "ids, jobs",
        [(["fig2", "fig2a", "fig2b"], 12), (["fig5", "tab1"], 20)],
        ids=["fig2-panels", "fig5-tab1"],
    )
    def test_composite_reuses_its_panels(self, ids, jobs, monkeypatch, capsys):
        from repro.core.engine import Simulator

        monkeypatch.delenv("REPRO_STORE", raising=False)
        runs = []
        real = Simulator.run

        def counting(self, *args, **kwargs):
            runs.append(1)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting)
        assert main(["run", *ids, "--processes", "1"]) == 0
        out = capsys.readouterr().out
        assert all(f"== {i}:" in out for i in ids)
        assert len(runs) == jobs


class TestObservabilityCommands:
    TRACE_ARGV = [
        "trace",
        "adversarial_cycle",
        "--threads",
        "4",
        "--hbm-slots",
        "32",
        "--param",
        "pages=16",
        "--param",
        "repeats=2",
    ]

    def test_trace_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(self.TRACE_ARGV + ["--output-dir", str(out_dir)])
        assert code == 0
        import json

        doc = json.loads((out_dir / "trace.json").read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"M", "C", "X"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["schema"] == "repro.obs.manifest/v1"
        assert manifest["engine"] in ("fast", "reference")
        assert (out_dir / "timeline.jsonl").read_text().count("\n") == len(
            [e for e in doc["traceEvents"] if e["ph"] == "C"]
        ) // 5
        out = capsys.readouterr().out
        assert "perfetto" in out
        assert "timeline" in out

    def test_trace_no_ascii_and_stride(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            self.TRACE_ARGV
            + ["--output-dir", str(out_dir), "--no-ascii", "--probe-stride", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "HBM occupancy" not in out
        import json

        lines = (out_dir / "timeline.jsonl").read_text().splitlines()
        assert all(json.loads(line)["tick"] % 8 == 0 for line in lines)

    def test_simulate_probe_prints_timeline(self, capsys):
        argv = TestRunCommands.SIMULATE_ARGV + ["--probe", "--probe-stride", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "HBM occupancy" in out
        assert "timeline" in out

    def test_simulate_manifest_flag(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        argv = TestRunCommands.SIMULATE_ARGV + ["--manifest", str(path)]
        assert main(argv) == 0
        import json

        assert json.loads(path.read_text())["engine"] in ("fast", "reference")
        assert str(path) in capsys.readouterr().out

    def test_verbosity_flags(self):
        import logging

        assert main(["-v", "workloads"]) == 0
        assert logging.getLogger("repro").level == logging.DEBUG
        assert main(["-q", "workloads"]) == 0
        assert logging.getLogger("repro").level == logging.WARNING
        assert main(["workloads"]) == 0
        assert logging.getLogger("repro").level == logging.INFO


class TestTelemetryFlags:
    def test_run_with_metrics_and_events(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        events = tmp_path / "e.jsonl"
        code = main(
            [
                "run",
                "fig3",
                "--scale",
                "smoke",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--metrics-out",
                str(metrics),
                "--events-out",
                str(events),
                "--progress-every",
                "2",
            ]
        )
        assert code == 0
        capsys.readouterr()
        text = metrics.read_text()
        assert "repro_campaign_jobs_total" in text
        assert "repro_phase_seconds_bucket" in text
        import json

        lines = [json.loads(l) for l in events.read_text().splitlines()]
        assert lines[0]["event"] == "campaign.start"
        assert lines[-1]["event"] == "campaign.end"
        seqs = [e["seq"] for e in lines]
        assert seqs == sorted(seqs)

    def test_progress_every_validated(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "thm4",
                "--scale",
                "smoke",
                "--progress-every",
                "0",
                "--metrics-out",
                str(tmp_path / "m.prom"),
            ]
        )
        assert code == 2
        assert "bad --progress-every" in capsys.readouterr().err


class TestRunValidation:
    """Invalid ``repro run`` values exit 2 with one line naming the flag,
    before the invocation's runner is built or any experiment runs."""

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--retries", "-1"),
            ("--progress-every", "0"),
            ("--store", "bogus:x"),
            ("--shard", "3/2"),
        ],
    )
    def test_bad_value_exits_2_and_leaves_defaults(
        self, flag, value, tmp_path, capsys
    ):
        metrics = tmp_path / "never-written.prom"
        code = main(
            [
                "run",
                "thm2",
                "--processes",
                "1",
                "--no-result-cache",
                "--strict",
                "--metrics-out",
                str(metrics),
                flag,
                value,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"bad {flag}: ")
        assert not metrics.exists()  # no campaign ran


class TestRunFaultFlags:
    """The fault-tolerance flags reach the sweep: with a fault injected
    into every job, each one changes how the campaign ends."""

    @pytest.fixture(autouse=True)
    def _first_attempt_raises(self):
        from repro.analysis import set_fault_plan

        previous = set_fault_plan("raise:*:attempts=1")
        yield
        set_fault_plan(previous)

    def _run(self, *flags):
        return main(["run", "fig3", "--processes", "1", "--strict"] + list(flags))

    def test_default_retry_clears_a_first_attempt_fault(self, capsys):
        assert self._run() == 0

    def test_retries_0_and_strict_abort_with_exit_3(self, capsys):
        assert self._run("--retries", "0") == 3
        assert "aborted (--strict)" in capsys.readouterr().err

    def test_job_timeout_fails_the_attempt(self, capsys):
        from repro.analysis import set_fault_plan

        set_fault_plan("sleep:*:seconds=5")
        assert self._run("--retries", "0", "--job-timeout", "0.05") == 3
        assert "deadline" in capsys.readouterr().err

    def test_no_result_cache_resimulates_a_warm_store(self, tmp_path, capsys):
        from repro.analysis import set_fault_plan

        cache = ["--cache-dir", str(tmp_path)]
        set_fault_plan(None)
        assert self._run(*cache) == 0
        set_fault_plan("raise:*:attempts=0")
        assert self._run(*cache) == 0  # every record replays
        assert self._run(*cache, "--no-result-cache") == 3


class TestTraceMergeCommand:
    def test_merge_combines_traces(self, tmp_path, capsys):
        import json

        one = tmp_path / "t1"
        two = tmp_path / "t2"
        argv = TestObservabilityCommands.TRACE_ARGV + ["--no-ascii"]
        assert main(argv + ["--output-dir", str(one)]) == 0
        assert main(argv + ["--output-dir", str(two), "--seed", "1"]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "merged"
        code = main(
            [
                "trace",
                "--merge",
                str(one / "trace.json"),
                f"second={two / 'trace.json'}",
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        assert "merged 2 trace(s)" in capsys.readouterr().out
        doc = json.loads((out_dir / "trace.json").read_text())
        tracks = [s["track"] for s in doc["otherData"]["merged"]]
        assert tracks[1] == "second"
        # pid ranges of the two inputs are disjoint in the merged doc
        assert len({e["pid"] for e in doc["traceEvents"]}) == 4

    def test_merge_rejects_workload_operand(self, capsys):
        assert main(["trace", "spgemm", "--merge", "x.json"]) == 2
        assert "not a workload" in capsys.readouterr().err

    def test_merge_missing_file_is_an_error(self, capsys):
        assert main(["trace", "--merge", "does-not-exist.json"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_plain_trace_still_requires_hbm_slots(self, capsys):
        assert main(["trace", "spgemm"]) == 2
        assert "--hbm-slots" in capsys.readouterr().err


class TestBenchCommand:
    def _write_bench(self, directory, ff_speedup):
        import json

        directory.mkdir(parents=True, exist_ok=True)
        (directory / "BENCH_engine.json").write_text(
            json.dumps(
                {"miss_bound": {"ff_speedup": ff_speedup, "ff_on_s": 0.05}}
            )
        )

    def test_record_then_diff_passes(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        self._write_bench(tmp_path, 8.0)
        assert main(
            [
                "bench",
                "record",
                "--bench-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        ) == 0
        assert baseline.exists()
        code = main(
            [
                "bench",
                "diff",
                "--bench-dir",
                str(tmp_path),
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_catches_synthetic_slowdown(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        self._write_bench(tmp_path, 8.0)
        main(["bench", "record", "--bench-dir", str(tmp_path), "--baseline", str(baseline)])
        slow = tmp_path / "slow"
        self._write_bench(slow, 4.0)  # the synthetic 2x slowdown
        code = main(
            [
                "bench",
                "diff",
                "--bench-dir",
                str(slow),
                "--baseline",
                str(baseline),
                "--tolerance",
                "0.25",
            ]
        )
        assert code == 4
        captured = capsys.readouterr()
        assert "REGRESSION engine.miss_bound.ff_speedup" in captured.err

    def test_diff_without_baseline_explains(self, tmp_path, capsys):
        self._write_bench(tmp_path, 8.0)
        code = main(
            [
                "bench",
                "diff",
                "--bench-dir",
                str(tmp_path),
                "--baseline",
                str(tmp_path / "nope.json"),
            ]
        )
        assert code == 2
        assert "bench record" in capsys.readouterr().err

    def test_record_without_results_fails(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "record",
                "--bench-dir",
                str(tmp_path),
                "--baseline",
                str(tmp_path / "baseline.json"),
            ]
        )
        assert code == 2
        assert "no BENCH_" in capsys.readouterr().err

    def test_repo_baseline_matches_committed_bench_files(self, capsys):
        # the committed baseline must stay in sync with the committed
        # BENCH_*.json results at the repo root
        from pathlib import Path

        repo_root = Path(__file__).resolve().parent.parent
        if not (repo_root / "BENCH_engine.json").is_file():
            import pytest as _pytest

            _pytest.skip("BENCH files not present")
        code = main(
            [
                "bench",
                "diff",
                "--bench-dir",
                str(repo_root),
                "--baseline",
                str(repo_root / "benchmarks" / "baseline.json"),
            ]
        )
        assert code == 0
        assert "no regressions" in capsys.readouterr().out
