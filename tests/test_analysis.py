"""Tests for repro.analysis (sweep, tables, plots, stats)."""

import dataclasses

import numpy as np

from repro.analysis import (
    SweepJob,
    SweepRunner,
    WorkloadSpec,
    fairness_summary,
    format_table,
    group_records,
    line_plot,
    ratio_series,
    run_sweep,
    scatter_plot,
    to_csv,
    write_csv,
)
from repro.analysis import sweep as sweep_mod
from repro.core import SimulationConfig, Simulator, run_simulation
from repro.store import sweep_result_key

#: every engine-produced SweepRecord field; wall_time_s is excluded from
#: cross-run comparisons because it is the one non-deterministic column.
METRIC_FIELDS = (
    "makespan",
    "mean_response",
    "inconsistency",
    "max_response",
    "hit_rate",
    "total_requests",
    "fetches",
    "evictions",
)


def demo_jobs(threads=(2, 4), arbs=("fifo", "priority"), k=32):
    jobs = []
    for p in threads:
        spec = WorkloadSpec.make(
            "adversarial_cycle", threads=p, pages=16, repeats=4
        )
        for arb in arbs:
            jobs.append(SweepJob(spec, SimulationConfig(hbm_slots=k, arbitration=arb)))
    return jobs


def count_engine_dispatch(monkeypatch, calls):
    """Count per-job engine work: one ``simulate`` call per fresh job."""
    real = sweep_mod.simulate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "simulate", counting)


class TestWorkloadSpec:
    def test_build_matches_factory(self):
        spec = WorkloadSpec.make("random", threads=3, seed=2, length=50, pages=8)
        wl = spec.build()
        assert wl.num_threads == 3
        assert wl.total_references == 150

    def test_hashable_and_param_order_independent(self):
        a = WorkloadSpec.make("random", 2, length=10, pages=4)
        b = WorkloadSpec.make("random", 2, pages=4, length=10)
        assert a == b
        assert hash(a) == hash(b)

    def test_describe(self):
        text = WorkloadSpec.make("sort", 4, n=100).describe()
        assert "sort" in text and "n=100" in text


class TestSweep:
    def test_sequential_matches_parallel(self, tmp_path):
        jobs = demo_jobs()
        seq = run_sweep(jobs, processes=1, cache_dir=tmp_path / "c1")
        par = run_sweep(jobs, processes=4, cache_dir=tmp_path / "c2")
        assert [r.makespan for r in seq] == [r.makespan for r in par]
        assert [r.inconsistency for r in seq] == [r.inconsistency for r in par]

    def test_records_preserve_job_identity(self):
        jobs = demo_jobs(threads=(2,))
        records = run_sweep(jobs, processes=1)
        assert [r.job for r in records] == jobs

    def test_empty_jobs(self):
        assert run_sweep([], processes=2) == []

    def test_prepare_warms_cache(self, tmp_path):
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        jobs = demo_jobs(threads=(2,))
        runner.prepare(jobs)
        assert list(tmp_path.glob("*.npz"))

    def test_record_row_is_flat(self):
        records = run_sweep(demo_jobs(threads=(2,)), processes=1)
        row = records[0].row()
        assert row["threads"] == 2
        assert row["arbitration"] in ("fifo", "priority")
        assert isinstance(row["makespan"], int)

    def test_record_row_perf_columns(self):
        records = run_sweep(demo_jobs(threads=(2,)), processes=1)
        row = records[0].row()
        assert {"requests", "fetches", "evictions", "wall_time_s"} <= row.keys()
        assert row["fetches"] >= 1
        assert row["wall_time_s"] >= 0.0


def mixed_engine_jobs(k=32):
    """Jobs spanning both dispatch outcomes: fast-eligible LRU configs
    and clock-replacement configs that must fall back to the reference
    engine."""
    jobs = []
    for p in (2, 4):
        spec = WorkloadSpec.make(
            "adversarial_cycle", threads=p, pages=16, repeats=4
        )
        for replacement in ("lru", "clock"):
            jobs.append(
                SweepJob(
                    spec,
                    SimulationConfig(
                        hbm_slots=k,
                        arbitration="priority",
                        replacement=replacement,
                    ),
                )
            )
        jobs.append(
            SweepJob(
                spec,
                SimulationConfig(
                    hbm_slots=k, arbitration="fifo", record_responses=True
                ),
            )
        )
    return jobs


class TestSweepDifferential:
    """SweepRunner must agree with the reference Simulator bit-for-bit
    regardless of process count, engine dispatch, or caching."""

    def test_pool_sequential_and_direct_agree(self, tmp_path):
        jobs = mixed_engine_jobs()
        seq = run_sweep(jobs, processes=1, cache_dir=tmp_path / "seq")
        par = run_sweep(jobs, processes=2, cache_dir=tmp_path / "par")
        direct = [
            Simulator(job.workload.build().traces, job.config).run()
            for job in jobs
        ]
        for s, p, d in zip(seq, par, direct):
            for name in METRIC_FIELDS:
                assert getattr(s, name) == getattr(p, name)
                assert getattr(s, name) == getattr(d, name)

    def test_forced_engines_agree(self, tmp_path):
        # the sweep runs the reference engine; every forced engine must
        # reproduce its records
        from repro.core import simulate

        jobs = demo_jobs()
        swept = run_sweep(jobs, processes=1)
        for job, record in zip(jobs, swept):
            workload = job.workload.build()
            for engine in ("reference", "fast", "auto"):
                result = simulate(workload, job.config, engine=engine)
                for name in METRIC_FIELDS:
                    assert getattr(record, name) == getattr(result, name), name


class TestResultCache:
    def test_rerun_replays_without_engine(self, tmp_path, monkeypatch):
        jobs = demo_jobs()
        first = run_sweep(jobs, processes=1, cache_dir=tmp_path)

        def boom(*args, **kwargs):
            raise AssertionError("engine invoked despite warm result cache")

        monkeypatch.setattr(sweep_mod, "simulate", boom)
        second = run_sweep(jobs, processes=1, cache_dir=tmp_path)
        assert all(not r.cached for r in first)
        assert all(r.cached for r in second)
        # Replays carry the original measurements; only `cached` differs.
        assert [dataclasses.replace(r, cached=False) for r in second] == first

    def test_disabled_cache_recomputes(self, tmp_path, monkeypatch):
        jobs = demo_jobs(threads=(2,))
        run_sweep(jobs, processes=1, cache_dir=tmp_path)
        calls = []
        count_engine_dispatch(monkeypatch, calls)
        run_sweep(jobs, processes=1, cache_dir=tmp_path, result_cache=False)
        assert len(calls) == len(jobs)

    def test_cache_entries_on_disk(self, tmp_path):
        jobs = demo_jobs(threads=(2,))
        run_sweep(jobs, processes=1, cache_dir=tmp_path)
        assert len(list((tmp_path / "results").glob("*.json"))) == len(jobs)

    def test_no_cache_dir_means_no_cache(self, tmp_path, monkeypatch):
        jobs = demo_jobs(threads=(2,))
        run_sweep(jobs, processes=1)
        calls = []
        count_engine_dispatch(monkeypatch, calls)
        run_sweep(jobs, processes=1)
        assert len(calls) == len(jobs)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        jobs = demo_jobs(threads=(2,))
        first = run_sweep(jobs, processes=1, cache_dir=tmp_path)
        for path in (tmp_path / "results").glob("*.json"):
            path.write_text("{not json", encoding="utf-8")
        second = run_sweep(jobs, processes=1, cache_dir=tmp_path)
        for a, b in zip(first, second):
            for name in METRIC_FIELDS:
                assert getattr(a, name) == getattr(b, name)

    def test_key_depends_on_spec_and_config_not_tag(self):
        spec = WorkloadSpec.make("random", 2, length=10, pages=4)
        other_spec = WorkloadSpec.make("random", 2, length=20, pages=4)
        cfg = SimulationConfig(hbm_slots=8)
        key = sweep_result_key(spec, cfg)
        assert key == sweep_result_key(spec, cfg)  # stable
        assert key != sweep_result_key(other_spec, cfg)
        assert key != sweep_result_key(spec, SimulationConfig(hbm_slots=16))
        # the tag is presentation metadata, not simulation input
        a = SweepJob(spec, cfg, tag="a")
        b = SweepJob(spec, cfg, tag="b")
        assert sweep_result_key(a.workload, a.config) == sweep_result_key(
            b.workload, b.config
        )


class TestTables:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": None}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "-" in lines[2]
        assert len({len(l) for l in lines[1:]}) == 1  # rectangular

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_subset(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_csv_round_trip(self, tmp_path):
        rows = [{"x": 1, "y": 2.5}, {"x": 3, "y": None}]
        text = to_csv(rows)
        assert text.splitlines()[0] == "x,y"
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        assert path.read_text().splitlines()[1] == "1,2.5"

    def test_csv_empty(self):
        assert to_csv([]) == ""


class TestPlots:
    def test_line_plot_contains_markers_and_labels(self):
        text = line_plot(
            {"s": [(1, 1), (2, 4), (3, 9)]},
            title="squares",
            xlabel="x",
            ylabel="y",
        )
        assert "squares" in text
        assert "o" in text
        assert "y" in text

    def test_plot_no_data(self):
        assert "(no data)" in line_plot({"s": []}, title="t")

    def test_log_x(self):
        text = line_plot(
            {"s": [(1024, 1), (1048576, 2)]}, logx=True, width=30, height=6
        )
        assert "|" in text

    def test_scatter_multiple_series_distinct_markers(self):
        text = scatter_plot({"a": [(0, 0)], "b": [(1, 1)]}, width=20, height=5)
        assert "o a" in text and "x b" in text

    def test_constant_series_does_not_crash(self):
        line_plot({"s": [(1, 5), (2, 5)]})


class TestStats:
    def test_ratio_series_matching(self):
        records = run_sweep(demo_jobs(threads=(2, 4)), processes=1)
        series = ratio_series(records, "fifo", "priority")
        assert [x for x, _ in series] == [2, 4]
        assert all(r > 0 for _, r in series)

    def test_ratio_series_missing_pair_skipped(self):
        records = run_sweep(demo_jobs(threads=(2,), arbs=("fifo",)), processes=1)
        assert ratio_series(records, "fifo", "priority") == []

    def test_group_records(self):
        records = run_sweep(demo_jobs(threads=(2, 4)), processes=1)
        groups = group_records(records, lambda r: r.job.workload.threads)
        assert set(groups) == {2, 4}
        assert all(len(v) == 2 for v in groups.values())

    def test_fairness_summary_keys(self):
        result = run_simulation(
            [[0, 1, 2], [10, 11, 12]], hbm_slots=4, arbitration="priority"
        )
        summary = fairness_summary(result)
        assert summary["makespan"] == result.makespan
        assert summary["worst_thread_max_wait"] >= summary["median_thread_max_wait"]
        assert summary["mean_wait_ratio_worst_to_best"] >= 1.0

    def _zeroed_denominator_records(self):
        """Real records, with every priority record's makespan zeroed."""
        records = run_sweep(demo_jobs(threads=(2,)), processes=1)
        return [
            dataclasses.replace(r, makespan=0)
            if r.job.config.arbitration == "priority"
            else r
            for r in records
        ]

    def test_ratio_series_zero_denominator_warns_and_drops(self):
        import logging

        from repro.analysis import stats as stats_mod
        from repro.obs import reset_warn_once

        records = self._zeroed_denominator_records()
        reset_warn_once()
        captured = []
        handler = logging.Handler()
        handler.emit = lambda rec: captured.append(rec.getMessage())
        stats_mod.log.addHandler(handler)
        try:
            assert ratio_series(records, "fifo", "priority") == []
        finally:
            stats_mod.log.removeHandler(handler)
        assert len(captured) == 1
        # the warning names the dropped key and the offending policy
        assert "x=2" in captured[0]
        assert "priority" in captured[0]

    def test_ratio_series_zero_denominator_warns_once_per_key(self):
        import logging

        from repro.analysis import stats as stats_mod
        from repro.obs import reset_warn_once

        records = self._zeroed_denominator_records()
        reset_warn_once()
        captured = []
        handler = logging.Handler()
        handler.emit = lambda rec: captured.append(rec.getMessage())
        stats_mod.log.addHandler(handler)
        try:
            ratio_series(records, "fifo", "priority")
            ratio_series(records, "fifo", "priority")  # replayed campaign
        finally:
            stats_mod.log.removeHandler(handler)
        assert len(captured) == 1


class TestCampaignStats:
    def test_collect_splits_fresh_and_cached(self, tmp_path):
        from repro.analysis import CampaignStats

        jobs = demo_jobs()
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        runner.run(jobs)
        cold = runner.last_campaign
        assert cold is not None
        assert cold.total_jobs == len(jobs)
        assert cold.cache_hits == 0
        assert cold.simulated == len(jobs)
        assert cold.cache_hit_rate == 0.0
        assert cold.sim_time_s > 0.0
        assert set(cold.by_group) == {
            ("adversarial_cycle", "fifo"),
            ("adversarial_cycle", "priority"),
        }

        runner.run(jobs)
        warm = runner.last_campaign
        assert warm.cache_hits == len(jobs)
        assert warm.simulated == 0
        assert warm.cache_hit_rate == 1.0
        # Replayed wall times must not be double-counted as sim time.
        assert warm.sim_time_s == 0.0

    def test_summary_table_has_total_row(self, tmp_path):
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        runner.run(demo_jobs())
        table = runner.last_campaign.summary_table()
        assert "TOTAL" in table
        assert "workload" in table
        assert "cached" in table

    def test_empty_campaign(self):
        runner = SweepRunner(processes=1)
        assert runner.run([]) == []
        assert runner.last_campaign is not None
        assert runner.last_campaign.total_jobs == 0
        assert runner.last_campaign.cache_hit_rate == 0.0

    def test_cached_flag_in_rows(self, tmp_path):
        jobs = demo_jobs(threads=(2,))
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        first = runner.run(jobs)
        second = runner.run(jobs)
        assert [r.row()["cached"] for r in first] == [False] * len(jobs)
        assert [r.row()["cached"] for r in second] == [True] * len(jobs)

    def test_cache_entries_carry_manifest(self, tmp_path):
        import json

        jobs = demo_jobs(threads=(2,), arbs=("fifo",))
        SweepRunner(processes=1, cache_dir=tmp_path).run(jobs)
        entries = list((tmp_path / "results").glob("*.json"))
        assert entries
        payload = json.loads(entries[0].read_text())
        manifest = payload["manifest"]
        assert manifest["schema"] == "repro.obs.manifest/v1"
        assert manifest["engine"] == "reference"
        assert "workload_build_s" in manifest["timings"]
        assert "run_s" in manifest["timings"]
