"""Tests for the campaign pipeline: payload-carrying records, cache
replay, Campaign/Reduction, output persistence, and the CLI flags that
expose them."""

import json

import pytest

from repro.analysis import (
    PayloadRequest,
    SweepJob,
    SweepPayload,
    SweepRunner,
    WorkloadSpec,
    run_sweep,
)
from repro.core import SimulationConfig
from repro.experiments.base import (
    CAMPAIGN_MANIFEST_SCHEMA,
    Campaign,
    CampaignContext,
    Reduction,
    merge_campaign_stats,
    save_experiment_output,
)
from repro.store import sweep_result_key

SPEC = WorkloadSpec.make("adversarial_cycle", threads=4, seed=0, pages=16, repeats=3)
CONFIG = SimulationConfig(hbm_slots=32)

FAT = PayloadRequest(response_histogram=True, response_series=True)


def fat_job(payload=FAT):
    return SweepJob(workload=SPEC, config=CONFIG, tag="t", payload=payload)


class TestPayloadCacheKeys:
    def test_empty_request_leaves_slim_key_unchanged(self):
        bare = sweep_result_key(SPEC, CONFIG)
        assert sweep_result_key(SPEC, CONFIG, PayloadRequest()) == bare
        assert sweep_result_key(SPEC, CONFIG, None) == bare

    def test_fat_key_differs_from_slim(self):
        assert sweep_result_key(SPEC, CONFIG, FAT) != sweep_result_key(SPEC, CONFIG)

    def test_distinct_requests_distinct_keys(self):
        keys = {
            sweep_result_key(SPEC, CONFIG, req)
            for req in (
                PayloadRequest(response_histogram=True),
                PayloadRequest(response_series=True),
                PayloadRequest(probe_samples=True),
                PayloadRequest(probe_samples=True, probe_stride=16),
            )
        }
        assert len(keys) == 4

    def test_stride_irrelevant_without_probe_samples(self):
        a = PayloadRequest(response_histogram=True, probe_stride=64)
        b = PayloadRequest(response_histogram=True, probe_stride=128)
        assert sweep_result_key(SPEC, CONFIG, a) == sweep_result_key(SPEC, CONFIG, b)


class TestPayloadReplay:
    def test_fat_record_round_trips_through_cache(self, tmp_path):
        cold = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        assert not cold.cached
        assert cold.payload is not None
        assert cold.payload.response_percentile(0.99) <= cold.max_response

        warm = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        assert warm.cached
        assert warm.payload is not None
        for frac in (0.5, 0.95, 0.99, 1.0):
            assert warm.payload.response_percentile(
                frac
            ) == cold.payload.response_percentile(frac)
        assert warm.payload.to_json_dict() == cold.payload.to_json_dict()

    def test_payload_json_round_trip_is_lossless(self, tmp_path):
        record = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        rebuilt = SweepPayload.from_json_dict(record.payload.to_json_dict())
        assert rebuilt.to_json_dict() == record.payload.to_json_dict()

    def test_slim_cache_entry_never_serves_fat_job(self, tmp_path):
        slim = SweepJob(workload=SPEC, config=CONFIG)
        run_sweep([slim], processes=1, cache_dir=tmp_path)
        record = run_sweep([fat_job()], processes=1, cache_dir=tmp_path)[0]
        # the fat job must simulate (distinct key), not hit the slim entry
        assert not record.cached
        assert record.payload is not None

    def test_probe_samples_replayed(self, tmp_path):
        job = fat_job(PayloadRequest(probe_samples=True, probe_stride=8))
        cold = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        warm = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        assert cold.payload.probe_samples
        assert warm.cached
        assert warm.payload.probe_samples == cold.payload.probe_samples

    def test_hits_misses_survive_replay(self, tmp_path):
        job = SweepJob(workload=SPEC, config=CONFIG)
        cold = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        warm = run_sweep([job], processes=1, cache_dir=tmp_path)[0]
        assert warm.cached
        assert (warm.hits, warm.misses) == (cold.hits, cold.misses)
        assert cold.hits + cold.misses == cold.total_requests


def demo_campaign():
    def build(ctx):
        return [
            SweepJob(
                workload=SPEC,
                config=SimulationConfig(hbm_slots=32, arbitration=arb),
                tag=arb,
            )
            for arb in ("fifo", "priority")
        ]

    def reduce(ctx, records):
        rows = [r.row() for r in records]
        return Reduction(
            rows=rows,
            checks={"two_records": len(records) == 2},
            data={"makespans": [r.makespan for r in records]},
            text="demo table",
        )

    return Campaign.sweep("demo", "Demo campaign", build, reduce)


class TestCampaign:
    def test_sweep_campaign_produces_output(self, tmp_path):
        out = demo_campaign().run(scale="smoke", runner=SweepRunner(cache_dir=tmp_path))
        assert out.experiment_id == "demo"
        assert len(out.rows) == 2
        assert out.checks == {"two_records": True}
        assert out.campaign is not None
        assert out.campaign.total_jobs == 2
        assert out.campaign.simulated == 2

    def test_warm_campaign_replays_everything(self, tmp_path):
        campaign = demo_campaign()
        campaign.run(runner=SweepRunner(cache_dir=tmp_path))
        warm = campaign.run(runner=SweepRunner(cache_dir=tmp_path))
        assert warm.campaign.simulated == 0
        assert warm.campaign.cache_hits == 2

    def test_local_campaign_skips_sweep(self):
        def compute(ctx):
            return Reduction(
                rows=[{"scale": ctx.scale}], checks={"ok": True}, text="local"
            )

        out = Campaign.local("loc", "Local", compute).run(scale="smoke")
        assert out.rows == [{"scale": "smoke"}]
        assert out.campaign is not None and out.campaign.total_jobs == 0

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            demo_campaign().run(scale="huge")

    def test_context_builds_workloads_through_cache(self, tmp_path):
        ctx = CampaignContext(
            experiment_id="demo", scale="smoke", cache_dir=str(tmp_path)
        )
        wl = ctx.build_workload(SPEC)
        assert wl.num_threads == 4
        assert list(tmp_path.glob("*.npz"))  # generated via the disk cache

    def test_merge_campaign_stats(self, tmp_path):
        a = demo_campaign().run(runner=SweepRunner(cache_dir=tmp_path)).campaign
        b = demo_campaign().run(runner=SweepRunner(cache_dir=tmp_path)).campaign
        merged = merge_campaign_stats([a, b, None])
        assert merged.total_jobs == 4
        assert merged.simulated == a.simulated  # b was fully cached
        assert merged.cache_hits == a.cache_hits + b.cache_hits


class TestSaveExperimentOutput:
    def test_writes_full_results_tree(self, tmp_path):
        out = demo_campaign().run(runner=SweepRunner(cache_dir=tmp_path / "cache"))
        target = save_experiment_output(out, tmp_path / "results", seed=0)
        assert target == tmp_path / "results" / "demo"
        for name in ("rows.csv", "report.txt", "checks.json", "manifest.json"):
            assert (target / name).exists()
        checks = json.loads((target / "checks.json").read_text())
        assert checks == {
            "checks": {"two_records": True},
            "all_checks_pass": True,
            "failed_jobs": 0,
            "retried_jobs": 0,
            "recovered_jobs": 0,
        }
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["schema"] == CAMPAIGN_MANIFEST_SCHEMA
        assert manifest["experiment_id"] == "demo"
        assert manifest["seed"] == 0
        assert manifest["campaign"]["total_jobs"] == 2
        assert manifest["engine_semantics_version"]

    def test_no_rows_no_csv(self, tmp_path):
        def compute(ctx):
            return Reduction(rows=[], text="empty")

        out = Campaign.local("empty", "Empty", compute).run()
        target = save_experiment_output(out, tmp_path)
        assert not (target / "rows.csv").exists()
        assert (target / "manifest.json").exists()

    def test_run_experiment_save_dir(self, tmp_path):
        from repro.experiments import run_experiment

        run_experiment(
            "thm4", scale="smoke", cache_dir=tmp_path / "c", save_dir=tmp_path / "r"
        )
        assert (tmp_path / "r" / "thm4" / "manifest.json").exists()


class TestCliFlags:
    def test_run_save_flag_persists_results(self, tmp_path, capsys):
        from repro._cli import main

        code = main(
            [
                "run",
                "thm4",
                "--scale",
                "smoke",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--save",
                str(tmp_path / "results"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest = json.loads(
            (tmp_path / "results" / "thm4" / "manifest.json").read_text()
        )
        assert manifest["schema"] == CAMPAIGN_MANIFEST_SCHEMA

    def test_run_no_strict_downgrades_exit_code(self, monkeypatch, capsys):
        from repro._cli import main
        from repro.experiments import registry

        fake = Campaign.local(
            "thm4",
            "fake",
            lambda ctx: Reduction(rows=[], checks={"doomed": False}, text=""),
        )
        monkeypatch.setitem(registry.EXPERIMENTS, "thm4", (fake, "fake"))
        assert main(["run", "thm4"]) == 1
        capsys.readouterr()
        assert main(["run", "thm4", "--no-strict"]) == 0
        assert "FAILED shape checks" in capsys.readouterr().err



class TestWorkloadReuse:
    """An in-process campaign builds or loads each distinct spec once,
    shares it between the jobs that name it, and lets it go after its
    last job."""

    A, B, C = (
        WorkloadSpec.make("random", threads=4, seed=s, length=120, pages=12)
        for s in (1, 2, 3)
    )
    CONTENDED = (8, 8, 16, 16, 8, 24)

    def _jobs(self, slots):
        order = (self.A, self.B, self.A, self.B, self.C, self.A)
        return [
            SweepJob(spec, SimulationConfig(hbm_slots=k, seed=n))
            for n, (spec, k) in enumerate(zip(order, slots))
        ]

    @staticmethod
    def _spy(monkeypatch):
        """Count workload loads and generations; for every engine run,
        note the workload it ran and which earlier ones were alive."""
        import weakref

        import repro.analysis.sweep as sweep
        import repro.traces.io as io

        calls = {"load": 0, "make": 0, "refs": [], "runs": []}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)  # count what returned a workload
                calls[name] += 1
                return result

            return wrapper

        def watching(fn):
            def wrapper(workload, *args, **kwargs):
                refs = calls["refs"]
                calls["runs"].append(
                    {
                        "alive": [ref() is not None for ref in refs],
                        "same": [ref() is workload for ref in refs],
                    }
                )
                refs.append(weakref.ref(workload))
                return fn(workload, *args, **kwargs)

            return wrapper

        for module, name, key in (
            (io, "load_workload_npz", "load"),
            (io, "make_workload", "make"),
            (sweep, "make_workload", "make"),
        ):
            monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
        monkeypatch.setattr(sweep, "simulate", watching(sweep.simulate))
        return calls

    @pytest.mark.parametrize(
        "engine, slots",
        # contended jobs / fitting ones; each record is checked against
        # a fresh run on ``engine``
        [("reference", CONTENDED), ("auto", (64,) * 6)],
    )
    def test_each_spec_loaded_once_and_released(
        self, tmp_path, monkeypatch, engine, slots
    ):
        import dataclasses
        import gc

        from repro.analysis.sweep import SweepRecord
        from repro.core.fastengine import simulate

        jobs = self._jobs(slots)
        # fill the on-disk workload cache; run with the result store off
        SweepRunner(processes=1, cache_dir=tmp_path).prepare(jobs)
        calls = self._spy(monkeypatch)
        runner = SweepRunner(processes=1, cache_dir=tmp_path, result_cache=False)
        records = runner.run(jobs)
        gc.collect()
        monkeypatch.undo()

        assert (calls["load"], calls["make"]) == (3, 0)  # one per distinct spec
        assert all(ref() is None for ref in calls["refs"])
        runs = calls["runs"]
        assert len(runs) == 6
        # the A jobs (0, 2, 5) and the B jobs (1, 3) share one object
        assert runs[2]["same"][0] and runs[5]["same"][0]
        assert runs[3]["same"][1]
        # at C's job, B's last job is done and its workload is gone
        assert runs[4]["alive"] == [True, False, True, False]

        def metrics(record):
            return dataclasses.replace(record, wall_time_s=0.0)

        for job, record in zip(jobs, records):
            fresh = simulate(job.workload.build(), job.config, engine=engine)
            assert metrics(record) == metrics(SweepRecord.from_result(job, fresh))

    def test_cold_campaign_generates_each_spec_once(self, tmp_path, monkeypatch):
        calls = self._spy(monkeypatch)
        jobs = self._jobs(self.CONTENDED)
        SweepRunner(processes=1, cache_dir=tmp_path).run(jobs)
        assert (calls["load"], calls["make"]) == (0, 3)
