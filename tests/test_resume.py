"""Campaign checkpointing and resume: a SIGKILLed campaign *parent*
loses at most the in-flight work, and ``--resume`` (or simply re-running
the same jobs) finishes the remainder with nothing lost, nothing
duplicated, and metrics bit-identical to a single-life run.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro._cli import main
from repro.analysis import SweepJob, SweepRunner, WorkloadSpec, set_fault_plan
from repro.analysis.faults import parse_fault_plan
from repro.core import SimulationConfig
from repro.store import DirectoryStore, open_store, sweep_result_key

SRC = str(Path(__file__).resolve().parent.parent / "src")

METRIC_FIELDS = (
    "makespan",
    "mean_response",
    "inconsistency",
    "max_response",
    "hit_rate",
    "total_requests",
    "hits",
    "fetches",
    "evictions",
)


@pytest.fixture(autouse=True)
def _clean_fault_plan():
    previous = set_fault_plan(None)
    yield
    set_fault_plan(previous)


def demo_jobs(n=3):
    """``n`` cheap jobs with distinct configs (distinct result keys)."""
    return [
        SweepJob(
            WorkloadSpec.make("adversarial_cycle", threads=2, pages=8, repeats=2),
            SimulationConfig(hbm_slots=8 * (i + 1)),
            tag=f"job-{i}",
        )
        for i in range(n)
    ]


def job_key(job):
    return sweep_result_key(job.workload, job.config, job.payload)


def assert_same_metrics(records_a, records_b):
    by_tag = {r.job.tag: r for r in records_b}
    assert {r.job.tag for r in records_a} == set(by_tag)
    for record in records_a:
        twin = by_tag[record.job.tag]
        for name in METRIC_FIELDS:
            assert getattr(record, name) == getattr(twin, name), name


class TestFaultPlanParsing:
    def test_kill_parent_spec(self):
        (spec,) = parse_fault_plan("kill-parent:*:after=3")
        assert spec.mode == "kill-parent"
        assert spec.after == 3

    def test_worker_injection_ignores_kill_parent(self):
        from repro.analysis.faults import maybe_inject

        set_fault_plan("kill-parent:*")
        maybe_inject("anything", 1)  # must not kill this process


class TestCheckpointLifecycle:
    def test_checkpoint_written_with_meta(self, tmp_path):
        jobs = demo_jobs(2)
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        runner.run(jobs, label="ckpt", meta={"experiment_id": "demo", "seed": 7})
        campaign_id = runner.last_campaign.campaign_id
        assert campaign_id.startswith("ckpt-")
        store = DirectoryStore(tmp_path / "results")
        checkpoint = store.load_checkpoint(campaign_id)
        assert checkpoint is not None
        assert checkpoint.meta == {"experiment_id": "demo", "seed": 7}
        assert checkpoint.job_keys == {job_key(j) for j in jobs}
        assert store.done_keys(campaign_id) == checkpoint.job_keys

    def test_completed_campaign_rerun_is_plain_replay(self, tmp_path):
        jobs = demo_jobs(2)
        SweepRunner(processes=1, cache_dir=tmp_path).run(jobs, label="warm")
        again = SweepRunner(processes=1, cache_dir=tmp_path)
        again.run(jobs, label="warm")
        stats = again.last_campaign
        assert stats.cache_hits == 2
        assert stats.resumed == 0  # nothing was interrupted
        table = stats.summary_table()
        assert "resumed" not in table  # quiet unless it happened

    def test_conflicting_manifest_disables_checkpointing(self, tmp_path):
        jobs = demo_jobs(2)
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        runner.run(jobs, label="clash")
        campaign_id = runner.last_campaign.campaign_id
        manifest = (
            tmp_path / "results" / "campaigns" / campaign_id / "manifest.json"
        )
        doc = json.loads(manifest.read_text())
        doc["jobs"] = [dict(j, key="f" * 32) for j in doc["jobs"]]
        manifest.write_text(json.dumps(doc))
        rerun = SweepRunner(processes=1, cache_dir=tmp_path)
        rerun.run(jobs, label="clash")
        assert rerun.last_campaign.campaign_id == ""  # checkpointing off
        assert rerun.last_campaign.cache_hits == 2  # results still replay


class TestResumeAfterPartialDeath:
    def test_missing_tail_is_resimulated_not_lost(self, tmp_path):
        jobs = demo_jobs(3)
        baseline_runner = SweepRunner(processes=1, cache_dir=tmp_path / "base")
        baseline = baseline_runner.run(jobs, label="single-life")

        first = SweepRunner(processes=1, cache_dir=tmp_path / "killed")
        first.run(jobs, label="single-life")
        campaign_id = first.last_campaign.campaign_id
        store = DirectoryStore(tmp_path / "killed" / "results")

        # Simulate a parent killed before the last record landed: drop
        # one result entry and its frontier line.
        victim = job_key(jobs[-1])
        store.path_for(victim).unlink()
        log = store._campaign_dir(campaign_id) / "done.log"
        survivors = [
            line for line in log.read_text().splitlines() if line != victim
        ]
        log.write_text("\n".join(survivors) + "\n")

        resumed = SweepRunner(processes=1, cache_dir=tmp_path / "killed")
        records = resumed.run(jobs, label="single-life")
        stats = resumed.last_campaign
        assert stats.resumed == 2  # the work the dead parent completed
        assert stats.simulated == 1  # only the lost job re-ran
        assert stats.cache_hits == 2
        assert "2 resumed" in stats.summary_table()
        assert_same_metrics(records, baseline)
        assert store.done_keys(campaign_id) == {job_key(j) for j in jobs}


class TestParentKillAndResume:
    """The real thing: SIGKILL the campaign parent mid-run via the
    ``kill-parent`` injection point, then resume in a fresh process."""

    CHILD = textwrap.dedent(
        """
        import sys
        from repro.analysis import SweepJob, SweepRunner, WorkloadSpec
        from repro.core import SimulationConfig

        jobs = [
            SweepJob(
                WorkloadSpec.make(
                    "adversarial_cycle", threads=2, pages=8, repeats=2
                ),
                SimulationConfig(hbm_slots=8 * (i + 1)),
                tag=f"job-{i}",
            )
            for i in range(3)
        ]
        SweepRunner(processes=1, cache_dir=sys.argv[1]).run(
            jobs, label="kill-demo"
        )
        print("UNREACHABLE")  # the injected SIGKILL must preempt this
        """
    )

    def test_killed_parent_resumes_bit_identical(self, tmp_path):
        jobs = demo_jobs(3)
        baseline_runner = SweepRunner(processes=1, cache_dir=tmp_path / "base")
        baseline = baseline_runner.run(jobs, label="kill-demo")

        script = tmp_path / "child.py"
        script.write_text(self.CHILD)
        env = dict(
            os.environ,
            PYTHONPATH=SRC,
            REPRO_FAULT_INJECT="kill-parent:*:after=2",
        )
        env.pop("REPRO_STORE", None)
        proc = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "killed")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL
        assert "UNREACHABLE" not in proc.stdout

        store = DirectoryStore(tmp_path / "killed" / "results")
        (campaign_id,) = store.list_campaigns()
        done_before = store.done_keys(campaign_id)
        assert len(done_before) == 2  # died after the second record
        # every done key is backed by a stored result: nothing was
        # marked done without being durable first
        for key in done_before:
            assert store.get(key) is not None

        resumed = SweepRunner(processes=1, cache_dir=tmp_path / "killed")
        records = resumed.run(jobs, label="kill-demo")
        stats = resumed.last_campaign
        assert stats.campaign_id == campaign_id
        assert stats.resumed == 2  # the dead parent's completed work
        assert stats.simulated == 1  # zero lost, zero duplicated
        assert_same_metrics(records, baseline)
        assert store.done_keys(campaign_id) == {job_key(j) for j in jobs}
        assert len(store) == len(jobs)


class TestCliResume:
    def test_run_requires_ids_or_resume(self, capsys):
        assert main(["run"]) == 2
        assert "experiment ids" in capsys.readouterr().err

    def test_resume_excludes_ids(self, capsys):
        assert main(["run", "thm4", "--resume", "x"]) == 2
        assert "--resume" in capsys.readouterr().err

    def test_bad_shard_rejected_early(self, capsys):
        assert main(["run", "thm4", "--shard", "5/2"]) == 2
        assert "bad --shard" in capsys.readouterr().err

    def test_resume_unknown_campaign_exits_2(self, tmp_path, capsys):
        uri = f"dir:{tmp_path / 'store'}"
        assert main(["run", "--resume", "ghost", "--store", uri]) == 2
        assert "no campaign 'ghost'" in capsys.readouterr().err

    def test_resume_adhoc_campaign_from_manifest(self, tmp_path, capsys):
        uri = f"dir:{tmp_path / 'store'}"
        jobs = demo_jobs(2)
        runner = SweepRunner(processes=1, store=uri)
        runner.run(jobs, label="adhoc")
        campaign_id = runner.last_campaign.campaign_id
        code = main(
            ["run", "--resume", campaign_id, "--store", uri,
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert f"dir:{tmp_path / 'store'}" in out

    def test_resume_registered_strict_abort_exits_3(self, tmp_path, capsys):
        # an aborted registered campaign resumes through `run`'s own
        # output loop, so a second strict abort is one line and exit 3
        set_fault_plan("raise:*:attempts=0")
        common = ["--scale", "smoke", "--processes", "1", "--retries", "0",
                  "--strict", "--cache-dir", str(tmp_path)]
        assert main(["run", "thm2", *common]) == 3
        capsys.readouterr()
        (campaign_id,) = open_store(tmp_path / "results").list_campaigns()
        assert main(["run", "--resume", campaign_id, *common]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith("campaign 'thm2' aborted (--strict)")

    def test_resume_manifest_strict_abort_exits_3(self, tmp_path, capsys):
        uri = f"dir:{tmp_path / 'store'}"
        set_fault_plan("raise:*:attempts=0")
        runner = SweepRunner(processes=1, store=uri, retries=0)
        runner.run(demo_jobs(2), label="adhoc")
        campaign_id = runner.last_campaign.campaign_id
        code = main(["run", "--resume", campaign_id, "--store", uri,
                     "--processes", "1", "--retries", "0", "--strict"])
        assert code == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err[-1].startswith(f"campaign {campaign_id!r} aborted (--strict)")

    def test_cli_shard_drains_without_reduce(self, tmp_path, capsys):
        # A shard run of a registered experiment holds only its
        # partition's records, so reducers must not run: both shards
        # drain cleanly, then the unsharded pass reduces from cache.
        uri = f"dir:{tmp_path / 'drain'}"
        common = ["run", "thm2", "--scale", "smoke", "--processes", "1",
                  "--store", uri, "--cache-dir", str(tmp_path / "cache")]
        for shard in ("0/2", "1/2"):
            assert main([*common, "--shard", shard]) == 0
            out = capsys.readouterr().out
            assert f"shard {shard}: drained" in out
            assert "shape checks" not in out
        assert main(common) == 0
        assert "shape checks" in capsys.readouterr().out

    def test_cli_store_flag_routes_results(self, tmp_path):
        uri = f"dir:{tmp_path / 'cli'}"
        code = main(
            ["run", "thm2", "--scale", "smoke", "--store", uri,
             "--cache-dir", str(tmp_path / "cache")]
        )
        assert code == 0
        store = open_store(uri)
        assert len(store) > 0
        assert store.list_campaigns()
        # nothing went to the --cache-dir default store
        assert len(open_store(tmp_path / "cache" / "results")) == 0
        # --store reached the command's runner only, not the process
        from repro.store import resolve_store_uri

        assert resolve_store_uri() != uri


class TestCliCache:
    def test_stats_and_clear(self, tmp_path, capsys):
        uri = f"dir:{tmp_path / 'c'}"
        store = open_store(uri)
        store.put("a" * 32, {"makespan": 1})
        cache = str(tmp_path / "cache")
        assert main(["cache", "stats", "--store", uri,
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert f"{uri}: 1 entries" in out
        assert "workloads" in out
        assert main(["cache", "clear", "--store", uri,
                     "--cache-dir", cache, "--results-only"]) == 0
        assert "cleared 1" in capsys.readouterr().out
        reopened = open_store(uri)
        assert len(reopened) == 0

    def test_scope_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            main(["cache", "stats", "--results-only", "--workloads-only"])


class TestOneStoreRule:
    """``run``, ``cache`` and ``run --resume`` find their result store by
    one rule: ``--store``, else ``REPRO_STORE``, else
    ``<cache-dir>/results``; with none of them there is no store."""

    def test_run_cache_and_resume_share_the_cache_dir_store(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.analysis.sweep as sweep_mod

        monkeypatch.delenv("REPRO_STORE", raising=False)
        cache = tmp_path / "cache"
        common = ["--processes", "1", "--cache-dir", str(cache)]
        assert main(["run", "thm2", *common]) == 0
        capsys.readouterr()
        store = open_store(f"dir:{cache / 'results'}")
        entries, campaigns = len(store), store.list_campaigns()
        assert entries > 0 and campaigns

        assert main(["cache", "stats", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert f"dir:{cache / 'results'}: {entries} entries" in out

        simulated = []
        real = sweep_mod.simulate

        def counting(*args, **kwargs):
            simulated.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sweep_mod, "simulate", counting)
        for campaign_id in campaigns:
            assert main(["run", "--resume", campaign_id, *common]) == 0
        assert simulated == []

    def test_bad_store_uri_exits_2(self, tmp_path, capsys, monkeypatch):
        # REPRO_STORE is checked like --store: one line, exit 2, and no
        # campaign runs
        cache = ["--cache-dir", str(tmp_path)]
        monkeypatch.setenv("REPRO_STORE", "sqlite:/x")
        for argv, source in (
            (["run", "thm2", *cache], "REPRO_STORE"),
            (["cache", "stats", *cache], "REPRO_STORE"),
            (["run", "--resume", "any", *cache], "REPRO_STORE"),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"bad {source}: ")
        monkeypatch.delenv("REPRO_STORE")
        assert main(["run", "thm2", "--store", "sqlite:/x", *cache]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("bad --store: ")
        assert not (tmp_path / "results").exists()

    def test_no_store_exits_2(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        for argv, what in (
            (["cache", "stats"], "result store"),
            (["run", "--resume", "any"], "result store"),
            (["cache", "stats", "--workloads-only"], "workload cache"),
        ):
            assert main(argv) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith(f"no {what}")


class TestManifestLineage:
    def test_campaign_manifest_records_store_and_resume(self, tmp_path):
        from repro.experiments.base import (
            Campaign,
            Reduction,
            save_experiment_output,
        )

        campaign = Campaign.sweep(
            "lineage-demo",
            "store lineage demo",
            build_jobs=lambda ctx: demo_jobs(2),
            reduce=lambda ctx, records: Reduction(
                rows=[r.row() for r in records], checks={"ran": True}, text="ok"
            ),
        )
        out = campaign.run(
            scale="smoke", runner=SweepRunner(processes=1, cache_dir=tmp_path)
        )
        target = save_experiment_output(out, tmp_path / "save", seed=0)
        manifest = json.loads((target / "manifest.json").read_text())
        section = manifest["campaign"]
        assert section["campaign_id"].startswith("lineage-demo-")
        assert section["store"] == f"dir:{tmp_path / 'results'}"
        assert section["resumed"] == 0
        assert section["shard"] == ""
