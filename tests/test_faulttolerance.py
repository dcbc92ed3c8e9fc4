"""Fault-tolerant campaign execution: no worker failure may abort or
lose a sweep.

Three injected fault families (worker exception, deadline overrun,
SIGKILLed worker) each must leave the campaign with: every non-failed
job's record present and bit-identical to a fault-free run, failed jobs
carrying structured errors, retry/recovery counters in
:class:`CampaignStats`, and nothing failed written to the result cache.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro.analysis import (
    CampaignStats,
    DirectoryStore,
    SweepFailure,
    SweepJob,
    SweepRunner,
    WorkloadSpec,
    parse_fault_plan,
    run_sweep,
    set_execution_defaults,
    set_fault_plan,
    sweep_result_key,
)
from repro.analysis.faults import FaultSpec, InjectedFault, maybe_inject
from repro.analysis.sweep import JobTimeout, _job_deadline
from repro.core import SimulationConfig

#: deterministic engine-produced fields (wall_time_s varies per run)
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


def demo_jobs(victim_tag="victim"):
    """Four jobs; exactly one carries the fault-matched tag.

    At 32 slots the 4-thread jobs (64 pages) are contended and run on
    the reference engine; the 2-thread ones fit in HBM and run on the
    fast engine.
    """
    jobs = []
    for threads in (2, 4):
        spec = WorkloadSpec.make(
            "adversarial_cycle", threads=threads, pages=16, repeats=4
        )
        for arb in ("fifo", "priority"):
            tag = victim_tag if (threads, arb) == (4, "priority") else f"ok-{threads}-{arb}"
            jobs.append(
                SweepJob(
                    spec, SimulationConfig(hbm_slots=32, arbitration=arb), tag=tag
                )
            )
    return jobs


def assert_matches_baseline(records, baseline, *, expect_failed=()):
    """Non-failed records must be bit-identical to the fault-free run."""
    assert len(records) == len(baseline)
    for record, clean in zip(records, baseline):
        if record.job.tag in expect_failed:
            assert record.failed
            assert record.error is not None
        else:
            assert not record.failed
            for name in METRIC_FIELDS:
                assert getattr(record, name) == getattr(clean, name), name


class TestFaultPlanParsing:
    def test_parse_full_spec(self):
        (spec,) = parse_fault_plan("sleep:victim:seconds=2.5,attempts=3")
        assert spec == FaultSpec("sleep", "victim", attempts=3, seconds=2.5)

    def test_parse_defaults_and_multiple(self):
        a, b = parse_fault_plan("raise:a; kill:*:attempts=0")
        assert a == FaultSpec("raise", "a")
        assert b.mode == "kill" and b.attempts == 0

    def test_parse_rejects_unknown_mode_and_option(self):
        with pytest.raises(ValueError):
            parse_fault_plan("explode:x")
        with pytest.raises(ValueError):
            parse_fault_plan("raise:x:frequency=2")

    def test_set_fault_plan_validates_and_restores(self):
        with pytest.raises(ValueError):
            set_fault_plan("not-a-mode:x")
        previous = set_fault_plan("raise:abc")
        assert previous is None
        assert set_fault_plan(None) == "raise:abc"

    def test_attempt_gating(self):
        spec = FaultSpec("raise", "victim", attempts=2)
        assert spec.fires("the-victim-job", 1)
        assert spec.fires("the-victim-job", 2)
        assert not spec.fires("the-victim-job", 3)
        assert not spec.fires("innocent", 1)
        always = FaultSpec("raise", "*", attempts=0)
        assert always.fires("anything", 99)

    def test_maybe_inject_raises_only_on_match(self):
        set_fault_plan("raise:victim")
        maybe_inject("innocent", 1)  # no-op
        with pytest.raises(InjectedFault):
            maybe_inject("victim", 1)
        maybe_inject("victim", 2)  # attempts=1 default: cleared on retry


class TestWorkerRaise:
    @pytest.mark.parametrize("processes", [1, 2])
    def test_keep_going_produces_failed_record(self, processes):
        jobs = demo_jobs()
        baseline = run_sweep(jobs, processes=1)
        set_fault_plan("raise:victim:attempts=0")
        runner = SweepRunner(processes=processes, retries=1)
        records = runner.run(jobs)
        assert_matches_baseline(records, baseline, expect_failed={"victim"})
        failed = next(r for r in records if r.failed)
        assert failed.error.kind == "exception"
        assert failed.error.error_type == "InjectedFault"
        assert "injected fault" in failed.error.message
        assert failed.error.traceback  # worker-side traceback preserved
        assert failed.error.attempts == 2  # initial try + 1 retry
        stats = runner.last_campaign
        assert stats.failed == 1
        assert stats.retried == 1
        assert stats.simulated == len(jobs) - 1

    def test_retry_clears_transient_fault(self):
        jobs = demo_jobs()
        baseline = run_sweep(jobs, processes=1)
        set_fault_plan("raise:victim:attempts=1")
        runner = SweepRunner(processes=1, retries=1)
        records = runner.run(jobs)
        assert_matches_baseline(records, baseline)  # nothing failed
        stats = runner.last_campaign
        assert stats.failed == 0
        assert stats.retried == 1

    def test_strict_mode_raises_sweep_failure(self):
        jobs = demo_jobs()
        set_fault_plan("raise:victim:attempts=0")
        runner = SweepRunner(processes=1, retries=0, failure_mode="strict")
        with pytest.raises(SweepFailure) as excinfo:
            runner.run(jobs)
        assert excinfo.value.job.tag == "victim"
        assert excinfo.value.error.error_type == "InjectedFault"

    def test_failed_record_row_and_zero_metrics(self):
        jobs = demo_jobs()
        set_fault_plan("raise:victim:attempts=0")
        records = SweepRunner(processes=1, retries=0).run(jobs)
        failed = next(r for r in records if r.failed)
        assert failed.makespan == 0 and failed.total_requests == 0
        row = failed.row()
        assert row["failed"] is True
        assert row["error"] == "InjectedFault"
        ok = next(r for r in records if not r.failed)
        assert ok.row()["failed"] is False and ok.row()["error"] == ""


class TestTimeout:
    def test_overrun_fails_with_timeout_kind(self):
        jobs = demo_jobs()
        baseline = run_sweep(jobs, processes=1)
        set_fault_plan("sleep:victim:seconds=30,attempts=0")
        runner = SweepRunner(processes=1, retries=0, job_timeout=0.2)
        records = runner.run(jobs)
        assert_matches_baseline(records, baseline, expect_failed={"victim"})
        failed = next(r for r in records if r.failed)
        assert failed.error.kind == "timeout"
        assert runner.last_campaign.failed == 1

    def test_timeout_in_pool(self):
        jobs = demo_jobs()
        set_fault_plan("sleep:victim:seconds=30,attempts=0")
        runner = SweepRunner(processes=2, retries=0, job_timeout=0.2)
        records = runner.run(jobs)
        kinds = [r.error.kind for r in records if r.failed]
        assert kinds == ["timeout"]

    def test_timeout_retry_succeeds_when_fault_clears(self):
        jobs = demo_jobs()
        set_fault_plan("sleep:victim:seconds=30,attempts=1")
        runner = SweepRunner(processes=1, retries=1, job_timeout=0.2)
        records = runner.run(jobs)
        assert not any(r.failed for r in records)
        assert runner.last_campaign.retried == 1


class TestWorkerKill:
    """SIGKILLed workers surface as BrokenProcessPool; the campaign must
    rebuild the pool and resubmit only the lost jobs."""

    def test_killed_worker_recovers_all_records(self):
        jobs = demo_jobs()
        baseline = run_sweep(jobs, processes=1)
        set_fault_plan("kill:victim:attempts=1")
        runner = SweepRunner(processes=2, retries=1)
        records = runner.run(jobs)
        # zero lost records: the campaign completed with every record
        assert_matches_baseline(records, baseline)
        stats = runner.last_campaign
        assert stats.failed == 0
        assert stats.pool_rebuilds >= 1
        assert stats.recovered >= 1  # the victim, plus any in-flight peers

    def test_unrecoverable_kill_exhausts_rebuild_budget(self):
        from repro.analysis.sweep import _MAX_POOL_REBUILDS

        jobs = demo_jobs()
        set_fault_plan("kill:victim:attempts=0")  # dies on every attempt
        runner = SweepRunner(processes=2, retries=1)
        records = runner.run(jobs)
        # The campaign still completes: every record is present. The
        # victim is deterministically failed; innocent jobs in flight
        # when the budget ran out may be failed too (their worker died
        # with the pool), but never silently lost.
        assert all(r is not None for r in records)
        victim = next(r for r in records if r.job.tag == "victim")
        assert victim.failed
        assert victim.error.kind == "worker-lost"
        assert victim.error.error_type == "BrokenProcessPool"
        stats = runner.last_campaign
        assert stats.failed >= 1
        assert stats.pool_rebuilds == _MAX_POOL_REBUILDS + 1


class TestResultCacheHygiene:
    def test_failed_jobs_never_poison_the_cache(self, tmp_path):
        jobs = demo_jobs()
        set_fault_plan("raise:victim:attempts=0")
        runner = SweepRunner(processes=1, cache_dir=tmp_path, retries=0)
        records = runner.run(jobs)
        failed = next(r for r in records if r.failed)
        key = sweep_result_key(
            failed.job.workload, failed.job.config, failed.job.payload
        )
        cache = DirectoryStore(tmp_path / "results")
        assert cache.get(key) is None  # the failure was not cached
        assert len(cache) == len(jobs) - 1  # the successes were

        # A fault-free rerun replays the successes and simulates only
        # the previously failed job.
        set_fault_plan(None)
        runner2 = SweepRunner(processes=1, cache_dir=tmp_path)
        records2 = runner2.run(jobs)
        assert not any(r.failed for r in records2)
        assert runner2.last_campaign.cache_hits == len(jobs) - 1
        assert runner2.last_campaign.simulated == 1

    def test_result_cache_put_rejects_failed_payload(self, tmp_path):
        cache = DirectoryStore(tmp_path)
        with pytest.raises(ValueError):
            cache.put("abc", {"makespan": 0, "error": {"kind": "exception"}})

    def test_cached_entry_records_attempt(self, tmp_path):
        jobs = demo_jobs()
        set_fault_plan("raise:victim:attempts=1")
        SweepRunner(processes=1, cache_dir=tmp_path, retries=1).run(jobs)
        attempts = []
        for path in (tmp_path / "results").glob("*.json"):
            manifest = json.loads(path.read_text())["manifest"]
            attempts.append(manifest["execution"]["attempt"])
        assert sorted(attempts) == [1, 1, 1, 2]  # the victim took 2 tries


class TestCampaignStatsSurface:
    def test_summary_table_unchanged_without_failures(self):
        jobs = demo_jobs()
        runner = SweepRunner(processes=1)
        runner.run(jobs)
        table = runner.last_campaign.summary_table()
        assert "failed" not in table
        assert "retried" not in table

    def test_summary_table_shows_failure_counters(self):
        jobs = demo_jobs()
        set_fault_plan("raise:victim:attempts=0")
        runner = SweepRunner(processes=1, retries=1)
        runner.run(jobs)
        table = runner.last_campaign.summary_table()
        assert "1 failed" in table
        assert "1 retried" in table
        header = next(l for l in table.splitlines() if "workload" in l)
        assert "failed" in header  # column present

    def test_collect_counts_failed_separately(self):
        jobs = demo_jobs()
        set_fault_plan("raise:victim:attempts=0")
        runner = SweepRunner(processes=1, retries=0)
        records = runner.run(jobs)
        stats = CampaignStats.collect(records, wall_time_s=1.0)
        assert stats.failed == 1
        assert stats.simulated == len(jobs) - 1
        assert stats.sim_time_s > 0.0
        group = stats.by_group[("adversarial_cycle", "priority")]
        assert group["failed"] == 1

    def test_campaign_manifest_and_checks_surface_counters(self, tmp_path):
        from repro.experiments.base import (
            Campaign,
            Reduction,
            save_experiment_output,
        )

        campaign = Campaign.sweep(
            "ft-demo",
            "fault-tolerance demo",
            build_jobs=lambda ctx: demo_jobs(),
            reduce=lambda ctx, records: Reduction(
                rows=[r.row() for r in records if not r.failed],
                checks={"ran": True},
                text="ok",
            ),
        )
        set_fault_plan("raise:victim:attempts=0")
        previous = set_execution_defaults(retries=1)
        try:
            out = campaign.run(scale="smoke", processes=1)
        finally:
            set_execution_defaults(**previous)
        assert out.campaign.failed == 1
        target = save_experiment_output(out, tmp_path, seed=0)
        checks = json.loads((target / "checks.json").read_text())
        assert checks["failed_jobs"] == 1
        assert checks["retried_jobs"] == 1
        manifest = json.loads((target / "manifest.json").read_text())
        assert manifest["campaign"]["failed"] == 1
        assert manifest["campaign"]["retried"] == 1
        assert manifest["campaign"]["recovered"] == 0


class TestExecutionDefaults:
    def test_round_trip(self):
        previous = set_execution_defaults(
            retries=3, job_timeout=12.5, failure_mode="strict"
        )
        try:
            runner = SweepRunner(processes=1)
            assert runner.retries == 3
            assert runner.job_timeout == 12.5
            assert runner.failure_mode == "strict"
        finally:
            restored = set_execution_defaults(**previous)
        assert restored == {
            "retries": 3,
            "job_timeout": 12.5,
            "failure_mode": "strict",
            "shard": None,
        }
        runner = SweepRunner(processes=1)
        assert runner.retries == previous["retries"]
        assert runner.job_timeout is previous["job_timeout"]

    def test_validation(self):
        with pytest.raises(ValueError):
            set_execution_defaults(retries=-1)
        with pytest.raises(ValueError):
            set_execution_defaults(failure_mode="explode")
        # a rejected call stores none of its values
        before = set_execution_defaults()
        with pytest.raises(ValueError):
            set_execution_defaults(retries=4, failure_mode="explode")
        assert set_execution_defaults() == before
        with pytest.raises(ValueError):
            SweepRunner(processes=1, failure_mode="explode")
        with pytest.raises(ValueError):
            SweepRunner(processes=1, retries=-2)

    def test_runner_arguments_override_defaults(self):
        runner = SweepRunner(
            processes=1,
            retries=5,
            job_timeout=1.0,
            failure_mode="strict",
        )
        assert (runner.retries, runner.job_timeout, runner.failure_mode) == (
            5,
            1.0,
            "strict",
        )


class TestNoFaultEquivalence:
    """With no faults installed, the fault-tolerant runner must be
    byte-for-byte equivalent to the historical behavior."""

    def test_records_identical_and_counters_zero(self, tmp_path):
        jobs = demo_jobs()
        seq = run_sweep(jobs, processes=1, cache_dir=tmp_path / "a")
        par = run_sweep(jobs, processes=2, cache_dir=tmp_path / "b")
        for a, b in zip(seq, par):
            assert dataclasses.replace(a, wall_time_s=0.0) == dataclasses.replace(
                b, wall_time_s=0.0
            )
        runner = SweepRunner(processes=2, cache_dir=tmp_path / "c")
        runner.run(jobs)
        stats = runner.last_campaign
        assert (stats.failed, stats.retried, stats.recovered) == (0, 0, 0)
        assert stats.pool_rebuilds == 0


class TestWatchdogDeadline:
    """The ``_job_deadline`` watchdog fallback enforces timeouts off the
    main thread, where SIGALRM is unavailable."""

    def test_watchdog_interrupts_overrun_in_worker_thread(self):
        outcome = {}

        def body():
            try:
                with _job_deadline(0.1):
                    # Busy loop, not time.sleep: the async exception is
                    # delivered at a bytecode boundary.
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        pass
                outcome["result"] = "finished"
            except JobTimeout as exc:
                outcome["result"] = str(exc)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert "0.1s deadline" in outcome["result"]

    def test_watchdog_noop_when_job_finishes_in_time(self):
        outcome = {}

        def body():
            with _job_deadline(30.0):
                outcome["result"] = "finished"

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=30)
        assert outcome["result"] == "finished"
