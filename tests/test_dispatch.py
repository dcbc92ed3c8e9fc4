"""The engine dispatch rule and the labels that report it.

``engine="auto"`` runs every job on the reference engine, the only
engine that fast-forwards, whether or not its working set fits in HBM.
``engine="fast"`` runs an eligible job on the fast path (solo, or as a
lockstep lane of :func:`simulate_batch`) and raises elsewhere. Every
label the program writes — ``resolve_engine``,
``simulate_batch(...).engines``, the sweep manifest's ``engine`` and
``repro_engine_runs_total{engine}`` — must name the engine that ran.
The sweep runs every job on its own and never calls the batch engine.
"""

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

import repro.analysis.sweep as sweep_mod
from repro.analysis import SweepJob, SweepRunner, WorkloadSpec
from repro.core import (
    BatchSimulator,
    FastSimulator,
    SimulationConfig,
    Simulator,
    resolve_engine,
    simulate,
    simulate_batch,
)
from repro.obs import CallbackProbe
from repro.obs.metrics import PHASE_METRIC
from repro.traces import make_workload

WORKLOAD = make_workload("zipf", threads=6, seed=4, length=300, pages=20)
#: the fewest HBM slots that hold every page the workload touches
FITS = WORKLOAD.attestation.max_page + 1
CONTENDED = 40


def config(slots, seed=0, **kw):
    return SimulationConfig(hbm_slots=slots, channels=2, seed=seed, **kw)


def assert_same_result(a, b):
    """Field-wise equality ignoring wall time and the fast-forward
    counters, which only the reference engine fills (no response logs
    here)."""
    for f in dataclasses.fields(a):
        if f.name not in ("wall_time_s", "ff_intervals", "ff_elided_ticks"):
            assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.fixture()
def ran(monkeypatch):
    """Spy: (engine, config seed) for every run each engine class made."""
    log = []
    for name, cls in (("reference", Simulator), ("fast", FastSimulator)):
        real = cls.run

        def spy(self, _real=real, _name=name):
            log.append((_name, self.config.seed))
            return _real(self)

        monkeypatch.setattr(cls, "run", spy)
    real_batch = BatchSimulator.run

    def batch_spy(self):
        log.extend(("batch", cfg.seed) for _, cfg in self.lanes)
        return real_batch(self)

    monkeypatch.setattr(BatchSimulator, "run", batch_spy)
    return log


class TestRule:
    def test_contended_lru_job_goes_to_reference(self):
        assert resolve_engine(WORKLOAD, config(CONTENDED)) == "reference"
        assert resolve_engine(WORKLOAD, config(FITS - 1)) == "reference"

    def test_fitting_job_goes_to_reference(self):
        assert resolve_engine(WORKLOAD, config(FITS)) == "reference"

    def test_fitting_job_goes_to_fast(self, ran):
        # only when asked for: engine="fast" still reaches the fast path
        assert resolve_engine(WORKLOAD, config(FITS), "fast") == "fast"
        simulate(WORKLOAD, config(FITS, seed=4), engine="fast")
        assert ran == [("fast", 4)]

    def test_raw_arrays_follow_the_same_rule(self):
        traces = [[0, 1, 2], [3, 4]]
        assert resolve_engine(traces, config(5)) == "reference"
        assert resolve_engine(traces, config(4)) == "reference"
        assert resolve_engine(traces, config(5), "fast") == "fast"
        with pytest.raises(ValueError, match="fast"):
            resolve_engine([[0, 1], [1]], config(5), "fast")

    def test_fast_still_forces_fast_on_contended_job(self, ran):
        assert resolve_engine(WORKLOAD, config(CONTENDED), "fast") == "fast"
        forced = simulate(WORKLOAD, config(CONTENDED, seed=1), engine="fast")
        assert ran == [("fast", 1)]
        assert_same_result(forced, simulate(WORKLOAD, config(CONTENDED, seed=1)))

    def test_reference_still_forces_reference_on_fitting_job(self):
        assert resolve_engine(WORKLOAD, config(FITS), "reference") == "reference"

    def test_ineligible_jobs_stay_on_reference(self):
        clock = config(FITS, replacement="clock")
        assert resolve_engine(WORKLOAD, clock) == "reference"
        with pytest.raises(ValueError, match="fast"):
            resolve_engine(WORKLOAD, clock, "fast")

    def test_simulate_runs_the_resolved_engine(self, ran, engine_runs):
        simulate(WORKLOAD, config(CONTENDED, seed=1))
        simulate(WORKLOAD, config(FITS, seed=2))
        simulate(WORKLOAD, config(FITS, seed=3), engine="fast")
        assert ran == [("reference", 1), ("reference", 2), ("fast", 3)]
        assert engine_runs() == {"reference": 2, "fast": 1}


class TestBatchDispatch:
    def mixed_items(self):
        return [
            (WORKLOAD, config(FITS if i % 2 else CONTENDED, seed=i))
            for i in range(7)
        ]

    def probed_items(self):
        """mixed_items, the odd ones carrying a callback probe that
        keeps them out of the lockstep lanes."""
        return [
            (traces, cfg.replace(probes=(CallbackProbe(lambda s: None),)))
            if i % 2
            else (traces, cfg)
            for i, (traces, cfg) in enumerate(self.mixed_items())
        ]

    def assert_ran_as_labelled(self, ran, items, labels):
        assert sorted(ran) == sorted(
            (label, cfg.seed) for label, (_, cfg) in zip(labels, items)
        )

    def test_mixed_list_bit_identical_to_per_item(self, ran, engine_runs):
        items = self.mixed_items()
        batched = simulate_batch(items)
        assert batched.engines == ["reference"] * len(items)
        assert engine_runs() == {"reference": len(items)}
        items = self.probed_items()
        batched = simulate_batch(items, engine="fast")
        assert batched.engines == ["batch", "fast"] * 3 + ["batch"]
        assert engine_runs() == {"reference": 7, "batch": 4, "fast": 3}
        for (traces, cfg), result in zip(items, batched):
            assert_same_result(result, simulate(traces, cfg))

    def test_lone_trailing_lane_is_labelled_fast(self, ran, engine_runs):
        # one passive eligible item among probed ones runs solo on the
        # fast path, not as a one-lane batch
        items = self.probed_items()[1:4]
        batched = simulate_batch(items, engine="fast")
        assert batched.engines == ["fast", "fast", "fast"]
        self.assert_ran_as_labelled(ran, items, batched.engines)
        assert engine_runs() == {"fast": 3}
        for (traces, cfg), result in zip(items, batched):
            assert_same_result(result, simulate(traces, cfg))

    def test_forced_fast_batches_contended_lanes(self, ran):
        items = self.mixed_items()
        assert simulate_batch(items, engine="fast").engines == ["batch"] * len(items)
        assert {label for label, _ in ran} == {"batch"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            simulate_batch(self.mixed_items(), engine="warp")


class TestSweepLabels:
    """The sweep runs every job as its own attempt, in process or in a
    pool worker; its manifest names the engine that ran it."""

    def jobs(self):
        spec = WorkloadSpec.make("zipf", 6, seed=4, length=300, pages=20)
        return [
            SweepJob(spec, config(FITS if i % 2 else CONTENDED, seed=i), tag=f"j{i}")
            for i in range(5)
        ]

    @staticmethod
    def expected_runs(jobs):
        return sorted(("reference", job.config.seed) for job in jobs)

    def test_solo_job_labels_name_the_engine_that_ran(self, ran, engine_runs):
        sweep_mod._pool_init(None)
        for job in self.jobs()[:2]:
            record, manifest = sweep_mod._run_job(job)
            assert manifest["engine"] == ran[-1][0]
            assert manifest["execution"] == {"attempt": 1}
        # the second job fits in HBM and still runs on the reference engine
        assert [label for label, _ in ran] == ["reference", "reference"]
        assert engine_runs() == {"reference": 2}

    def test_single_process_campaign_labels(self, ran, engine_runs, monkeypatch):
        builds = []
        build = WorkloadSpec.build

        def counted_build(spec, cache=None):
            builds.append(spec)
            return build(spec, cache)

        monkeypatch.setattr(WorkloadSpec, "build", counted_build)
        jobs = self.jobs()
        SweepRunner(processes=1, result_cache=False).run(jobs)
        # in-process, the five jobs' one spec is built once and shared
        assert len(builds) == 1
        assert sorted(ran) == self.expected_runs(jobs)  # each job ran once
        assert engine_runs() == {"reference": 5}

    @pytest.mark.parametrize("cache_dir", [False, True])
    def test_pool_campaign_runs_contended_jobs_as_their_own(
        self, tmp_path, monkeypatch, cache_dir
    ):
        pool_sizes = []
        make_pool = SweepRunner._make_pool

        def sized_pool(self, workers):
            pool_sizes.append(workers)
            return make_pool(self, workers)

        monkeypatch.setattr(SweepRunner, "_make_pool", sized_pool)
        jobs = self.jobs()
        store = tmp_path / "store"
        SweepRunner(
            processes=2,
            cache_dir=tmp_path / "wl" if cache_dir else None,
            store=str(store),
        ).run(jobs)
        assert pool_sizes == [2]
        manifests = [
            json.loads(path.read_text())["manifest"] for path in store.glob("*.json")
        ]
        assert [m["engine"] for m in manifests] == ["reference"] * 5
        assert all(m["execution"] == {"attempt": 1} for m in manifests)


def _fork_spy(monkeypatch, tmp_path, owner, name):
    """Patch ``owner.name`` to append the caller's pid to a file before
    running; forked pool workers inherit the patch. Returns a callable
    listing the logged pids."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the spy only under fork")
    log = tmp_path / f"{name}.pids"
    log.touch()
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return lambda: [int(pid) for pid in log.read_text().split()]


class TestOneDispatchPath:
    """Cache-miss jobs take one path, :func:`repro.analysis.sweep._run_job`:
    no lockstep units, no lanes handed back and run again."""

    def test_pool_campaign_builds_each_job_workload_once(self, tmp_path, monkeypatch):
        specs = [
            WorkloadSpec.make("zipf", 6, seed=s, length=300, pages=20) for s in range(4)
        ]
        jobs = [
            SweepJob(spec, config(CONTENDED, seed=i), tag=f"s{s}-{i}")
            for s, spec in enumerate(specs)
            for i in range(2)
        ]
        builds = _fork_spy(monkeypatch, tmp_path, WorkloadSpec, "build")
        runner = SweepRunner(processes=2, cache_dir=tmp_path / "wl", result_cache=False)
        runner.run(jobs)
        assert runner.last_campaign.simulated == len(jobs)
        in_workers = [pid for pid in builds() if pid != os.getpid()]
        # the parent warms the on-disk cache once per spec; each worker
        # attempt then loads its own job's workload exactly once
        assert len(builds()) - len(in_workers) == len(specs)
        assert len(in_workers) == len(jobs)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_campaign_never_calls_the_batch_engine(
        self, tmp_path, monkeypatch, processes
    ):
        import repro.core.batchengine as batchengine

        # every simulate_batch call plans its items first, under whatever
        # name its caller imported it
        calls = _fork_spy(monkeypatch, tmp_path, batchengine, "_plan_batch")
        lockstep = _fork_spy(monkeypatch, tmp_path, BatchSimulator, "run")
        jobs = [
            SweepJob(
                WorkloadSpec.make("zipf", 6, seed=4, length=300, pages=20),
                config(FITS if i % 2 else CONTENDED, seed=i),
                tag=f"j{i}",
            )
            for i in range(6)
        ]
        records = SweepRunner(processes=processes, result_cache=False).run(jobs)
        assert not any(r.failed for r in records)
        assert calls() == [] and lockstep() == []


class TestPhaseLedger:
    """Phases add up to the wall: per-lane batch times split the batch
    wall, and a campaign's disjoint phases never exceed its wall."""

    def test_lane_walls_sum_to_batch_wall(self):
        lanes = [(WORKLOAD.traces, config(FITS, seed=i)) for i in range(6)]
        start = time.perf_counter()
        results = BatchSimulator(lanes).run()
        wall = time.perf_counter() - start
        assert sum(r.wall_time_s for r in results) <= wall

    def test_single_process_campaign_phases_sum_to_wall(self, registry, engine_runs):
        spec = WorkloadSpec.make("zipf", 8, seed=1, length=2000, pages=16)
        jobs = [
            SweepJob(spec, config(128 if i < 8 else 64, seed=i), tag=f"j{i}")
            for i in range(12)
        ]
        start = time.perf_counter()
        SweepRunner(processes=1, result_cache=False).run(jobs)
        wall = time.perf_counter() - start
        assert engine_runs() == {"reference": 12}
        phases = {
            dict(key)["phase"]: cell["sum"]
            for key, cell in registry.families()[PHASE_METRIC].series().items()
        }
        # fast_forward is spent inside the simulate phase, not beside it
        assert phases.get("fast_forward", 0.0) <= phases["simulate"]
        top_level = sum(v for k, v in phases.items() if k != "fast_forward")
        assert top_level <= wall + 0.01, (phases, wall)
