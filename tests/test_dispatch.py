"""The engine dispatch rule and the labels that report it.

``engine="auto"`` runs a job on the fast path (solo or as a lockstep
batch lane) only when the job is eligible *and* its working set fits in
HBM (``hbm_slots > attestation.max_page``); a contended job runs on the
reference engine, which is the faster engine there. Every label the
program writes — ``resolve_engine``, ``simulate_batch(...).engines``,
the sweep record's ``batched`` flag, the manifest's ``engine`` and
``repro_engine_runs_total{engine}`` — must name the engine that ran.
"""

import dataclasses
import json
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
    set_batch_limit,
    simulate,
    simulate_batch,
)
from repro.obs.metrics import PHASE_METRIC
from repro.traces import make_workload

WORKLOAD = make_workload("zipf", threads=6, seed=4, length=300, pages=20)
#: the fewest HBM slots that hold every page the workload touches
FITS = WORKLOAD.attestation.max_page + 1
CONTENDED = 40


def config(slots, seed=0, **kw):
    return SimulationConfig(hbm_slots=slots, channels=2, seed=seed, **kw)


def assert_same_result(a, b):
    """Field-wise equality ignoring wall time (no response logs here)."""
    for f in dataclasses.fields(a):
        if f.name != "wall_time_s":
            assert getattr(a, f.name) == getattr(b, f.name), f.name


@pytest.fixture(autouse=True)
def _restore_batch_limit():
    previous = set_batch_limit(None)
    yield
    set_batch_limit(previous)


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

    def test_fitting_job_goes_to_fast(self):
        assert resolve_engine(WORKLOAD, config(FITS)) == "fast"

    def test_raw_arrays_follow_the_same_rule(self):
        traces = [[0, 1, 2], [3, 4]]
        assert resolve_engine(traces, config(5)) == "fast"
        assert resolve_engine(traces, config(4)) == "reference"

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
        assert ran == [("reference", 1), ("fast", 2)]
        assert engine_runs() == {"reference": 1, "fast": 1}


class TestBatchDispatch:
    def mixed_items(self):
        return [
            (WORKLOAD, config(FITS if i % 2 else CONTENDED, seed=i))
            for i in range(7)
        ]

    def assert_ran_as_labelled(self, ran, items, labels):
        assert sorted(ran) == sorted(
            (label, cfg.seed) for label, (_, cfg) in zip(labels, items)
        )

    def test_mixed_list_bit_identical_to_per_item(self, ran, engine_runs):
        items = self.mixed_items()
        set_batch_limit(16)
        batched = simulate_batch(items)
        assert batched.engines == ["reference", "batch"] * 3 + ["reference"]
        self.assert_ran_as_labelled(ran, items, batched.engines)
        assert engine_runs() == {"reference": 4, "batch": 3}
        for (traces, cfg), result in zip(items, batched):
            assert_same_result(result, simulate(traces, cfg))

    def test_lone_trailing_lane_is_labelled_fast(self, ran, engine_runs):
        items = self.mixed_items()
        set_batch_limit(2)
        batched = simulate_batch(items)
        assert batched.engines == ["reference", "batch", "reference", "batch"] + [
            "reference", "fast", "reference"
        ]
        self.assert_ran_as_labelled(ran, items, batched.engines)
        assert engine_runs() == {"reference": 4, "batch": 2, "fast": 1}

    @pytest.mark.parametrize("limit", [0, 1])
    def test_disabled_batching_runs_every_item_solo(self, ran, limit):
        items = self.mixed_items()
        set_batch_limit(limit)
        batched = simulate_batch(items)
        assert batched.engines == ["reference", "fast"] * 3 + ["reference"]
        self.assert_ran_as_labelled(ran, items, batched.engines)
        for (traces, cfg), result in zip(items, batched):
            assert_same_result(result, simulate(traces, cfg))

    def test_env_zero_disables_batching(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "00")
        set_batch_limit(None)
        batched = simulate_batch(self.mixed_items())
        assert "batch" not in batched.engines

    def test_forced_fast_batches_contended_lanes(self, ran):
        items = self.mixed_items()
        set_batch_limit(16)
        assert simulate_batch(items, engine="fast").engines == ["batch"] * len(items)
        assert {label for label, _ in ran} == {"batch"}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            simulate_batch(self.mixed_items(), engine="warp")


class TestSweepLabels:
    """The worker hands contended lanes of a batch unit back to the
    parent, which runs each as its own job (in parallel under a pool);
    only lanes that fit in HBM stay in the lockstep unit."""

    def jobs(self):
        spec = WorkloadSpec.make("zipf", 6, seed=4, length=300, pages=20)
        return [
            SweepJob(spec, config(FITS if i % 2 else CONTENDED, seed=i), tag=f"j{i}")
            for i in range(5)
        ]

    def test_batch_unit_hands_contended_lanes_back(self, ran, engine_runs):
        sweep_mod._pool_init(None, None)
        set_batch_limit(16)
        jobs = self.jobs()
        outcomes = sweep_mod._run_batch(jobs, [1] * len(jobs))
        assert [isinstance(o, sweep_mod._BatchAbort) for o in outcomes] == [
            True, False, True, False, True
        ]
        assert sorted(ran) == [("batch", 1), ("batch", 3)]
        for lane, k in enumerate((1, 3)):
            record, manifest = outcomes[k]
            assert record.batched and manifest["engine"] == "batch"
            assert manifest["execution"]["batch_lanes"] == 2
            assert manifest["execution"]["batch_lane"] == lane
        assert engine_runs() == {"batch": 2}

    def test_all_contended_unit_runs_nothing(self, ran):
        sweep_mod._pool_init(None, None)
        jobs = [j for j in self.jobs() if j.config.hbm_slots == CONTENDED]
        outcomes = sweep_mod._run_batch(jobs, [1] * len(jobs))
        assert all(isinstance(o, sweep_mod._BatchAbort) for o in outcomes)
        assert ran == []

    def test_lone_fitting_lane_is_labelled_fast(self, ran):
        sweep_mod._pool_init(None, None)
        set_batch_limit(16)
        jobs = self.jobs()[:2]
        outcomes = sweep_mod._run_batch(jobs, [1, 1])
        assert isinstance(outcomes[0], sweep_mod._BatchAbort)
        record, manifest = outcomes[1]
        assert not record.batched and manifest["engine"] == "fast"
        assert ran == [("fast", 1)]

    def test_solo_job_labels_name_the_engine_that_ran(self, ran, engine_runs):
        sweep_mod._pool_init(None, None)
        for job in self.jobs()[:2]:
            record, manifest = sweep_mod._run_job(job)
            assert not record.batched
            assert manifest["engine"] == ran[-1][0]
        assert [label for label, _ in ran] == ["reference", "fast"]
        assert engine_runs() == {"reference": 1, "fast": 1}

    def test_single_process_campaign_labels(self, ran, engine_runs, monkeypatch):
        builds = []
        build = WorkloadSpec.build

        def counted_build(spec, cache=None):
            builds.append(spec)
            return build(spec, cache)

        monkeypatch.setattr(WorkloadSpec, "build", counted_build)
        set_batch_limit(16)
        records = SweepRunner(processes=1, result_cache=False).run(self.jobs())
        # in-process, the five jobs' one spec is built once: by the batch
        # unit, whose handed-back lanes reuse it
        assert len(builds) == 1
        ran_by_seed = {seed: label for label, seed in ran}
        assert len(ran) == len(ran_by_seed) == 5  # every job ran exactly once
        for record in records:
            engine = ran_by_seed[record.job.config.seed]
            assert record.batched == (engine == "batch"), record.job.tag
        assert engine_runs() == {"reference": 3, "batch": 2}

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
        set_batch_limit(16)
        jobs = self.jobs()
        store = tmp_path / "store"
        records = SweepRunner(
            processes=2,
            cache_dir=tmp_path / "wl" if cache_dir else None,
            store=str(store),
        ).run(jobs)
        # one batch unit, but its handed-back lanes need the whole pool
        assert pool_sizes == [2]
        assert [r.batched for r in records] == [False, True, False, True, False]
        executions = sorted(
            (m["engine"], m["execution"].get("batch_lanes"))
            for m in (
                json.loads(path.read_text())["manifest"]
                for path in store.glob("*.json")
            )
        )
        assert executions == [("batch", 2)] * 2 + [("reference", None)] * 3


class TestPhaseLedger:
    """Per-lane batch times split the batch wall instead of each
    counting it from batch start, so phases add up to the wall."""

    def test_lane_walls_sum_to_batch_wall(self):
        lanes = [(WORKLOAD.traces, config(FITS, seed=i)) for i in range(6)]
        start = time.perf_counter()
        results = BatchSimulator(lanes).run()
        wall = time.perf_counter() - start
        assert sum(r.wall_time_s for r in results) <= wall

    def test_single_process_campaign_phases_sum_to_wall(self, registry):
        set_batch_limit(8)
        spec = WorkloadSpec.make("zipf", 8, seed=1, length=2000, pages=16)
        jobs = [
            SweepJob(spec, config(128 if i < 8 else 64, seed=i), tag=f"j{i}")
            for i in range(12)
        ]
        start = time.perf_counter()
        records = SweepRunner(processes=1, result_cache=False).run(jobs)
        wall = time.perf_counter() - start
        assert sum(r.batched for r in records) == 8
        phases = {
            dict(key)["phase"]: cell["sum"]
            for key, cell in registry.families()[PHASE_METRIC].series().items()
        }
        # fast_forward is spent inside the simulate phase, not beside it
        assert phases.get("fast_forward", 0.0) <= phases["simulate"]
        top_level = sum(v for k, v in phases.items() if k != "fast_forward")
        assert top_level <= wall + 0.01, (phases, wall)
