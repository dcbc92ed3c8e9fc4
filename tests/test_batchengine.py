"""Differential battery for the batched lockstep engine.

The batch engine holds the same bit-identical discipline as the
fast-forward machinery (see ``tests/test_drain.py``): for every
batch-eligible configuration, running B jobs in NumPy lockstep must
produce exactly the ``SimulationResult`` (metrics, response logs, probe
samples) that the reference engine produces for each job alone. Only
the fast-forward counters differ: lanes tick every tick, so theirs read
0. Ineligible lanes fall back to the single-job dispatcher mid-batch
with no observable difference. The sweep harness runs every job on its
own; a result store it wrote while it still formed lockstep units
replays unchanged.
"""

import dataclasses
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import run_sweep
from repro.analysis.sweep import SweepJob, SweepRecord, WorkloadSpec
from repro.core import (
    ARBITRATION_POLICIES,
    ENGINE_SEMANTICS_VERSION,
    BatchSimulator,
    SimulationConfig,
    SimulationLimitError,
    batch_supported,
    simulate,
    simulate_batch,
)
from repro.obs import CallbackProbe, TimelineProbe
from repro.traces import make_workload

#: the nine arbitration policies; remap-driven schemes get a period
POLICIES = (
    "fifo",
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
    "random",
    "round_robin",
    "fr_fcfs",
)

#: three trace families spanning adversarial, skewed, and uniform access
FAMILIES = (
    ("adversarial_cycle", dict(threads=8, pages=12, repeats=8)),
    ("zipf", dict(threads=16, seed=3, length=400, pages=32)),
    ("random", dict(threads=12, seed=3, length=300, pages=20)),
)


#: the reference engine's fast-forward counters; batch lanes read 0
FF_FIELDS = ("ff_intervals", "ff_elided_ticks")


def results_equal(a, b):
    """Field-wise SimulationResult equality, ignoring wall_time_s and
    the fast-forward counters.

    ``response_log`` holds numpy arrays, so dataclass ``==`` is
    ambiguous; compare it element-wise and every other field exactly.
    """
    for f in dataclasses.fields(a):
        if f.name == "wall_time_s" or f.name in FF_FIELDS:
            continue
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if f.name == "response_log":
            if va is None or vb is None:
                if va is not vb:
                    return False
                continue
            if len(va) != len(vb):
                return False
            for xa, xb in zip(va, vb):
                if list(xa) != list(xb):
                    return False
        elif va != vb:
            return False
    return True


def config_for(policy, slots, probes=()):
    return SimulationConfig(
        hbm_slots=slots,
        channels=2,
        arbitration=policy,
        remap_period=37,
        seed=9,
        record_responses=True,
        probes=probes,
        probe_stride=7,
    )


class TestDifferentialBattery:
    """Batch-vs-reference bit identity over policies × families.

    Both slot counts are contended (every family's working set exceeds
    24 pages), where ``engine="auto"`` dispatches to the reference
    engine; the battery pins ``engine="fast"`` so the lanes really run
    in lockstep, and checks that they did.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_policy_bit_identity(self, policy, engine_runs):
        assert policy in ARBITRATION_POLICIES
        items, singles, batch_probes, single_probes = [], [], [], []
        for kind, params in FAMILIES:
            for slots in (6, 24):
                workload = make_workload(kind, **params)
                assert slots <= workload.attestation.max_page  # contended
                bp = TimelineProbe()
                sp = TimelineProbe()
                items.append((workload, config_for(policy, slots, (bp,))))
                singles.append((workload, config_for(policy, slots, (sp,))))
                batch_probes.append(bp)
                single_probes.append(sp)
        batched = simulate_batch(items, engine="fast")
        assert batched.engines == ["batch"] * len(items)
        assert engine_runs() == {"batch": len(items)}
        for (traces, config), result, bp, sp, (straces, sconfig) in zip(
            items, batched, batch_probes, single_probes, singles
        ):
            expected = simulate(straces, sconfig, engine="reference")
            assert results_equal(result, expected), config
            assert result.ff_intervals == result.ff_elided_ticks == 0
            assert [s.to_dict() for s in bp.samples] == [
                s.to_dict() for s in sp.samples
            ]

    def test_semantics_version_unchanged(self):
        # The batch engine reproduces engine semantics v1 bit for bit;
        # bump this ONLY with a deliberate, documented semantics change.
        assert ENGINE_SEMANTICS_VERSION == 1


class TestEligibilityAndFallback:
    def test_supported_matrix(self):
        assert batch_supported(SimulationConfig(hbm_slots=8))
        assert not batch_supported(
            SimulationConfig(hbm_slots=8, replacement="clock")
        )
        assert not batch_supported(
            SimulationConfig(hbm_slots=8, protect_pending=False)
        )
        assert not batch_supported(
            SimulationConfig(hbm_slots=8, collect_timeline=True)
        )
        assert not batch_supported(
            SimulationConfig(hbm_slots=8, probes=(CallbackProbe(lambda s: None),))
        )
        assert batch_supported(
            SimulationConfig(hbm_slots=8, probes=(TimelineProbe(),))
        )

    def test_heterogeneous_batch_with_fallback_lanes(self):
        w1 = make_workload("zipf", threads=8, seed=1, length=200, pages=24)
        w2 = make_workload("random", threads=6, seed=2, length=150, pages=16)
        items = [
            (w1, SimulationConfig(hbm_slots=12, channels=2, seed=1)),
            (w2, SimulationConfig(hbm_slots=8, seed=2, replacement="clock")),
            (w1, SimulationConfig(hbm_slots=10, seed=3, protect_pending=False)),
            (w2, SimulationConfig(hbm_slots=8, channels=2, seed=4)),
            (w1, SimulationConfig(hbm_slots=192, channels=2, seed=5)),
            (w2, SimulationConfig(hbm_slots=96, seed=6)),
            # eligible, but a callback probe keeps it out of the lanes
            (
                w2,
                SimulationConfig(
                    hbm_slots=8, seed=7, probes=(CallbackProbe(lambda s: None),)
                ),
            ),
        ]
        # auto runs every item solo on the reference engine
        batched = simulate_batch(items)
        assert batched.engines == ["reference"] * len(items)
        for (traces, config), result in zip(items, batched):
            assert results_equal(result, simulate(traces, config))
        forced = simulate_batch(items, engine="fast", return_exceptions=True)
        assert forced.engines == [
            "batch", None, None, "batch", "batch", "batch", "fast"
        ]
        assert [isinstance(r, ValueError) for r in forced] == [
            False, True, True, False, False, False, False
        ]
        for (traces, config), result in zip(items, forced):
            if not isinstance(result, ValueError):
                assert results_equal(result, simulate(traces, config))

    def test_empty_trace_lanes(self):
        arr = np.array([0, 1, 2, 0, 1], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        items = [
            ([arr, empty, arr + 3], SimulationConfig(hbm_slots=4)),
            ([arr + 6, empty], SimulationConfig(hbm_slots=4)),
        ]
        batched = simulate_batch(items, engine="fast")
        assert batched.engines == ["batch", "batch"]
        for (traces, config), result in zip(items, batched):
            assert results_equal(result, simulate(traces, config))

    def test_batch_simulator_rejects_ineligible_lane(self):
        w = make_workload("zipf", threads=4, seed=0, length=100, pages=16)
        bad = SimulationConfig(hbm_slots=8, replacement="clock")
        with pytest.raises(ValueError):
            BatchSimulator(
                [(w.traces, bad), (w.traces, SimulationConfig(hbm_slots=8))]
            )


class TestLimitErrors:
    def test_max_ticks_abort_matches_single(self):
        w = make_workload("adversarial_cycle", threads=8, pages=12, repeats=8)
        ok = SimulationConfig(hbm_slots=24, channels=2, seed=9)
        tight = SimulationConfig(hbm_slots=6, seed=9, max_ticks=10)
        with pytest.raises(SimulationLimitError) as single_err:
            simulate(w, tight)
        with pytest.raises(SimulationLimitError) as batch_err:
            simulate_batch([(w, tight), (w, ok)], engine="fast")
        assert str(batch_err.value) == str(single_err.value)

    def test_return_exceptions_preserves_batchmates(self):
        w = make_workload("adversarial_cycle", threads=8, pages=12, repeats=8)
        ok = SimulationConfig(hbm_slots=24, channels=2, seed=9)
        tight = SimulationConfig(hbm_slots=6, seed=9, max_ticks=10)
        got = simulate_batch(
            [(w, ok), (w, tight), (w, ok)],
            engine="fast",
            return_exceptions=True,
        )
        assert isinstance(got[1], SimulationLimitError)
        expected = simulate(w, ok)
        assert results_equal(got[0], expected)
        assert results_equal(got[2], expected)


#: result-store entries for ``TestSweepIntegration._jobs``, written by
#: the sweep runner when it still ran jobs that fit in HBM as lockstep
#: lanes: four manifests name engine ``batch`` with ``batch_lanes`` 4
BATCHED_STORE = Path(__file__).resolve().parent / "data" / "batched_store"


class TestSweepIntegration:
    """Sweep records match per-job simulation, and a store written by
    lockstep lanes replays without simulating."""

    @staticmethod
    def _jobs():
        # four jobs fit in HBM (8 x 24 pages <= 192 slots), two are
        # contended, one is outside the fast engine's scope
        jobs = []
        for i in range(6):
            spec = WorkloadSpec.make("zipf", 8, seed=10 + i, length=200, pages=24)
            config = SimulationConfig(
                hbm_slots=12 if i in (1, 4) else 192,
                channels=2,
                seed=3 + i,
                record_responses=True,
            )
            jobs.append(SweepJob(spec, config, tag=f"j{i}"))
        spec = WorkloadSpec.make("random", 6, seed=99, length=150, pages=16)
        jobs.append(
            SweepJob(
                spec,
                SimulationConfig(hbm_slots=8, seed=7, replacement="clock"),
                tag="fallback",
            )
        )
        return jobs

    @staticmethod
    def _metrics(record):
        # wall time describes the execution, not the simulation outcome
        return dataclasses.replace(record, wall_time_s=0.0, cached=False)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_records_identical(self, processes):
        jobs = self._jobs()
        baseline = [
            SweepRecord.from_result(
                job, simulate(job.workload.build(), job.config, engine="reference")
            )
            for job in jobs
        ]
        swept = run_sweep(jobs, processes=processes, result_cache=False)
        assert [self._metrics(r) for r in swept] == [
            self._metrics(r) for r in baseline
        ]

    def test_pre_existing_caches_stay_warm(self, tmp_path):
        from repro.analysis import SweepRunner

        jobs = self._jobs()
        shutil.copytree(BATCHED_STORE, tmp_path / "results")
        runner = SweepRunner(processes=1, cache_dir=tmp_path)
        records = runner.run(jobs)
        assert runner.last_campaign.cache_hits == len(jobs)
        assert runner.last_campaign.simulated == 0
        assert all(r.cached for r in records)
        fresh = run_sweep(jobs, processes=1, result_cache=False)
        assert [self._metrics(r) for r in records] == [
            self._metrics(r) for r in fresh
        ]
