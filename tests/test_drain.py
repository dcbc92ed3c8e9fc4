"""Quiescent-interval fast-forward: FF-on runs are bit-identical to FF-off.

The contract under test (repro.core.drain + the reference engine's
hooks): with fast-forward enabled, the reference engine must produce
*exactly* the results of per-tick execution — makespan, tick count,
response histograms and logs, eviction/fetch counts, completion ticks,
and every probe sample — while eliding most of the miss-bound ticks.
The fence is three-way: reference with FF = reference without FF =
:class:`FastSimulator`, an independent implementation that ticks every
tick. ``ENGINE_SEMANTICS_VERSION`` does not change when FF ships; these
tests are the enforcement.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationConfig, Simulator
from repro.core import drain
from repro.core.drain import (
    MIN_FF_TICKS,
    plan_drain,
    response_times,
    set_fast_forward,
    traces_disjoint,
)
from repro.core.engine import SimulationLimitError
from repro.core.fastengine import FastSimulator
from repro.obs import TimelineProbe
from repro.traces import make_workload

#: the engine that fast-forwards, and the FF-free fast engine every
#: FF-on run must also equal
ENGINES = [Simulator, FastSimulator]

ALL_POLICIES = [
    "fifo",
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
    "random",
    "round_robin",
    "fr_fcfs",
    "blacklist",
    "dpq",
]

REMAPPING_POLICIES = [
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
]


@pytest.fixture(autouse=True)
def _restore_ff_override():
    previous = set_fast_forward(None)
    yield
    set_fast_forward(previous)


def run_with_ff(engine_cls, traces, cfg, enabled):
    set_fast_forward(enabled)
    try:
        return engine_cls(traces, cfg).run()
    finally:
        set_fast_forward(None)


def assert_results_equal(a, b):
    assert a.makespan == b.makespan
    assert a.ticks == b.ticks
    assert a.total_requests == b.total_requests
    assert a.hits == b.hits
    assert a.fetches == b.fetches
    assert a.evictions == b.evictions
    assert a.remap_count == b.remap_count
    assert a.response_histogram == b.response_histogram
    assert list(a.completion_ticks) == list(b.completion_ticks)
    for sa, sb in zip(a.thread_stats, b.thread_stats):
        assert sa.response == sb.response
        assert sa.hits == sb.hits
        assert sa.misses == sb.misses
    if a.response_log is not None or b.response_log is not None:
        assert len(a.response_log) == len(b.response_log)
        for la, lb in zip(a.response_log, b.response_log):
            assert list(la) == list(lb)


def assert_ff_identical(traces, cfg, expect_ff=True):
    """Reference with FF on = reference with FF off = the fast engine;
    with ``expect_ff`` the reference engine must also fast-forward."""
    baseline = run_with_ff(Simulator, traces, cfg, False)
    assert baseline.ff_intervals == 0
    assert baseline.ff_elided_ticks == 0
    for engine_cls in ENGINES:
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)
        if engine_cls is FastSimulator:
            assert result.ff_intervals == result.ff_elided_ticks == 0
        elif expect_ff:
            assert result.ff_intervals > 0
            assert 0 < result.ff_elided_fraction <= 1.0
            assert result.ff_elided_ticks <= result.ticks
    return baseline


def miss_bound_traces(threads=8, pages=12, repeats=8):
    wl = make_workload(
        "adversarial_cycle", threads=threads, pages=pages, repeats=repeats
    )
    return wl.traces


def hit_heavy_traces(threads=6, pages=20, repeats=100):
    """Cache-fitting per-core loops: one cold pass, then pure hits."""
    return [
        list(range(50 * i, 50 * i + pages)) * repeats for i in range(threads)
    ]


def policy_config(arb, **overrides):
    """A config for ``arb``; remapping policies get a remap period."""
    kwargs = dict(hbm_slots=256, channels=2, arbitration=arb, seed=7)
    if arb in REMAPPING_POLICIES and arb != "priority":
        kwargs["remap_period"] = 37
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


# -- bit-identical differential matrix ------------------------------------


class TestBitIdentical:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_fifo_channels(self, q):
        cfg = SimulationConfig(hbm_slots=24, channels=q, arbitration="fifo")
        assert_ff_identical(miss_bound_traces(), cfg)

    @pytest.mark.parametrize(
        "arb", ["priority", "dynamic_priority", "cycle_priority",
                "cycle_reverse_priority", "interleave_priority"]
    )
    def test_priority_family_with_remap_inside_drains(self, arb):
        # remap_period=37 forces remap boundaries to land mid-drain, so
        # the horizon cap (and interval re-entry after it) is exercised.
        cfg = SimulationConfig(
            hbm_slots=24,
            channels=2,
            arbitration=arb,
            remap_period=37,
            seed=9,
        )
        assert_ff_identical(miss_bound_traces(), cfg)

    @pytest.mark.parametrize("k", [5, 8, 9, 12, 16])
    def test_tight_hbm_slots_exercise_eviction_feasibility(self, k):
        cfg = SimulationConfig(hbm_slots=k, channels=2, arbitration="fifo")
        assert_ff_identical(miss_bound_traces(threads=4, pages=6), cfg)

    def test_staggered_trace_lengths_complete_inside_drains(self):
        traces = [
            list(range(100 * i, 100 * i + 5 * (i + 1))) * 3 for i in range(6)
        ]
        cfg = SimulationConfig(hbm_slots=10, channels=2, arbitration="fifo")
        assert_ff_identical(traces, cfg)

    def test_single_thread(self):
        traces = [list(range(50)) * 4]
        cfg = SimulationConfig(hbm_slots=8)
        assert_ff_identical(traces, cfg)

    def test_wide_channels(self):
        cfg = SimulationConfig(hbm_slots=64, channels=16, arbitration="fifo")
        assert_ff_identical(miss_bound_traces(threads=16, pages=8), cfg)

    def test_vector_path_wide_workload(self):
        # 32 cores with the crossover at 4: the fast engine's vector
        # path is the fence for the reference engine's wide intervals
        from repro.core.fastengine import set_vector_threshold

        previous = set_vector_threshold(4)
        try:
            cfg = SimulationConfig(hbm_slots=96, channels=4)
            assert_ff_identical(miss_bound_traces(threads=32, pages=6), cfg)
        finally:
            set_vector_threshold(previous)

    def test_hit_bound_workload_elides_hit_stretches(self):
        # Everything fits in HBM, so after the cold pass the run is pure
        # hits: the guaranteed-hit prover must engage (the miss prover
        # alone used to leave this workload at ff_elided_fraction == 0).
        wl = make_workload("zipf", threads=6, seed=0, length=300, pages=16)
        cfg = SimulationConfig(hbm_slots=2048)
        assert_ff_identical(wl.traces, cfg)


class TestBulkSegmentBackoff:
    """A FIFO plan that cannot fit two bulk rounds stops asking until a
    core leaves its pipeline, instead of re-snapshotting every tick."""

    @staticmethod
    def _run(monkeypatch, bulk):
        from repro.core.arbitration import _FifoDrainPlan

        snapshots = 0
        schedules = []
        snapshot = _FifoDrainPlan.snapshot
        planner = drain.plan_drain

        def counting_snapshot(self):
            nonlocal snapshots
            snapshots += 1
            return snapshot(self)

        def recording_planner(plan, **kwargs):
            sched = planner(plan, **kwargs)
            if sched is not None:
                schedules.append(
                    {
                        slot: getattr(sched, slot)
                        for slot in drain.DrainSchedule.__slots__
                        if slot != "plan"
                    }
                )
            return sched

        monkeypatch.setattr(_FifoDrainPlan, "snapshot", counting_snapshot)
        monkeypatch.setattr(_FifoDrainPlan, "supports_bulk", bulk)
        monkeypatch.setattr(drain, "plan_drain", recording_planner)
        wl = make_workload("random", threads=64, seed=0, length=300, pages=40)
        cfg = SimulationConfig(hbm_slots=48, arbitration="fifo", seed=0)
        result = run_with_ff(Simulator, wl.traces, cfg, True)
        monkeypatch.undo()
        return result, schedules, snapshots

    def test_few_snapshots_per_interval_and_same_schedule(self, monkeypatch):
        result, schedules, snapshots = self._run(monkeypatch, bulk=True)
        assert result.ff_intervals > 100
        # one attempt per interval, plus one per core leaving; retrying
        # on every planned tick took about 32 per interval here
        assert snapshots <= 2 * result.ff_intervals
        plain, plain_schedules, plain_snapshots = self._run(monkeypatch, bulk=False)
        assert plain_snapshots == 0
        assert_results_equal(result, plain)
        assert schedules == plain_schedules


class TestCrossRemap:
    """Plans chain across remap boundaries by replaying the permutation.

    ``remap_period=5 < MIN_FF_TICKS=8`` means every plannable window
    spans at least one boundary — before cross-remap planning these
    configs could never fast-forward at all.
    """

    @pytest.mark.parametrize("arb", REMAPPING_POLICIES)
    def test_remap_period_shorter_than_min_window(self, arb):
        assert 5 < MIN_FF_TICKS
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration=arb, remap_period=5, seed=9
        )
        baseline = assert_ff_identical(miss_bound_traces(), cfg)
        assert baseline.remap_count > 0

    @pytest.mark.parametrize("arb", REMAPPING_POLICIES)
    @pytest.mark.parametrize("period", [7, 13, 37])
    def test_remap_count_and_rng_stream_advance_in_bulk(self, arb, period):
        # remap_count and the policy's RNG stream must end up exactly
        # where per-tick execution leaves them, or later remaps diverge.
        cfg = SimulationConfig(
            hbm_slots=20,
            channels=2,
            arbitration=arb,
            remap_period=period,
            seed=11,
        )
        traces = miss_bound_traces(threads=6, pages=10)
        assert_ff_identical(traces, cfg)


class TestHitHeavy:
    """Guaranteed-hit windows are elided for every policy."""

    @pytest.mark.parametrize("arb", ALL_POLICIES)
    def test_hit_heavy_bit_identical_and_mostly_elided(self, arb):
        traces = hit_heavy_traces()
        cfg = policy_config(arb)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        results = {cls: run_with_ff(cls, traces, cfg, True) for cls in ENGINES}
        for result in results.values():
            assert_results_equal(result, baseline)
        assert results[FastSimulator].ff_intervals == 0
        assert results[Simulator].ff_intervals > 0
        assert results[Simulator].ff_elided_fraction > 0.5

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_completion_inside_hit_window(self, engine_cls):
        # staggered lengths: cores finish mid-window, and the interval
        # must retire them at the same tick the per-tick engine does
        traces = [
            list(range(50 * i, 50 * i + 10)) * (3 + 5 * i) for i in range(4)
        ]
        cfg = SimulationConfig(hbm_slots=128, channels=2)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_hit_runs_update_lru_order(self, engine_cls):
        # capacity is tight enough that post-window evictions depend on
        # the LRU stamps written during the elided hit stretch
        traces = [
            (list(range(10 * i, 10 * i + 4)) * 30) + [100 + i, 10 * i]
            for i in range(4)
        ]
        cfg = SimulationConfig(hbm_slots=17, channels=1)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert_results_equal(result, baseline)

    @pytest.mark.parametrize("arb", ["dynamic_priority", "cycle_priority"])
    def test_hit_window_replays_elided_remaps(self, arb):
        # remaps land inside elided hit stretches; skip_idle_ticks must
        # replay them or the post-window grant order diverges
        cfg = policy_config(arb, remap_period=5, hbm_slots=160, seed=3)
        traces = hit_heavy_traces(threads=5, pages=16, repeats=40)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        assert baseline.remap_count > 0
        for engine_cls in ENGINES:
            result = run_with_ff(engine_cls, traces, cfg, True)
            assert_results_equal(result, baseline)

    def test_record_responses_identical_on_hit_heavy(self):
        traces = hit_heavy_traces(threads=4)
        cfg = policy_config("fifo", record_responses=True)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        for engine_cls in ENGINES:
            result = run_with_ff(engine_cls, traces, cfg, True)
            assert baseline.response_log is not None
            for la, lb in zip(result.response_log, baseline.response_log):
                assert list(la) == list(lb)


class TestProbeSeries:
    """Probe samples inside elided intervals must be materialized."""

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_probe_series_identical(self, stride, engine_cls):
        # baseline: the reference engine ticking every tick
        traces = miss_bound_traces(threads=6, pages=8)
        series = {}
        for enabled, cls in ((False, Simulator), (True, engine_cls)):
            probe = TimelineProbe()
            cfg = SimulationConfig(
                hbm_slots=18,
                channels=2,
                probes=(probe,),
                probe_stride=stride,
            )
            run_with_ff(cls, traces, cfg, enabled)
            series[enabled] = probe.as_arrays()
        assert series[False].keys() == series[True].keys()
        for key in series[False]:
            np.testing.assert_array_equal(
                series[False][key], series[True][key], err_msg=key
            )

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_probe_series_identical_inside_hit_windows(self, stride, engine_cls):
        traces = hit_heavy_traces(threads=4, pages=12, repeats=40)
        series = {}
        for enabled, cls in ((False, Simulator), (True, engine_cls)):
            probe = TimelineProbe()
            cfg = SimulationConfig(
                hbm_slots=128,
                channels=2,
                probes=(probe,),
                probe_stride=stride,
            )
            result = run_with_ff(cls, traces, cfg, enabled)
            if enabled and cls is Simulator:
                assert result.ff_elided_fraction > 0.5
            series[enabled] = probe.as_arrays()
        assert series[False].keys() == series[True].keys()
        for key in series[False]:
            np.testing.assert_array_equal(
                series[False][key], series[True][key], err_msg=key
            )

    def test_probe_run_does_not_suppress_ff(self):
        probe = TimelineProbe()
        cfg = SimulationConfig(
            hbm_slots=18, channels=2, probes=(probe,), probe_stride=7
        )
        result = run_with_ff(
            Simulator, miss_bound_traces(threads=6, pages=8), cfg, True
        )
        assert result.ff_intervals > 0
        assert len(probe.samples) > 0


class TestMaxTicks:
    def _message(self, engine_cls, cfg, enabled):
        with pytest.raises(SimulationLimitError) as excinfo:
            run_with_ff(engine_cls, miss_bound_traces(), cfg, enabled)
        return str(excinfo.value)

    def test_raise_message_identical_under_ff(self):
        full = run_with_ff(
            Simulator,
            miss_bound_traces(),
            SimulationConfig(hbm_slots=24, channels=2),
            False,
        )
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, max_ticks=full.ticks // 2
        )
        baseline = self._message(Simulator, cfg, False)
        for engine_cls in ENGINES:
            assert self._message(engine_cls, cfg, True) == baseline

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_boundary_budgets(self, engine_cls):
        traces = miss_bound_traces(threads=4, pages=6)
        cfg = SimulationConfig(hbm_slots=12, channels=2)
        ticks = run_with_ff(Simulator, traces, cfg, False).ticks
        for budget, should_raise in [
            (ticks - 1, True),
            (ticks, False),
            (ticks + 1, False),
        ]:
            bounded = dataclasses.replace(cfg, max_ticks=budget)
            if should_raise:
                with pytest.raises(SimulationLimitError):
                    run_with_ff(engine_cls, traces, bounded, True)
            else:
                result = run_with_ff(engine_cls, traces, bounded, True)
                assert result.ticks == ticks


class TestRecordResponses:
    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_response_logs_identical(self, engine_cls):
        traces = miss_bound_traces(threads=6, pages=8)
        cfg = SimulationConfig(
            hbm_slots=18, channels=2, record_responses=True
        )
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(engine_cls, traces, cfg, True)
        assert baseline.response_log is not None
        for la, lb in zip(result.response_log, baseline.response_log):
            assert list(la) == list(lb)


class TestGatesAndFallbacks:
    def test_random_declines_miss_planning(self):
        # RandomArbitration draws from its RNG per select, so miss-bound
        # windows stay unplannable; a miss-only run must never FF.
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration="random", seed=3
        )
        baseline = run_with_ff(Simulator, miss_bound_traces(), cfg, False)
        result = run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        assert result.ff_intervals == 0
        assert_results_equal(result, baseline)

    @pytest.mark.parametrize(
        "arb", ["round_robin", "fr_fcfs", "blacklist", "dpq"]
    )
    def test_stateful_policies_now_plan_miss_windows(self, arb):
        # round-robin, FR-FCFS, blacklist, and DPQ replay their
        # deterministic state recurrences inside the plan: miss-bound
        # runs fast-forward.
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration=arb, seed=3
        )
        assert_ff_identical(miss_bound_traces(), cfg)

    def test_blacklist_clear_boundary_lands_mid_drain(self):
        # blacklist_clear_interval=37 forces clearing boundaries inside
        # planned intervals: the plan's tick_hook must replay each
        # clear, keeping FF bit-identical to per-tick execution.
        cfg = SimulationConfig(
            hbm_slots=24,
            channels=2,
            arbitration="blacklist",
            blacklist_threshold=2,
            blacklist_clear_interval=37,
            seed=3,
        )
        assert_ff_identical(miss_bound_traces(), cfg)

    def test_shared_pages_gate_reference_engine(self):
        # Two threads share page 0: guaranteed-miss windows are invalid,
        # so the reference engine must refuse to fast-forward.
        traces = [[0, 1, 2, 3] * 6, [0, 10, 11, 12] * 6]
        cfg = SimulationConfig(hbm_slots=3, channels=1)
        baseline = run_with_ff(Simulator, traces, cfg, False)
        result = run_with_ff(Simulator, traces, cfg, True)
        assert result.ff_intervals == 0
        assert_results_equal(result, baseline)

    def test_non_lru_replacement_gates_reference_engine(self):
        traces = miss_bound_traces(threads=4, pages=6)
        cfg = SimulationConfig(hbm_slots=12, replacement="clock", seed=1)
        result = run_with_ff(Simulator, traces, cfg, True)
        assert result.ff_intervals == 0


class TestKnobs:
    def test_set_fast_forward_round_trip(self):
        assert set_fast_forward(False) is None
        assert drain.fast_forward_enabled() is False
        assert set_fast_forward(True) is False
        assert drain.fast_forward_enabled() is True
        assert set_fast_forward(None) is True
        assert set_fast_forward(None) is None

    @pytest.mark.parametrize(
        "value,expected",
        [
            ("0", False),
            ("false", False),
            ("off", False),
            ("no", False),
            ("", False),
            ("1", True),
            ("on", True),
            ("anything", True),
        ],
    )
    def test_env_variable(self, monkeypatch, value, expected):
        set_fast_forward(None)
        monkeypatch.setenv("REPRO_FAST_FORWARD", value)
        assert drain.fast_forward_enabled() is expected

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_FORWARD", "0")
        set_fast_forward(True)
        assert drain.fast_forward_enabled() is True

    def test_default_is_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAST_FORWARD", raising=False)
        set_fast_forward(None)
        assert drain.fast_forward_enabled() is True


class TestStats:
    def test_ff_stats_populated_and_bounded(self):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        result = run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        assert result.ff_intervals > 0
        assert result.ff_elided_ticks > 0
        assert result.ff_elided_ticks <= result.ticks
        assert 0.0 < result.ff_elided_fraction <= 1.0
        # a miss-bound adversarial run should elide nearly everything
        assert result.ff_elided_fraction > 0.9

    def test_ff_stats_zero_when_disabled(self):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        result = run_with_ff(Simulator, miss_bound_traces(), cfg, False)
        assert result.ff_intervals == 0
        assert result.ff_elided_ticks == 0
        assert result.ff_elided_fraction == 0.0

    @pytest.mark.parametrize("engine_cls", ENGINES)
    def test_zero_tick_run_reports_zero_fraction(self, engine_cls):
        # empty workload: ticks == 0 must not divide-by-zero the fraction
        result = run_with_ff(engine_cls, [[]], SimulationConfig(hbm_slots=2), True)
        assert result.ticks == 0
        assert result.ff_intervals == 0
        assert result.ff_elided_ticks == 0
        assert result.ff_elided_fraction == 0.0

    def test_manifest_carries_ff_fields(self):
        from repro.obs import RunManifest

        cfg = SimulationConfig(hbm_slots=24, channels=2)
        result = run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        manifest = RunManifest.build(cfg, "reference", result=result)
        assert manifest.result["ff_intervals"] == result.ff_intervals
        assert manifest.result["ff_elided_ticks"] == result.ff_elided_ticks
        assert (
            manifest.result["ff_elided_fraction"] == result.ff_elided_fraction
        )


class TestEngagementCounters:
    """Per-policy FF attempt/decline totals flow into repro.obs.metrics."""

    @pytest.fixture(autouse=True)
    def _registry(self):
        from repro.obs import metrics as obs_metrics

        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.set_active_registry(registry)
        yield registry
        obs_metrics.set_active_registry(previous)

    @staticmethod
    def _series(registry, name):
        fam = registry.snapshot()["families"].get(name)
        if fam is None:
            return {}
        return {
            frozenset(tuple(pair) for pair in key): value
            for key, value in fam["series"]
        }

    def test_miss_window_attempts_recorded(self, _registry):
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        key = frozenset({("policy", "fifo"), ("window", "miss")})
        assert attempts.get(key, 0) > 0

    def test_hit_window_attempts_recorded(self, _registry):
        cfg = policy_config("round_robin")
        run_with_ff(Simulator, hit_heavy_traces(), cfg, True)
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        key = frozenset({("policy", "round_robin"), ("window", "hit")})
        assert attempts.get(key, 0) > 0

    def test_declining_policy_shows_up_as_declines(self, _registry):
        # random never plans miss windows: its attempts never commit,
        # so telemetry must show where planning falls through
        cfg = SimulationConfig(
            hbm_slots=24, channels=2, arbitration="random", seed=3
        )
        run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        key = frozenset({("policy", "random"), ("window", "miss")})
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        declines = self._series(_registry, "repro_ff_plan_declines")
        assert attempts.get(key, 0) >= 1
        assert declines.get(key, 0) == attempts.get(key, 0)

    def test_reference_engine_records_too(self, _registry):
        # ... and only the reference engine: the fast engine never
        # attempts a window
        cfg = SimulationConfig(hbm_slots=24, channels=2)
        run_with_ff(FastSimulator, miss_bound_traces(), cfg, True)
        assert self._series(_registry, "repro_ff_plan_attempts") == {}
        run_with_ff(Simulator, miss_bound_traces(), cfg, True)
        attempts = self._series(_registry, "repro_ff_plan_attempts")
        key = frozenset({("policy", "fifo"), ("window", "miss")})
        assert attempts.get(key, 0) > 0

    def test_no_registry_is_a_no_op(self):
        from repro.obs import metrics as obs_metrics

        previous = obs_metrics.set_active_registry(None)
        try:
            cfg = SimulationConfig(hbm_slots=24, channels=2)
            result = run_with_ff(Simulator, miss_bound_traces(), cfg, True)
            assert result.ff_intervals > 0
        finally:
            obs_metrics.set_active_registry(previous)


class TestStatefulPlanOracles:
    """Plan pop sequences must equal the live policy's select sequence."""

    def test_round_robin_plan_matches_live_select(self):
        from repro.core.arbitration import RoundRobinArbitration

        live = RoundRobinArbitration(8)
        planned = RoundRobinArbitration(8)
        for policy in (live, planned):
            for thread in (2, 5, 7):
                policy.enqueue(thread)
            policy.select(2)  # leave the scan pointer mid-cycle
            for thread in (0, 1, 4):
                policy.enqueue(thread)
        plan = planned.drain_plan(3, 1000)
        assert len(plan) == len(live)
        pushes = [[3], [], [6, 2], []]
        got, want = [], []
        for arrivals in pushes:
            got.extend(plan.pop(2))
            want.extend(live.select(2))
            plan.push(list(arrivals))
            for thread in arrivals:
                live.enqueue(thread)
        while len(plan) or len(live):
            got.extend(plan.pop(3))
            want.extend(live.select(3))
        assert got == want
        # commit converges the planned policy onto the live state: the
        # same future arrivals must now be granted in the same order
        plan.commit()
        for policy in (live, planned):
            for thread in (5, 0, 3):
                policy.enqueue(thread)
        assert planned.select(8) == live.select(8)

    def test_round_robin_plan_discard_leaves_policy_untouched(self):
        from repro.core.arbitration import RoundRobinArbitration

        policy = RoundRobinArbitration(4)
        for thread in (1, 3):
            policy.enqueue(thread)
        plan = policy.drain_plan(2, 1000)
        plan.push([0, 2])
        # the cyclic scan starts at the pointer (0) and grants in id order
        assert plan.pop(4) == [0, 1, 2, 3]
        # no commit: live state is exactly as before the plan existed
        assert len(policy) == 2
        assert policy.select(4) == [1, 3]

    def test_frfcfs_plan_matches_live_select(self):
        from repro.core.arbitration import FRFCFSArbitration
        from repro.core.dram import DramGeometry

        geometry = DramGeometry(banks=2, row_pages=4)
        live = FRFCFSArbitration(8, geometry=geometry)
        planned = FRFCFSArbitration(8, geometry=geometry)
        # mixed row-hit / row-miss pattern across both banks
        warm = [(0, 0), (1, 8), (2, 1), (3, 17), (4, 2)]
        for policy in (live, planned):
            for thread, page in warm:
                policy.enqueue(thread, page)
            policy.select(2)  # open rows diverge from the reset state
        plan = planned.drain_plan(2, 1000)
        assert plan.needs_pages
        assert len(plan) == len(live)
        pushes = [[(5, 3)], [(6, 9), (7, 16)], []]
        got, want = [], []
        for arrivals in pushes:
            got.extend(plan.pop(2))
            want.extend(live.select(2))
            plan.push(
                [thread for thread, _ in arrivals],
                [page for _, page in arrivals],
            )
            for thread, page in arrivals:
                live.enqueue(thread, page)
        while len(plan) or len(live):
            got.extend(plan.pop(2))
            want.extend(live.select(2))
        assert got == want
        plan.commit()
        for policy in (live, planned):
            policy.enqueue(0, 1)  # row-hit status depends on open rows
            policy.enqueue(1, 5)
        assert planned.select(2) == live.select(2)

    def test_frfcfs_plan_push_requires_pages(self):
        from repro.core.arbitration import FRFCFSArbitration

        plan = FRFCFSArbitration(4).drain_plan(2, 1000)
        with pytest.raises(ValueError):
            plan.push([0])

    def test_frfcfs_plan_discard_leaves_banks_untouched(self):
        from repro.core.arbitration import FRFCFSArbitration
        from repro.core.dram import DramGeometry

        policy = FRFCFSArbitration(4, geometry=DramGeometry(banks=1, row_pages=4))
        policy.enqueue(0, 0)
        policy.select(1)  # bank 0 now has row 0 open
        policy.enqueue(1, 8)   # row 2: a miss...
        policy.enqueue(2, 1)   # row 0: ...that the open row jumps past
        plan = policy.drain_plan(1, 1000)
        assert plan.pop(2) == [2, 1]
        # no commit: the live queue and open-row state are unchanged
        assert policy.select(2) == [2, 1]

    def test_random_has_no_drain_plan(self):
        from repro.core.arbitration import RandomArbitration

        policy = RandomArbitration(4, rng=np.random.default_rng(0))
        policy.enqueue(1)
        assert policy.drain_plan(2, 1000) is None

    def test_blacklist_plan_matches_live_select(self):
        from repro.core.arbitration import BlacklistingArbitration

        live = BlacklistingArbitration(8, blacklist_threshold=2)
        planned = BlacklistingArbitration(8, blacklist_threshold=2)
        for policy in (live, planned):
            for thread in (2, 2, 5, 2):
                policy.enqueue(thread)
            policy.select(2)  # thread 2 streaks to the threshold
            for thread in (0, 2, 4):
                policy.enqueue(thread)
        plan = planned.drain_plan(3, 1000)
        assert len(plan) == len(live)
        pushes = [[3], [], [2, 6], []]
        got, want = [], []
        for arrivals in pushes:
            got.extend(plan.pop(2))
            want.extend(live.select(2))
            plan.push(list(arrivals))
            for thread in arrivals:
                live.enqueue(thread)
        while len(plan) or len(live):
            got.extend(plan.pop(3))
            want.extend(live.select(3))
        assert got == want
        # commit converges the planned policy onto the live state: the
        # same future serves must blacklist the same threads
        plan.commit()
        for policy in (live, planned):
            for thread in (5, 5, 0):
                policy.enqueue(thread)
        assert planned.select(8) == live.select(8)
        assert list(planned._blacklisted) == list(live._blacklisted)

    def test_blacklist_plan_tick_hook_replays_clears(self):
        from repro.core.arbitration import BlacklistingArbitration

        live = BlacklistingArbitration(
            4, blacklist_threshold=1, blacklist_clear_interval=10
        )
        planned = BlacklistingArbitration(
            4, blacklist_threshold=1, blacklist_clear_interval=10
        )
        for policy in (live, planned):
            policy.enqueue(3)
            policy.select(1)  # blacklists 3 immediately
            for thread in (3, 1):
                policy.enqueue(thread)
        plan = planned.drain_plan(1, 1000)
        got, want = [], []
        for tau in range(6, 14):  # crosses the clear boundary at 10
            plan.tick_hook(tau)
            live.begin_tick(tau)
            got.extend(plan.pop(1))
            want.extend(live.select(1))
            if tau == 8:  # keep 3 deprioritized until the clear
                plan.push([3])
                live.enqueue(3)
        assert got == want

    def test_blacklist_plan_discard_leaves_policy_untouched(self):
        from repro.core.arbitration import BlacklistingArbitration

        policy = BlacklistingArbitration(4, blacklist_threshold=1)
        for thread in (1, 3):
            policy.enqueue(thread)
        plan = policy.drain_plan(2, 1000)
        plan.push([0, 2])
        assert plan.pop(4) == [1, 3, 0, 2]
        # plan serves blacklisted threads on its copies only
        assert not policy._blacklisted.any()
        assert len(policy) == 2
        assert policy.select(4) == [1, 3]

    def test_dpq_plan_matches_live_select(self):
        from repro.core.arbitration import DynamicPriorityQueueArbitration

        live = DynamicPriorityQueueArbitration(8)
        planned = DynamicPriorityQueueArbitration(8)
        for policy in (live, planned):
            for thread in (2, 5, 7):
                policy.enqueue(thread)
            policy.select(2)  # slot order diverges from thread-id order
            for thread in (0, 1, 4):
                policy.enqueue(thread)
        plan = planned.drain_plan(3, 1000)
        assert len(plan) == len(live)
        pushes = [[3], [], [6, 2], []]
        got, want = [], []
        for arrivals in pushes:
            got.extend(plan.pop(2))
            want.extend(live.select(2))
            plan.push(list(arrivals))
            for thread in arrivals:
                live.enqueue(thread)
        while len(plan) or len(live):
            got.extend(plan.pop(3))
            want.extend(live.select(3))
        assert got == want
        # commit converges the planned policy onto the live slot order
        plan.commit()
        for policy in (live, planned):
            for thread in (5, 0, 3):
                policy.enqueue(thread)
        assert planned.select(8) == live.select(8)
        assert planned._order == live._order

    def test_dpq_plan_discard_leaves_policy_untouched(self):
        from repro.core.arbitration import DynamicPriorityQueueArbitration

        policy = DynamicPriorityQueueArbitration(4)
        for thread in (1, 3):
            policy.enqueue(thread)
        plan = policy.drain_plan(2, 1000)
        plan.push([0, 2])
        assert plan.pop(4) == [0, 1, 2, 3]
        # no commit: the live slot order and waiting set are unchanged
        assert policy._order == [0, 1, 2, 3]
        assert len(policy) == 2
        assert policy.select(4) == [1, 3]


# -- unit tests for the planner helpers -----------------------------------


class TestTracesDisjoint:
    def test_disjoint(self):
        assert traces_disjoint([np.array([0, 1]), np.array([2, 3])])

    def test_shared(self):
        assert not traces_disjoint([np.array([0, 1]), np.array([1, 2])])

    def test_empty_and_single(self):
        assert traces_disjoint([])
        assert traces_disjoint([np.array([5, 5, 5])])
        assert traces_disjoint([np.array([0, 1]), np.array([], dtype=np.int64)])


class TestResponseTimes:
    def test_first_serve_uses_entry_request_tick(self):
        # core 1 entered waiting since tick 3; served at ticks 10 and 12.
        order, th, tk, w = response_times(
            np.array([1, 1]), np.array([10, 12]), np.array([0, 3])
        )
        assert th.tolist() == [1, 1]
        assert w.tolist() == [10 - 3 + 1, 12 - 10]

    def test_thread_major_stable_order(self):
        serve_threads = np.array([2, 0, 2, 0])
        serve_ticks = np.array([5, 6, 8, 9])
        order, th, tk, w = response_times(
            serve_threads, serve_ticks, np.array([4, 0, 4])
        )
        assert th.tolist() == [0, 0, 2, 2]
        assert tk.tolist() == [6, 9, 5, 8]
        # first serve per core answers the entry request (w = tk-4+1);
        # later serves answer consecutive requests (w = tick diff).
        assert w.tolist() == [3, 3, 2, 3]
        # the permutation recovers chronological order by scatter
        chrono = np.empty(4, dtype=np.int64)
        chrono[order] = w
        assert chrono.tolist() == [2, 3, 3, 3]

    def test_empty(self):
        order, th, tk, w = response_times(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([0, 0]),
        )
        assert len(order) == len(th) == len(tk) == len(w) == 0


class TestPlanDrain:
    def _plan(self, threads=(), horizon=1000):
        from repro.core.arbitration import FIFOArbitration

        policy = FIFOArbitration(8)
        for thread in threads:
            policy.enqueue(thread)
        return policy.drain_plan(2, horizon)

    def test_short_interval_rejected(self):
        sched = plan_drain(
            self._plan(horizon=MIN_FF_TICKS - 1),
            start=0,
            channels=2,
            capacity=8,
            resident0=0,
            queue0=0,
            h_threads=[],
            b_threads=[0, 1],
            grant_avail={0: 5, 1: 5},
            completes={0: True, 1: True},
        )
        assert sched is None

    def test_simple_two_core_drain(self):
        # Two cores, one channel, plenty of window: strict alternation.
        sched = plan_drain(
            self._plan(),
            start=0,
            channels=1,
            capacity=8,
            resident0=0,
            queue0=0,
            h_threads=[],
            b_threads=[0, 1],
            grant_avail={0: 4, 1: 4},
            completes={0: False, 1: False},
        )
        assert sched is not None
        assert sched.start == 0
        grants = list(zip(sched.grant_ticks, sched.grant_threads))
        # entry tick grants the first queued core; alternation follows
        assert grants[0] == (0, 0)
        assert grants[1] == (1, 1)
        # each grant at t is served at t+1
        serves = dict(zip(sched.serve_ticks, sched.serve_threads))
        for tick, thread in grants:
            if tick + 1 < sched.end:
                assert serves[tick + 1] == thread
        assert sched.total_evictions == 0  # capacity 8 never exceeded

    def test_window_exhaustion_bounds_grants(self):
        sched = plan_drain(
            self._plan(),
            start=0,
            channels=1,
            capacity=64,
            resident0=0,
            queue0=0,
            h_threads=[],
            b_threads=[0, 1],
            grant_avail={0: 2, 1: 2},
            completes={0: False, 1: False},
        )
        if sched is not None:
            counts = np.bincount(
                np.asarray(sched.grant_threads, dtype=np.int64), minlength=2
            )
            assert counts[0] <= 2 and counts[1] <= 2


# -- property-based: FF differential on random disjoint workloads ----------


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=24),
    st.sampled_from(["fifo", "priority", "dynamic_priority"]),
    st.integers(0, 2**31 - 1),
)
def test_ff_differential_random(p, pages, q, k, arb, seed):
    rng = np.random.default_rng(seed)
    traces = [
        (1000 * i + rng.integers(0, pages, size=int(rng.integers(5, 60))))
        .tolist()
        for i in range(p)
    ]
    cfg = SimulationConfig(
        hbm_slots=max(k, q + 1),
        channels=q,
        arbitration=arb,
        remap_period=37,
        seed=5,
    )
    baseline = run_with_ff(Simulator, traces, cfg, False)
    for engine_cls in ENGINES:
        assert_results_equal(
            run_with_ff(engine_cls, traces, cfg, True), baseline
        )
