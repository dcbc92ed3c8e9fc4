"""FastSimulator must be bit-identical to the reference Simulator.

The fast engine ticks every tick (it does not fast-forward), so these
batteries compare the reference engine, fast-forward on, against an
independent tick-by-tick implementation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SimulationConfig, Simulator
from repro.core.fastengine import (
    ENGINE_CHOICES,
    VECTOR_THRESHOLD,
    FastSimulator,
    simulate,
)
from repro.traces import PageAttestation, make_workload


def assert_identical(traces, config):
    ref = Simulator(traces, config).run()
    fast = FastSimulator(traces, config).run()
    assert fast.makespan == ref.makespan
    assert fast.ticks == ref.ticks
    assert fast.response_histogram == ref.response_histogram
    assert fast.hits == ref.hits
    assert fast.fetches == ref.fetches
    assert fast.evictions == ref.evictions
    assert list(fast.completion_ticks) == list(ref.completion_ticks)
    for a, b in zip(fast.thread_stats, ref.thread_stats):
        assert a.response == b.response
    assert fast.remap_count == ref.remap_count
    assert fast.ff_intervals == fast.ff_elided_ticks == 0
    return fast


class TestScopeGuard:
    def test_rejects_non_lru(self):
        with pytest.raises(ValueError, match="fast path"):
            FastSimulator([[0]], SimulationConfig(hbm_slots=2, replacement="clock"))

    def test_rejects_unprotected(self):
        with pytest.raises(ValueError, match="fast path"):
            FastSimulator(
                [[0]], SimulationConfig(hbm_slots=2, protect_pending=False)
            )

    def test_rejects_shared_pages(self):
        with pytest.raises(ValueError, match="fast path"):
            FastSimulator([[0, 1], [0]], SimulationConfig(hbm_slots=2))

    def test_simulate_falls_back(self):
        result = simulate([[0, 1], [0]], SimulationConfig(hbm_slots=2))
        assert result.total_requests == 3

    def test_simulate_uses_fast_path_when_possible(self):
        result = simulate([[0, 1], [10]], SimulationConfig(hbm_slots=4), engine="fast")
        assert result.total_requests == 3


class TestHandCases:
    def test_doc_example(self):
        fast = FastSimulator([[0, 1, 0, 1]], SimulationConfig(hbm_slots=2)).run()
        assert fast.makespan == 6
        assert fast.hits == 2

    @pytest.mark.parametrize("arb", ["fifo", "priority", "round_robin"])
    def test_small_contended(self, arb):
        traces = [[100 * i + j for j in range(8)] * 3 for i in range(4)]
        assert_identical(traces, SimulationConfig(hbm_slots=8, arbitration=arb))

    def test_empty_and_single(self):
        assert_identical([[], [5]], SimulationConfig(hbm_slots=2))

    @pytest.mark.parametrize("q", [1, 2, 5])
    def test_channels(self, q):
        traces = [[100 * i + j for j in range(12)] * 2 for i in range(6)]
        assert_identical(traces, SimulationConfig(hbm_slots=10, channels=q))

    def test_dynamic_priority_same_rng_stream(self):
        traces = [[100 * i + j for j in range(16)] * 3 for i in range(8)]
        cfg = SimulationConfig(
            hbm_slots=24,
            arbitration="dynamic_priority",
            remap_period=16,
            seed=11,
        )
        assert_identical(traces, cfg)

    def test_fr_fcfs(self):
        traces = [[100 * i + j for j in range(10)] * 2 for i in range(5)]
        cfg = SimulationConfig(hbm_slots=12, arbitration="fr_fcfs")
        assert_identical(traces, cfg)

    @pytest.mark.parametrize(
        "arb",
        [
            "cycle_priority",
            "cycle_reverse_priority",
            "interleave_priority",
            "dynamic_priority",
        ],
    )
    def test_every_remapping_scheme(self, arb):
        traces = [[100 * i + j for j in range(12)] * 3 for i in range(6)]
        cfg = SimulationConfig(
            hbm_slots=18, arbitration=arb, remap_period=24, seed=3
        )
        assert_identical(traces, cfg)

    def test_random_arbitration_same_stream(self):
        traces = [[100 * i + j for j in range(8)] * 2 for i in range(6)]
        cfg = SimulationConfig(hbm_slots=10, arbitration="random", seed=13)
        assert_identical(traces, cfg)

    def test_realistic_workloads_identical(self):
        for kind, kwargs, k in [
            ("spgemm", dict(n=40, density=0.1, page_bytes=512, coalesce=True), 24),
            ("bfs", dict(vertices=80, avg_degree=4.0, page_bytes=512), 12),
            ("jacobi", dict(n=300, iters=2, page_bytes=512), 8),
            ("adversarial_cycle", dict(pages=12, repeats=8), 24),
        ]:
            wl = make_workload(kind, threads=4, seed=0, **kwargs)
            assert_identical(wl.traces, SimulationConfig(hbm_slots=k))

    @pytest.mark.parametrize(
        "arb", ["fifo", "priority", "dynamic_priority", "cycle_priority"]
    )
    @pytest.mark.parametrize("q", [1, 2, 4])
    def test_adversarial_fifo_family_matrix(self, arb, q):
        # Miss-bound cyclic workload: the fast-forward's home turf. The
        # full ref-vs-fast battery must hold with the reference engine's
        # FF engaged end to end.
        wl = make_workload("adversarial_cycle", threads=6, pages=10, repeats=5)
        cfg = SimulationConfig(
            hbm_slots=20, channels=q, arbitration=arb, remap_period=37, seed=2
        )
        assert_identical(wl.traces, cfg)
        if arb in ("fifo", "priority"):
            assert Simulator(wl.traces, cfg).run().ff_intervals > 0


class TestVectorPathExercised:
    """Workloads wide enough to cross VECTOR_THRESHOLD."""

    def test_wide_hit_heavy(self):
        wl = make_workload("zipf", threads=40, seed=0, length=400, pages=24)
        cfg = SimulationConfig(hbm_slots=2048)
        fast = assert_identical(wl.traces, cfg)
        assert fast.hit_rate > 0.5  # the vector path actually ran hits

    def test_wide_contended_priority(self):
        wl = make_workload("adversarial_cycle", threads=32, pages=16, repeats=6)
        cfg = SimulationConfig(hbm_slots=128, arbitration="priority")
        assert_identical(wl.traces, cfg)

    def test_wide_dynamic_with_remap(self):
        wl = make_workload("random", threads=48, seed=3, length=300, pages=20)
        cfg = SimulationConfig(
            hbm_slots=480,
            arbitration="dynamic_priority",
            remap_period=100,
            seed=5,
        )
        assert_identical(wl.traces, cfg)

    def test_mixed_regimes_sort_workload(self):
        wl = make_workload("sort", threads=30, seed=1, n=200, coalesce=True)
        cfg = SimulationConfig(hbm_slots=12, arbitration="fifo")
        assert_identical(wl.traces, cfg)


class TestRecordResponses:
    """record_responses=True stays on the fast path and is bit-identical."""

    @pytest.mark.parametrize("threads", [4, 40])  # scalar and vector regimes
    def test_response_logs_identical(self, threads):
        wl = make_workload("zipf", threads=threads, seed=4, length=200, pages=16)
        cfg = SimulationConfig(
            hbm_slots=8 * threads, arbitration="priority", record_responses=True
        )
        ref = Simulator(wl.traces, cfg).run()
        fast = FastSimulator(wl.traces, cfg).run()
        assert fast.makespan == ref.makespan
        assert fast.response_log is not None and ref.response_log is not None
        assert len(fast.response_log) == len(ref.response_log)
        for a, b in zip(fast.response_log, ref.response_log):
            assert np.array_equal(a, b)

    def test_simulate_dispatches_record_responses_to_fast(self):
        wl = make_workload("adversarial_cycle", threads=4, pages=8, repeats=4)
        cfg = SimulationConfig(hbm_slots=16, record_responses=True)
        result = simulate(wl, cfg, engine="fast")  # must not raise
        assert result.response_log is not None

    def test_empty_thread_gets_empty_log(self):
        cfg = SimulationConfig(hbm_slots=4, record_responses=True)
        ref = Simulator([[], [5, 6]], cfg).run()
        fast = FastSimulator([[], [5, 6]], cfg).run()
        assert len(fast.response_log[0]) == 0
        assert np.array_equal(fast.response_log[1], ref.response_log[1])


class TestAttestation:
    def test_workload_carries_attestation(self):
        wl = make_workload("random", threads=4, seed=0, length=50, pages=8)
        att = wl.attestation
        assert isinstance(att, PageAttestation)
        assert att.disjoint  # renumbering makes namespaces disjoint
        assert att.min_page == 0
        assert att.max_page == wl.total_unique_pages - 1

    def test_empty_workload_attestation(self):
        wl = make_workload("random", threads=1, seed=0, length=0, pages=4)
        assert wl.attestation.disjoint
        assert wl.attestation.max_page == -1

    def test_simulate_trusts_workload_attestation(self):
        wl = make_workload("zipf", threads=6, seed=1, length=120, pages=16)
        cfg = SimulationConfig(hbm_slots=48)
        # engine="fast" would raise if dispatch ignored the attestation
        # or judged the workload ineligible.
        fast = simulate(wl, cfg, engine="fast")
        ref = simulate(wl, cfg, engine="reference")
        assert fast.makespan == ref.makespan
        assert fast.response_histogram == ref.response_histogram

    def test_false_attestation_forces_fallback(self):
        class Claimed:
            def __init__(self, traces, attestation):
                self.traces = traces
                self.attestation = attestation

        traces = [np.array([0, 1], dtype=np.int64), np.array([10], dtype=np.int64)]
        shy = Claimed(traces, PageAttestation(disjoint=False, min_page=0, max_page=10))
        with pytest.raises(ValueError, match="fast"):
            simulate(shy, SimulationConfig(hbm_slots=4), engine="fast")
        # auto quietly falls back to the reference engine
        result = simulate(shy, SimulationConfig(hbm_slots=4))
        assert result.total_requests == 3

    def test_raw_arrays_still_scanned(self):
        # no attestation attribute: dispatch must fall back to scanning
        with pytest.raises(ValueError, match="fast"):
            simulate([[0, 1], [0]], SimulationConfig(hbm_slots=4), engine="fast")
        assert (
            simulate([[0, 1], [10]], SimulationConfig(hbm_slots=4), engine="fast")
            .total_requests
            == 3
        )


class TestEngineSelection:
    def test_engine_choices(self):
        assert ENGINE_CHOICES == ("auto", "reference", "fast")

    def test_all_engines_agree(self):
        wl = make_workload("adversarial_cycle", threads=4, pages=8, repeats=4)
        cfg = SimulationConfig(hbm_slots=16)
        results = {e: simulate(wl, cfg, engine=e) for e in ENGINE_CHOICES}
        makespans = {e: r.makespan for e, r in results.items()}
        assert len(set(makespans.values())) == 1

    def test_fast_raises_on_unsupported_config(self):
        wl = make_workload("adversarial_cycle", threads=2, pages=4, repeats=2)
        cfg = SimulationConfig(hbm_slots=4, replacement="clock")
        with pytest.raises(ValueError, match="fast"):
            simulate(wl, cfg, engine="fast")
        # auto falls back without raising
        assert simulate(wl, cfg).total_requests == wl.total_references

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            simulate([[0]], SimulationConfig(hbm_slots=2), engine="warp")


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 12), max_size=30),
        min_size=1,
        max_size=8,
    ),
    st.integers(1, 12),
    st.integers(1, 3),
    st.sampled_from(["fifo", "priority", "random", "round_robin"]),
)
def test_fast_matches_reference_random(raw, k, q, arb):
    traces = [[1000 * i + page for page in t] for i, t in enumerate(raw)]
    cfg = SimulationConfig(hbm_slots=k, channels=q, arbitration=arb, seed=7)
    assert_identical(traces, cfg)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fast_matches_reference_wide(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(26, 40))  # above the vector threshold
    length = int(rng.integers(20, 120))
    pages = int(rng.integers(4, 24))
    traces = [
        (1000 * i + rng.integers(0, pages, size=length)).tolist()
        for i in range(p)
    ]
    k = int(rng.integers(4, p * pages))
    cfg = SimulationConfig(hbm_slots=k, seed=int(rng.integers(100)))
    assert_identical(traces, cfg)


class TestVectorThreshold:
    """vector_threshold() is the constant VECTOR_THRESHOLD."""

    def test_env_variable(self, monkeypatch):
        # the crossover is no environment knob: it is the constant,
        # whatever REPRO_VECTOR_THRESHOLD says
        from repro.core.fastengine import vector_threshold

        monkeypatch.setenv("REPRO_VECTOR_THRESHOLD", "17")
        assert vector_threshold() == VECTOR_THRESHOLD

    def test_override_beats_env(self, monkeypatch):
        # tests pin one path by patching the constant, which
        # vector_threshold() reads on every call
        from repro.core import fastengine

        monkeypatch.setenv("REPRO_VECTOR_THRESHOLD", "17")
        monkeypatch.setattr(fastengine, "VECTOR_THRESHOLD", 9)
        assert fastengine.vector_threshold() == 9

    def test_results_do_not_depend_on_threshold(self, monkeypatch):
        from repro.core import fastengine

        wl = make_workload("adversarial_cycle", threads=12, pages=8, repeats=4)
        cfg = SimulationConfig(hbm_slots=32, channels=2)
        results = []
        for threshold in (1, 6, 96):
            monkeypatch.setattr(fastengine, "VECTOR_THRESHOLD", threshold)
            results.append(FastSimulator(wl.traces, cfg).run())
        for other in results[1:]:
            assert other.makespan == results[0].makespan
            assert other.response_histogram == results[0].response_histogram
            assert other.evictions == results[0].evictions
