"""Engine micro-benchmarks: simulator throughput in its main regimes.

Unlike the experiment benchmarks (one timed campaign each), these use
pytest-benchmark's normal calibrated rounds to track the simulator's
serve-path cost:

* **hit-bound** — ample HBM, every reference after warmup hits; the
  classify/serve fast path dominates;
* **channel-bound** — tiny HBM, every reference queues for the far
  channel; arbitration + eviction dominate;
* **remap-heavy** — Dynamic Priority with T = k, stressing the heap
  rebuild path.

``test_engine_matrix`` writes the absolute engine matrix (seconds and
ticks/s per engine and regime, with the engine ``auto`` picks) into
``BENCH_engine.json`` — the evidence for the dispatch rule.
"""

import pytest

from repro.core import SimulationConfig, Simulator
from repro.traces import make_workload


def _run(workload, **cfg):
    return Simulator(workload.traces, SimulationConfig(**cfg)).run()


@pytest.fixture(scope="module")
def hit_workload():
    return make_workload("zipf", threads=16, seed=0, length=4000, pages=64)


@pytest.fixture(scope="module")
def miss_workload():
    return make_workload("adversarial_cycle", threads=16, pages=64, repeats=8)


def test_engine_hit_bound_lru_fifo(benchmark, hit_workload):
    result = benchmark(_run, hit_workload, hbm_slots=2048, arbitration="fifo")
    assert result.hit_rate > 0.9


def test_engine_channel_bound_fifo(benchmark, miss_workload):
    result = benchmark(
        _run, miss_workload, hbm_slots=64, arbitration="fifo"
    )
    assert result.hit_rate < 0.2


def test_engine_channel_bound_priority(benchmark, miss_workload):
    result = benchmark(
        _run, miss_workload, hbm_slots=64, arbitration="priority"
    )
    assert result.total_requests == miss_workload.total_references


def test_engine_remap_heavy_dynamic(benchmark, miss_workload):
    result = benchmark(
        _run,
        miss_workload,
        hbm_slots=256,
        arbitration="dynamic_priority",
        remap_period=256,
    )
    assert result.remap_count > 0


def test_engine_multi_channel(benchmark, miss_workload):
    result = benchmark(
        _run, miss_workload, hbm_slots=256, channels=8, arbitration="priority"
    )
    assert result.total_requests == miss_workload.total_references


def test_engine_clock_replacement(benchmark, miss_workload):
    result = benchmark(
        _run, miss_workload, hbm_slots=256, replacement="clock"
    )
    assert result.total_requests == miss_workload.total_references


def test_trace_generation_introsort(benchmark):
    from repro.traces.sorting import introsort_trace

    trace = benchmark(introsort_trace, 500, 0, 256)
    assert len(trace) > 500


def test_fastengine_hit_bound(benchmark, hit_workload):
    """Vectorized engine on the same hit-bound workload (parity check)."""
    from repro.core.fastengine import FastSimulator

    def run_fast(workload, **cfg):
        return FastSimulator(workload.traces, SimulationConfig(**cfg)).run()

    result = benchmark(run_fast, hit_workload, hbm_slots=2048, arbitration="fifo")
    assert result.hit_rate > 0.9


def test_fastengine_channel_bound(benchmark, miss_workload):
    """Vectorized engine under channel pressure (scalar-path coverage)."""
    from repro.core.fastengine import FastSimulator

    def run_fast(workload, **cfg):
        return FastSimulator(workload.traces, SimulationConfig(**cfg)).run()

    result = benchmark(run_fast, miss_workload, hbm_slots=64, arbitration="fifo")
    assert result.hit_rate < 0.2


def _ff_speedup_payload(workload, cfg, *, workload_desc, config_desc, rounds=5):
    """Time the fast engine with FF off/on; return the bench payload.

    The engine is pinned: ``auto`` sends the contended miss-bound job to
    the reference engine, and the gated speedup tracks the fast
    engine's provers across versions. Checks the two runs are
    bit-identical before reporting — a speedup from diverging results
    would be meaningless.
    """
    import time

    from repro.core import simulate
    from repro.core.drain import set_fast_forward

    def timed(enabled):
        previous = set_fast_forward(enabled)
        try:
            best, result = float("inf"), None
            for _ in range(rounds):
                start = time.perf_counter()
                result = simulate(workload.traces, cfg, engine="fast")
                best = min(best, time.perf_counter() - start)
            return result, best
        finally:
            set_fast_forward(previous)

    timed(True)  # warm caches/JIT-ish numpy paths before timing
    off, off_s = timed(False)
    on, on_s = timed(True)

    assert on.makespan == off.makespan
    assert on.ticks == off.ticks
    assert on.response_histogram == off.response_histogram
    assert on.evictions == off.evictions
    assert list(on.completion_ticks) == list(off.completion_ticks)

    assert off.ff_intervals == 0
    assert on.ff_intervals > 0

    speedup = off_s / on_s if on_s > 0 else float("inf")
    return {
        "workload": workload_desc,
        "config": config_desc,
        "engine": "fast",
        "ticks": on.ticks,
        "ff_intervals": on.ff_intervals,
        "ff_elided_ticks": on.ff_elided_ticks,
        "ff_elided_fraction": round(on.ff_elided_fraction, 4),
        "ff_off_s": round(off_s, 6),
        "ff_on_s": round(on_s, 6),
        "ff_speedup": round(speedup, 2),
    }


def _merge_engine_bench(key, payload):
    """Read-merge-write one regime's entry into root BENCH_engine.json.

    The file nests per-regime payloads (``miss_bound``/``hit_heavy``)
    so the bench-trend suite gates each speedup separately; merging
    keeps whichever regime the current pytest invocation did not run.
    """
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    doc = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            existing = {}
        if isinstance(existing, dict) and (
            "miss_bound" in existing
            or "hit_heavy" in existing
            or "ff_policy_coverage" in existing
            or "matrix" in existing
        ):
            doc = existing
    doc[key] = payload
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def test_fast_forward_speedup_miss_bound():
    """Quiescent-interval fast-forward on the guaranteed-miss regime.

    A miss-bound adversarial workload is one long DRAM-queue drain, so
    the planner should elide nearly every tick. The in-test floor is 3x
    to tolerate noisy CI machines; a healthy run measures >=5x (see the
    committed JSON).
    """
    workload = make_workload(
        "adversarial_cycle", threads=32, pages=64, repeats=24
    )
    cfg = SimulationConfig(hbm_slots=512, channels=4, arbitration="fifo")
    payload = _ff_speedup_payload(
        workload,
        cfg,
        workload_desc="adversarial_cycle threads=32 pages=64 repeats=24",
        config_desc="hbm_slots=512 channels=4 arbitration=fifo",
    )
    assert payload["ff_elided_fraction"] > 0.9
    _merge_engine_bench("miss_bound", payload)
    assert payload["ff_speedup"] >= 3.0, payload


def test_fast_forward_speedup_hit_heavy():
    """Fast-forward on the guaranteed-hit regime (dense-MM).

    Everything fits in HBM, so after the cold pass the run is pure
    hits: the hit-window prover should elide the bulk of the ticks.
    The in-test floor is 2x (CI gate); a healthy run measures >=8x.
    """
    from repro.traces import densemm_workload

    workload = densemm_workload(threads=8, seed=0, n=20)
    cfg = SimulationConfig(hbm_slots=512, channels=4, arbitration="fifo")
    payload = _ff_speedup_payload(
        workload,
        cfg,
        workload_desc="densemm threads=8 n=20",
        config_desc="hbm_slots=512 channels=4 arbitration=fifo",
    )
    assert payload["ff_elided_fraction"] >= 0.5
    _merge_engine_bench("hit_heavy", payload)
    assert payload["ff_speedup"] >= 2.0, payload


def test_ff_policy_zoo_coverage():
    """FF engagement counters for the zoo policies (blacklist + DPQ).

    Runs each policy on a hit-heavy workload under an active metrics
    registry and exports its ``repro_ff_plan_attempts``/``declines``
    series into BENCH_engine.json, so bench-trend artifacts show when a
    policy's drain plans stop engaging (a silent perf regression: runs
    stay correct but fall back to per-tick execution).
    """
    from repro.core import simulate
    from repro.core.drain import set_fast_forward
    from repro.obs.metrics import MetricsRegistry, set_active_registry

    traces = [
        list(range(50 * i, 50 * i + 20)) * 100 for i in range(6)
    ]
    registry = MetricsRegistry()
    set_active_registry(registry)
    previous = set_fast_forward(True)
    try:
        results = {}
        for arb in ("blacklist", "dpq"):
            cfg = SimulationConfig(hbm_slots=256, channels=2, arbitration=arb)
            results[arb] = simulate(traces, cfg)
    finally:
        set_fast_forward(previous)
        set_active_registry(None)

    snapshot = registry.snapshot()["families"]
    attempts = snapshot["repro_ff_plan_attempts"]["series"]
    declines = snapshot.get("repro_ff_plan_declines", {}).get("series", [])

    def per_window(series, arb):
        return {
            dict(labels)["window"]: value
            for labels, value in series
            if dict(labels)["policy"] == arb
        }

    payload = {}
    for arb in ("blacklist", "dpq"):
        assert results[arb].ff_intervals > 0, arb
        by_window = per_window(attempts, arb)
        assert by_window, f"no FF plan attempts recorded for {arb}"
        payload[arb] = {
            "ff_intervals": results[arb].ff_intervals,
            "ff_elided_fraction": round(results[arb].ff_elided_fraction, 4),
            "plan_attempts": by_window,
            "plan_declines": per_window(declines, arb),
        }
    _merge_engine_bench("ff_policy_coverage", payload)


#: the engine matrix's regimes: (workload kind, params, config). Two fit
#: in HBM (every page has a slot), two are contended (the working set is
#: 4x HBM), the regime the paper's arbitration experiments live in.
MATRIX_REGIMES = {
    "narrow_fit": (
        "zipf",
        dict(threads=8, seed=0, length=20000, pages=16),
        dict(hbm_slots=128, channels=4, arbitration="fifo"),
    ),
    "wide_fit": (
        "zipf",
        dict(threads=64, seed=0, length=3000, pages=16),
        dict(hbm_slots=1024, channels=4, arbitration="fifo"),
    ),
    "contended_miss_bound": (
        "adversarial_cycle",
        dict(threads=32, pages=64, repeats=24),
        dict(hbm_slots=512, channels=4, arbitration="fifo"),
    ),
    "contended_remap_heavy": (
        "zipf",
        dict(threads=64, seed=0, length=1200, pages=32),
        dict(
            hbm_slots=512,
            channels=2,
            arbitration="dynamic_priority",
            remap_period=64,
        ),
    ),
}

#: lanes of the batch column
MATRIX_LANES = 16


def _best_of(fn, rounds):
    import time

    best, out = float("inf"), None
    for _ in range(rounds):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return out, best


def _cell(seconds, ticks):
    return {"s": round(seconds, 6), "ticks_per_s": round(ticks / seconds, 1)}


def test_engine_matrix():
    """Absolute seconds and ticks/s for reference, fast and a 16-lane
    batch in four regimes, fast-forward on.

    The batch column runs 16 lanes of the row's job (16 seeds, all
    eligible) in one lockstep state; its ``s`` is the batch wall per
    lane, its ``ticks_per_s`` counts every lane's ticks. ``auto`` names
    the engine :func:`repro.core.simulate` picks for the row. Every
    engine's result is checked against the reference engine's first.
    Absolute numbers are informational: they are not gated.
    """
    from repro.core import BatchSimulator, resolve_engine
    from repro.core.drain import set_fast_forward
    from repro.core.fastengine import FastSimulator

    previous = set_fast_forward(True)
    try:
        matrix = {}
        for name, (kind, params, cfg_kw) in MATRIX_REGIMES.items():
            workload = make_workload(kind, **params)
            cfg = SimulationConfig(**cfg_kw)
            ref, ref_s = _best_of(lambda: Simulator(workload.traces, cfg).run(), 3)
            fast, fast_s = _best_of(
                lambda: FastSimulator(
                    workload.traces, cfg, attestation=workload.attestation
                ).run(),
                3,
            )
            lanes = [
                (workload.traces, cfg.replace(seed=cfg.seed + i))
                for i in range(MATRIX_LANES)
            ]
            batch, batch_s = _best_of(
                lambda: BatchSimulator(
                    lanes, attestations=[workload.attestation] * MATRIX_LANES
                ).run(),
                2,
            )
            for result in (fast, batch[0]):
                assert result.makespan == ref.makespan, name
                assert result.response_histogram == ref.response_histogram, name
            fits = cfg.hbm_slots > workload.attestation.max_page
            auto = resolve_engine(workload, cfg)
            assert auto == ("fast" if fits else "reference"), name
            batch_ticks = sum(r.ticks for r in batch)
            matrix[name] = {
                "workload": f"{kind} "
                + " ".join(f"{k}={v}" for k, v in params.items()),
                "config": " ".join(f"{k}={v}" for k, v in cfg_kw.items()),
                "fits_hbm": fits,
                "auto": auto,
                "ticks": ref.ticks,
                "ff_elided_fraction": round(ref.ff_elided_fraction, 4),
                "reference": _cell(ref_s, ref.ticks),
                "fast": _cell(fast_s, ref.ticks),
                f"batch{MATRIX_LANES}": {
                    "s": round(batch_s / MATRIX_LANES, 6),
                    "ticks_per_s": round(batch_ticks / batch_s, 1),
                },
            }
    finally:
        set_fast_forward(previous)
    _merge_engine_bench("matrix", matrix)
