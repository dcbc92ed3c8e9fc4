"""Sweep-harness benchmark: result-cache replay.

Times the same job list through the two execution regimes the sweep
runner offers:

* **cold** — empty result cache, every job simulated;
* **warm** — identical rerun, every record replayed from
  ``<cache_dir>/results/`` without touching an engine.

Results land in ``BENCH_sweep.json`` at the repo root so successive
sessions can compare. Wall-clock assertions are deliberately loose
(warm replay only has to beat cold by 5x; in practice it is >50x)
because CI machines vary.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.analysis import SweepJob, WorkloadSpec, run_sweep
from repro.core import SimulationConfig

REPO_ROOT = Path(__file__).resolve().parent.parent

#: metric fields compared across regimes (wall_time_s is timing noise)
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


def _sweep_jobs() -> list[SweepJob]:
    # wide, hit-heavy workloads
    jobs = []
    for threads in (96, 128):
        spec = WorkloadSpec.make(
            "zipf", threads=threads, seed=0, length=2000, pages=32
        )
        for k in (4096, 8192):
            for arb in ("fifo", "priority"):
                jobs.append(
                    SweepJob(
                        spec,
                        SimulationConfig(hbm_slots=k, arbitration=arb),
                    )
                )
    return jobs


def _timed_sweep(jobs, **kwargs):
    start = time.perf_counter()
    records = run_sweep(jobs, processes=1, **kwargs)
    return records, time.perf_counter() - start


def _assert_same_metrics(a, b):
    for ra, rb in zip(a, b):
        for name in METRIC_FIELDS:
            assert getattr(ra, name) == getattr(rb, name)


def test_sweep_cache(tmp_path):
    jobs = _sweep_jobs()

    cold, cold_s = _timed_sweep(jobs, cache_dir=tmp_path)
    warm, warm_s = _timed_sweep(jobs, cache_dir=tmp_path)
    _assert_same_metrics(cold, warm)
    cache_speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    payload = {
        "jobs": len(jobs),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "cache_speedup": round(cache_speedup, 2),
    }
    (REPO_ROOT / "BENCH_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    # acceptance: warm-cache rerun replays records >= 5x faster than the
    # cold run that produced them
    assert cache_speedup >= 5.0, payload
