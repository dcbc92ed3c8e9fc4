"""Observability overhead guard: probes must be free when disabled.

The probe hook adds exactly one falsy check per simulated tick when
``config.probes`` is empty. This benchmark bounds that cost from above:
a run with an *inert* probe attached at a stride longer than the run
(so the sampling body executes once, at tick 0) strictly dominates the
probes-disabled per-tick cost, because it pays the same branch plus a
truthy tuple and a modulo. Showing inert ≈ disabled therefore bounds
the disabled-probe overhead without needing a build that predates the
probe hook.

Both engines are guarded. The two configurations are timed in
*interleaved* best-of-N rounds — timing them in separate blocks skews
the comparison by several percent of warm-up/frequency drift — with a
small absolute epsilon so the assertion is robust to scheduler noise
on short runs. The full stride-1 sampling cost is also recorded
(informational only — sampling is allowed to cost whatever it costs
when requested).

Results land in ``BENCH_obs.json`` at the repo root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core import SimulationConfig, simulate
from repro.obs import Probe
from repro.traces import make_workload

REPO_ROOT = Path(__file__).resolve().parent.parent

#: tolerated relative overhead for disabled probes
MAX_OVERHEAD = 0.02

#: absolute slack (seconds) so sub-100ms runs don't fail on jitter
EPSILON_S = 0.015

ROUNDS = 7


class InertProbe(Probe):
    """A probe whose hooks do nothing — measures pure dispatch cost."""


def _interleaved_best_of(fns: dict, rounds: int = ROUNDS) -> dict:
    """Best-of-``rounds`` wall time per callable, round-robin order."""
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def test_probe_disabled_overhead(tmp_path):
    workload = make_workload("zipf", threads=96, seed=0, length=2000, pages=32)
    payload: dict[str, dict[str, float]] = {}

    for engine in ("fast", "reference"):
        off_cfg = SimulationConfig(hbm_slots=4096, channels=4)
        makespan = simulate(workload, off_cfg, engine=engine).makespan
        inert_cfg = SimulationConfig(
            hbm_slots=4096, channels=4,
            probes=(InertProbe(),), probe_stride=makespan + 1,
        )
        full_cfg = SimulationConfig(
            hbm_slots=4096, channels=4,
            probes=(InertProbe(),), probe_stride=1,
        )

        best = _interleaved_best_of(
            {
                "off": lambda: simulate(workload, off_cfg, engine=engine),
                "inert": lambda: simulate(workload, inert_cfg, engine=engine),
                "full": lambda: simulate(workload, full_cfg, engine=engine),
            }
        )
        off_s, inert_s, full_s = best["off"], best["inert"], best["full"]

        overhead = (inert_s - off_s) / off_s if off_s > 0 else 0.0
        payload[engine] = {
            "makespan_ticks": makespan,
            "probes_off_s": round(off_s, 6),
            "inert_probe_s": round(inert_s, 6),
            "overhead_fraction": round(overhead, 4),
            "stride1_sampling_s": round(full_s, 6),
        }

        # the guard: an inert probe (a strict upper bound on the
        # disabled-probe branch) costs < 2% — modulo absolute jitter
        assert inert_s <= off_s * (1.0 + MAX_OVERHEAD) + EPSILON_S, payload

    _update_bench_obs(payload)


def _update_bench_obs(payload: dict) -> None:
    """Merge ``payload`` into ``BENCH_obs.json`` (tests may run solo)."""
    path = REPO_ROOT / "BENCH_obs.json"
    doc = {}
    if path.is_file():
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            doc = {}
    doc.update(payload)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def test_campaign_telemetry_overhead(tmp_path):
    """Campaign telemetry must cost < 2% of a sweep's wall time.

    The same job list runs through the sequential runner with telemetry
    fully enabled (metrics snapshot + event stream) and with telemetry
    off, interleaved best-of-N like the probe guard.
    """
    from repro.analysis import SweepJob, SweepRunner, WorkloadSpec
    from repro.analysis.telemetry import CampaignTelemetry

    spec = WorkloadSpec.make(
        "adversarial_cycle", threads=32, seed=0, pages=64, repeats=24
    )
    jobs = [
        SweepJob(
            workload=spec,
            config=SimulationConfig(hbm_slots=512, channels=(c % 2) + 1),
            tag=f"job{c}",
        )
        for c in range(4)
    ]

    def run_off():
        SweepRunner(processes=1).run(jobs)

    def run_on():
        tele = CampaignTelemetry(
            metrics_out=tmp_path / "m.prom",
            events_out=tmp_path / "e.jsonl",
        )
        try:
            SweepRunner(processes=1, telemetry=tele).run(jobs)
        finally:
            tele.close()

    best = _interleaved_best_of({"off": run_off, "on": run_on})
    off_s, on_s = best["off"], best["on"]
    overhead = (on_s - off_s) / off_s if off_s > 0 else 0.0
    _update_bench_obs(
        {
            "telemetry": {
                "jobs": len(jobs),
                "sweep_off_s": round(off_s, 6),
                "sweep_on_s": round(on_s, 6),
                "overhead_fraction": round(overhead, 4),
            }
        }
    )
    assert on_s <= off_s * (1.0 + MAX_OVERHEAD) + EPSILON_S, best
