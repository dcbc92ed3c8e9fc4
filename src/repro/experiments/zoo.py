"""Policy zoo: the paper's Cycle Priority vs shipped arbiters.

ROADMAP item 4 asks how the paper's schemes stack up against arbiters
industry actually deployed. The zoo runs the paper's
fairness/makespan/inconsistency protocol over **all eleven** registered
arbitration policies — the paper's FIFO/Priority/remapping family, the
real-controller policies (FR-FCFS, round-robin, random), and the two
shipped schedulers added for this comparison:

* ``blacklist`` — the Blacklisting Memory Scheduler (Subramanian et
  al.): threads that stream consecutive grants get blacklisted and
  deprioritized, bounding streak-driven unfairness without per-thread
  ranking;
* ``dpq`` — the Dynamic Priority Queue SDRAM arbiter (Shah et al.):
  priority slots with implicit promotion on wait, giving the analytic
  worst-case response bound ``floor((p - 1) / q) + 2`` that
  :func:`repro.theory.check_latency_bound` verifies per sweep family.

Fairness is reported as the *slowdown spread*: the ratio of the worst
thread's mean response time to the best thread's, computed from the
per-thread summary statistics each fat record carries
(``PayloadRequest(response_histogram=True)``). A spread of 1.0 is
perfectly fair; static Priority's starvation shows up as a large
spread, which the blacklist scheduler is designed to compress.

Both zoo families keep ``hbm_slots >= threads + channels`` — with the
default ``protect_pending=True`` this guarantees the fetch limit is
never starved by eviction infeasibility, the regime in which the DPQ
latency bound is provable (see :func:`repro.theory.dpq_latency_bound`).
"""

from __future__ import annotations

from typing import Any

from ..analysis import (
    PayloadRequest,
    SweepJob,
    SweepRecord,
    WorkloadSpec,
    format_table,
    scatter_plot,
)
from ..core import ARBITRATION_POLICIES, SimulationConfig
from ..core.arbitration import _ARBITRATION_CLASSES
from ..theory import check_latency_bound, dpq_latency_bound
from .base import Campaign, CampaignContext, Reduction

__all__ = ["ZOO", "ZOO_SETTINGS", "slowdown_spread"]

#: every zoo record carries its response-time distribution and the
#: per-thread summaries the fairness column is computed from
_PAYLOAD = PayloadRequest(response_histogram=True)

#: permutation-interval multiplier for the remapping policies (T = 10k,
#: the paper's broad mid range that keeps Priority-like makespan)
T_MULTIPLIER = 10

ZOO_SETTINGS: dict[str, dict[str, dict[str, Any]]] = {
    # hbm_slots >= threads + channels in every cell: the DPQ-bound
    # regime (and still contended — total footprints far exceed k)
    "spgemm": {
        "smoke": dict(
            workload=dict(n=60, density=0.1, page_bytes=512, coalesce=True),
            threads=16,
            hbm_slots=60,
            channels=1,
        ),
        "paper": dict(
            workload=dict(n=80, density=0.1, page_bytes=512, coalesce=True),
            threads=32,
            hbm_slots=100,
            channels=1,
        ),
    },
    "sort": {
        "smoke": dict(
            workload=dict(n=1000, page_bytes=256, coalesce=True),
            threads=24,
            hbm_slots=64,
            channels=2,
        ),
        "paper": dict(
            workload=dict(n=1500, page_bytes=256, coalesce=True),
            threads=64,
            hbm_slots=96,
            channels=2,
        ),
    },
}


def slowdown_spread(record: SweepRecord) -> float:
    """Worst thread mean response over best thread mean response.

    Computed from the per-thread summaries carried by the record's
    payload; threads that issued no requests are excluded. Returns 1.0
    when fewer than two threads have data (nothing to be unfair about).
    """
    payload = record.payload
    if payload is None or payload.thread_stats is None:
        raise ValueError("record does not carry thread stats")
    means = [
        t["mean_response"] for t in payload.thread_stats if t["requests"] > 0
    ]
    if len(means) < 2:
        return 1.0
    return max(means) / min(means)


def _zoo_jobs(ctx: CampaignContext) -> list[SweepJob]:
    jobs: list[SweepJob] = []
    for family, scales in ZOO_SETTINGS.items():
        settings = scales[ctx.scale]
        k = settings["hbm_slots"]
        spec = WorkloadSpec.make(
            family,
            threads=settings["threads"],
            seed=ctx.seed,
            **settings["workload"],
        )
        for arb in ARBITRATION_POLICIES:
            kwargs: dict[str, Any] = dict(
                hbm_slots=k,
                channels=settings["channels"],
                arbitration=arb,
                seed=ctx.seed,
            )
            if _ARBITRATION_CLASSES[arb].requires_remap_period:
                kwargs["remap_period"] = T_MULTIPLIER * k
            jobs.append(SweepJob(spec, SimulationConfig(**kwargs), payload=_PAYLOAD))
    return jobs


def _family_of(record: SweepRecord) -> str:
    return record.job.workload.kind


def _zoo_checks(records: list[SweepRecord]) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    for family, scales in ZOO_SETTINGS.items():
        fam = [r for r in records if _family_of(r) == family]
        by_policy = {r.job.config.arbitration: r for r in fam}
        checks[f"{family}_covers_all_policies"] = set(by_policy) == set(
            ARBITRATION_POLICIES
        )
        dpq = by_policy.get("dpq")
        if dpq is not None:
            p = dpq.job.workload.threads
            q = dpq.job.config.channels
            # the headline claim: measured worst response obeys the
            # analytic floor((p-1)/q)+2 bound
            checks[f"{family}_dpq_latency_bound"] = check_latency_bound(dpq, p, q)
        blacklist = by_policy.get("blacklist")
        priority = by_policy.get("priority")
        if blacklist is not None and priority is not None:
            # blacklisting exists to compress starvation-driven spread;
            # static Priority is the starvation-maximal baseline
            checks[f"{family}_blacklist_fairer_than_priority"] = (
                slowdown_spread(blacklist) <= slowdown_spread(priority)
            )
    return checks


def _zoo_reduce(ctx: CampaignContext, records: list[SweepRecord]) -> Reduction:
    rows = []
    for r in records:
        settings = ZOO_SETTINGS[_family_of(r)][ctx.scale]
        rows.append(
            {
                "family": _family_of(r),
                "policy": r.job.config.arbitration,
                "makespan": r.makespan,
                "fairness": round(slowdown_spread(r), 3),
                "inconsistency": round(r.inconsistency, 3),
                "mean_response": round(r.mean_response, 3),
                "max_response": r.max_response,
                "dpq_bound": dpq_latency_bound(
                    settings["threads"], settings["channels"]
                ),
                "hit_rate": round(r.hit_rate, 4),
            }
        )
    plot = scatter_plot(
        {
            family: [
                (r.makespan, r.inconsistency)
                for r in records
                if _family_of(r) == family
            ]
            for family in ZOO_SETTINGS
        },
        title="Policy zoo: inconsistency vs makespan",
        xlabel="makespan",
        ylabel="inconsistency",
    )
    text = (
        format_table(rows, title="Policy zoo: all registered arbiters")
        + "\n\n"
        + plot
    )
    return Reduction(
        rows=rows,
        checks=_zoo_checks(records),
        data={"records": records, "settings": ZOO_SETTINGS},
        text=text,
    )


ZOO = Campaign.sweep(
    "zoo",
    "Policy zoo: Cycle Priority vs shipped arbiters (BLISS + DPQ)",
    _zoo_jobs,
    _zoo_reduce,
)
