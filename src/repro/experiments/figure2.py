"""Figure 2: FIFO vs (static) Priority makespan across thread counts.

Paper protocol: simulate both arbitration policies on SpGEMM (2a) and
GNU-sort (2b) workloads over a range of thread counts and HBM sizes;
plot the ratio FIFO-makespan / Priority-makespan. Values above 1.0
favour Priority. The paper finds FIFO ahead at low thread counts (up to
1.33x on SpGEMM, 1.37x on sort) and Priority ahead at high thread
counts (up to 3.3x on SpGEMM, 1.2x on sort).

Scaling note (EXPERIMENTS.md): the paper's instances (SpGEMM 600x600 at
10% density; sort of 500,000 ints) with a C++ simulator are scaled down
here (pure-Python tick simulation) with the same structure; the
thread-count axis therefore crosses over at different absolute p, but
the same three regimes appear in order: parity while the far channel is
idle, FIFO ahead under moderate contention, Priority dominant once FIFO
thrashes.

Both panels (and Figure 4's, which reuses the grid with Dynamic
Priority) are :class:`~repro.experiments.base.Campaign` s built by
:func:`ratio_campaign`: one jobs builder for the policy-pair grid, one
reducer for the ratio rows, a parameterizable check set. ``fig2`` is
the composite of the two panel ids.
"""

from __future__ import annotations

from typing import Any, Callable

from ..analysis import (
    SweepJob,
    WorkloadSpec,
    format_table,
    line_plot,
    ratio_series,
)
from ..core import SimulationConfig
from .base import Campaign, CampaignContext, Reduction, panel_composite

__all__ = ["FIG2", "FIG2A", "FIG2B", "FIG2_SETTINGS", "ratio_campaign"]

#: workload generator settings per dataset and scale
FIG2_SETTINGS: dict[str, dict[str, dict[str, Any]]] = {
    "spgemm": {
        "smoke": dict(
            workload=dict(n=60, density=0.1, page_bytes=512, coalesce=True),
            threads=(2, 8, 32),
            hbm_slots=(48,),
        ),
        "paper": dict(
            workload=dict(n=80, density=0.1, page_bytes=512, coalesce=True),
            threads=(2, 4, 8, 16, 32, 64),
            hbm_slots=(40, 100, 300),
        ),
    },
    "sort": {
        "smoke": dict(
            workload=dict(n=1000, page_bytes=256, coalesce=True),
            threads=(2, 16, 64),
            hbm_slots=(48,),
        ),
        "paper": dict(
            workload=dict(n=1500, page_bytes=256, coalesce=True),
            threads=(2, 4, 8, 16, 32, 64),
            hbm_slots=(48, 64, 96),
        ),
    },
}


def _build_jobs(
    dataset: str,
    settings: dict[str, Any],
    seed: int,
    arbitrations: tuple[str, ...],
    remap_multiplier: int | None = None,
) -> list[SweepJob]:
    kind = "sort" if dataset == "sort" else "spgemm"
    jobs = []
    for p in settings["threads"]:
        spec = WorkloadSpec.make(kind, threads=p, seed=seed, **settings["workload"])
        for k in settings["hbm_slots"]:
            for arb in arbitrations:
                remap = (
                    remap_multiplier * k
                    if remap_multiplier is not None
                    and arb
                    in (
                        "dynamic_priority",
                        "cycle_priority",
                        "cycle_reverse_priority",
                        "interleave_priority",
                    )
                    else None
                )
                jobs.append(
                    SweepJob(
                        spec,
                        SimulationConfig(
                            hbm_slots=k,
                            arbitration=arb,
                            remap_period=remap,
                            seed=seed,
                        ),
                        tag=dataset,
                    )
                )
    return jobs


def _default_ratio_checks(
    by_k: dict[int, list[tuple[int, float]]],
) -> dict[str, bool]:
    """Figure 2's claim set (who wins at which end of the thread axis)."""
    all_ratios = [ratio for series in by_k.values() for _, ratio in series]
    high_p_ratios = [series[-1][1] for series in by_k.values() if series]
    return {
        # Priority dominates at the highest thread count (the paper's
        # headline: up to 3.3x on SpGEMM).
        "priority_wins_at_high_threads": max(high_p_ratios, default=0) > 1.05,
        # Somewhere in the sweep the numerator (FIFO) is at least as
        # good - the paper's low-thread-count anomaly.
        "fifo_competitive_somewhere": min(all_ratios, default=9) <= 1.02,
        # The ratio grows from the low-p to the high-p end.
        "ratio_increases_with_threads": all(
            series[-1][1] >= series[0][1] for series in by_k.values() if series
        ),
    }


def ratio_campaign(
    experiment_id: str,
    title: str,
    dataset: str,
    numerator: str,
    denominator: str,
    remap_multiplier: int | None = None,
    checks_fn: Callable[[dict[int, list[tuple[int, float]]]], dict[str, bool]]
    | None = None,
) -> Campaign:
    """The makespan-ratio campaign shared by Figures 2 and 4.

    Jobs: the dataset's (threads x hbm_slots) grid under both policies.
    Reducer: per-k ratio series, one row per (p, k) point, the claim
    set from ``checks_fn`` (Figure 2's by default).
    """
    checks_fn = checks_fn or _default_ratio_checks

    def build(ctx: CampaignContext) -> list[SweepJob]:
        settings = FIG2_SETTINGS[dataset][ctx.scale]
        return _build_jobs(
            dataset, settings, ctx.seed, (numerator, denominator), remap_multiplier
        )

    def reduce(ctx: CampaignContext, records) -> Reduction:
        settings = FIG2_SETTINGS[dataset][ctx.scale]
        by_k: dict[int, list[tuple[int, float]]] = {}
        for k in settings["hbm_slots"]:
            subset = [r for r in records if r.job.config.hbm_slots == k]
            by_k[k] = ratio_series(subset, numerator, denominator)

        rows = []
        makespans = {
            (
                r.job.workload.threads,
                r.job.config.hbm_slots,
                r.job.config.arbitration,
            ): r
            for r in records
        }
        for k, series in by_k.items():
            for p, ratio in series:
                num = makespans[(p, k, numerator)]
                den = makespans[(p, k, denominator)]
                rows.append(
                    {
                        "threads": p,
                        "hbm_slots": k,
                        f"{numerator}_makespan": num.makespan,
                        f"{denominator}_makespan": den.makespan,
                        "ratio": round(ratio, 4),
                        f"{numerator}_hit_rate": round(num.hit_rate, 4),
                        f"{denominator}_hit_rate": round(den.hit_rate, 4),
                    }
                )

        plot = line_plot(
            {f"k={k}": series for k, series in by_k.items()},
            title=f"{title} — makespan ratio {numerator}/{denominator}",
            xlabel="threads",
            ylabel="ratio",
        )
        return Reduction(
            rows=rows,
            checks=checks_fn(by_k),
            data={"ratio_series": by_k},
            text=format_table(rows, title=title) + "\n\n" + plot,
        )

    return Campaign.sweep(experiment_id, title, build, reduce)


FIG2A = ratio_campaign(
    "fig2a",
    "Figure 2a: FIFO/Priority makespan ratio, SpGEMM",
    "spgemm",
    "fifo",
    "priority",
)

FIG2B = ratio_campaign(
    "fig2b",
    "Figure 2b: FIFO/Priority makespan ratio, GNU sort",
    "sort",
    "fifo",
    "priority",
)


FIG2 = panel_composite(
    "fig2", "Figure 2: FIFO vs Priority", {"2a": "fig2a", "2b": "fig2b"}
)
