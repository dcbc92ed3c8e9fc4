"""Figure 3: the FIFO catastrophe on the adversarial cyclic workload.

Paper protocol (Dataset 3): every thread cycles through the sequence
1..256 one hundred times; HBM holds only a quarter of the unique pages
across all threads. FIFO "misses every page" (the re-reference always
arrives after eviction) while Priority parks low-priority threads and
lets high-priority threads run from HBM, so FIFO's makespan is up to
40x larger and the gap scales linearly with thread count.

The sweep grid comes from :func:`repro.theory.fcfs_gap_jobs`; the
reducer rebuilds :class:`~repro.theory.GapPoint` s (with the certified
lower bound recomputed from the cached traces) via
:func:`repro.theory.fcfs_gap_points`.
"""

from __future__ import annotations

from typing import Any

from ..analysis import format_table, line_plot
from ..theory import fcfs_gap_jobs, fcfs_gap_points, fit_linear
from .base import Campaign, CampaignContext, Reduction

__all__ = ["FIG3", "FIG3_SETTINGS"]

FIG3_SETTINGS: dict[str, dict[str, Any]] = {
    "smoke": dict(
        thread_counts=(4, 8, 16, 32),
        pages_per_thread=64,
        repeats=20,
    ),
    "paper": dict(
        thread_counts=(4, 8, 16, 32, 64, 128),
        pages_per_thread=256,
        repeats=100,
    ),
}


def _build_jobs(ctx: CampaignContext):
    settings = FIG3_SETTINGS[ctx.scale]
    return fcfs_gap_jobs(
        settings["thread_counts"],
        pages_per_thread=settings["pages_per_thread"],
        repeats=settings["repeats"],
        hbm_fraction=0.25,
        seed=ctx.seed,
    )


def _reduce(ctx: CampaignContext, records) -> Reduction:
    points = fcfs_gap_points(records, build_workload=ctx.build_workload)
    rows = [
        {
            "threads": pt.threads,
            "hbm_slots": pt.hbm_slots,
            "fifo_makespan": pt.fifo_makespan,
            "priority_makespan": pt.priority_makespan,
            "ratio": round(pt.gap, 3),
            "fifo_hit_rate": round(pt.fifo_hit_rate, 4),
            "priority_hit_rate": round(pt.priority_hit_rate, 4),
        }
        for pt in points
    ]
    xs = [pt.threads for pt in points]
    gaps = [pt.gap for pt in points]
    slope, intercept, r2 = fit_linear(xs, gaps)

    checks = {
        # "When running on FIFO, we never have a cache hit."
        "fifo_never_hits": all(pt.fifo_hit_rate < 0.005 for pt in points),
        # Priority retains real reuse at scale.
        "priority_hits_at_scale": points[-1].priority_hit_rate > 0.3,
        # "FIFO yields a ... makespan that linearly scales with thread count."
        "gap_grows_linearly": slope > 0 and r2 > 0.9,
        # the gap is monotone in p
        "gap_monotone": all(
            gaps[i] <= gaps[i + 1] + 1e-9 for i in range(len(gaps) - 1)
        ),
        # Priority stays provably good: bounded ratio to the lower bound.
        "priority_ratio_bounded": max(pt.priority_ratio_to_bound for pt in points)
        < 8.0,
    }

    plot = line_plot(
        {"fifo/priority": list(zip(xs, gaps))},
        title="Figure 3: FIFO catastrophe (k = 1/4 of unique pages)",
        xlabel="threads",
        ylabel="makespan ratio",
    )
    text = (
        format_table(rows, title="Figure 3: cyclic adversarial workload")
        + f"\n\nlinear fit: gap = {slope:.3f} * p + {intercept:.3f} (r^2 = {r2:.3f})\n\n"
        + plot
    )
    return Reduction(
        rows=rows,
        checks=checks,
        data={"points": points, "fit": (slope, intercept, r2)},
        text=text,
    )


FIG3 = Campaign.sweep(
    "fig3",
    "Figure 3: FIFO vs Priority on Dataset 3",
    _build_jobs,
    _reduce,
)
