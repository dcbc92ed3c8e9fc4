"""Ablation experiments for the paper's swept-but-unplotted dimensions.

Section 1.2: "we varied the size of HBM, the source of the access
traces, the number of cores, the distribution of work across the cores,
the method by which we permute priorities (none, cycle, cycle-reverse,
interleave, Dynamic Priority), how often we remapped priorities, the
number of channels to DRAM (1-10), and whether the DRAM queue is FIFO
or Priority. In this paper, we present an interesting subset of them."

These experiments cover the rest of that grid:

* ``CHANNELS`` (``ablation_channels``) — q from 1 to 10 (the Theorem 3
  axis);
* ``SCHEMES`` (``ablation_schemes``) — none / cycle / cycle-reverse /
  interleave / dynamic / random;
* ``ASYMMETRIC`` (``ablation_asymmetric``) — unequal per-thread work,
  where the paper predicts Cycle Priority "continuously places the same
  thread behind the most demanding thread" while Dynamic Priority stays
  robust;
* ``REPLACEMENT`` (``ablation_replacement``) — LRU vs FIFO vs CLOCK vs
  Random vs Belady, demonstrating section 2's "minimizing cache misses
  is not the same as minimizing makespan";
* ``SHARED`` (``ablation_shared``) — non-disjoint access sequences, the
  paper's section 6.1 future work: as the shared fraction grows, shared
  fetches amortize across cores and Priority's starvation softens (a
  high-priority thread prefetches for everyone);
* ``FRFCFS`` (``ablation_fr_fcfs``) — the FR-FCFS discipline of real
  controllers (section 1.3): being a FIFO variant, it inherits FIFO's
  Omega(p) pathology on the adversarial workload, which is exactly why
  the paper argues for priority-based controller hardware.

All six are sweep campaigns: each declares its job grid and reduces
the resulting records, so every ablation shares the process pool and
the persistent result cache with the figure experiments.
"""

from __future__ import annotations

from ..analysis import SweepJob, WorkloadSpec, format_table, line_plot
from ..core import SimulationConfig
from .base import Campaign, CampaignContext, Reduction

__all__ = ["ASYMMETRIC", "CHANNELS", "FRFCFS", "REPLACEMENT", "SCHEMES", "SHARED"]


def _channels_settings(scale: str):
    if scale == "smoke":
        return 16, 32, 10, (1, 2, 4, 8, 10)
    return 64, 64, 30, tuple(range(1, 11))


def _channels_jobs(ctx: CampaignContext) -> list[SweepJob]:
    p, pages, repeats, qs = _channels_settings(ctx.scale)
    spec = WorkloadSpec.make(
        "adversarial_cycle", threads=p, seed=ctx.seed, pages=pages, repeats=repeats
    )
    k = p * pages // 4
    return [
        SweepJob(
            spec,
            SimulationConfig(hbm_slots=k, channels=q, arbitration=arb, seed=ctx.seed),
            tag="ablation_channels",
        )
        for q in qs
        for arb in ("fifo", "priority")
    ]


def _channels_reduce(ctx: CampaignContext, records) -> Reduction:
    _, _, _, qs = _channels_settings(ctx.scale)
    by = {(r.job.config.channels, r.job.config.arbitration): r for r in records}
    rows = [
        {
            "channels": q,
            "fifo_makespan": by[(q, "fifo")].makespan,
            "priority_makespan": by[(q, "priority")].makespan,
            "ratio": round(by[(q, "fifo")].makespan / by[(q, "priority")].makespan, 3),
        }
        for q in qs
    ]
    checks = {
        # more channels help FIFO linearly (its makespan is pure
        # serialized transfer time on this workload)
        "fifo_improves_with_q": by[(qs[-1], "fifo")].makespan
        < by[(qs[0], "fifo")].makespan,
        # Priority may *degrade* mildly with q — more concurrent
        # fetchers pollute the top threads' working sets under LRU,
        # consistent with Theorem 3's O(q) (not O(1)) ratio. Assert the
        # degradation stays within the theorem's linear envelope.
        "priority_degradation_bounded": by[(qs[-1], "priority")].makespan
        <= 2.0 * by[(qs[0], "priority")].makespan,
        # extra bandwidth shrinks FIFO's disadvantage (s bandwidth
        # augmentation divides the Theorem 2 gap)
        "bandwidth_augmentation_closes_gap": rows[-1]["ratio"] < rows[0]["ratio"],
    }
    plot = line_plot(
        {
            "fifo": [(q, by[(q, "fifo")].makespan) for q in qs],
            "priority": [(q, by[(q, "priority")].makespan) for q in qs],
        },
        title="makespan vs far-channel count",
        xlabel="channels q",
        ylabel="makespan",
    )
    return Reduction(
        rows=rows,
        checks=checks,
        text=format_table(rows, title="q ablation") + "\n\n" + plot,
    )


# FIFO vs Priority as the far-channel count q grows from 1 to 10.
#
# Findings at paper scale: FIFO improves proportionally to q (its
# makespan is serialized transfer time), closing the gap Theorem 2
# predicts bandwidth augmentation should divide; Priority improves
# little and can even degrade slightly at large q, because concurrent
# fetchers from many threads pollute the leaders' LRU working sets —
# the empirical face of Theorem 3's O(q) competitive ratio.
CHANNELS = Campaign.sweep(
    "ablation_channels",
    "Ablation: far-channel count q in 1..10",
    _channels_jobs,
    _channels_reduce,
)


_SCHEME_REMAPPERS = (
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
)


def _schemes_jobs(ctx: CampaignContext) -> list[SweepJob]:
    if ctx.scale == "smoke":
        wl_kwargs = dict(n=1000, page_bytes=256, coalesce=True)
        p, k = 48, 48
    else:
        wl_kwargs = dict(n=1500, page_bytes=256, coalesce=True)
        p, k = 64, 96
    spec = WorkloadSpec.make("sort", threads=p, seed=ctx.seed, **wl_kwargs)
    T = 10 * k
    schemes = [("fifo", None), ("priority", None), ("random", None)] + [
        (arb, T) for arb in _SCHEME_REMAPPERS
    ]
    return [
        SweepJob(
            spec,
            SimulationConfig(
                hbm_slots=k, arbitration=arb, remap_period=period, seed=ctx.seed
            ),
            tag="ablation_schemes",
        )
        for arb, period in schemes
    ]


def _schemes_reduce(ctx: CampaignContext, records) -> Reduction:
    rows = [
        {
            "scheme": r.job.config.arbitration,
            "makespan": r.makespan,
            "inconsistency": round(r.inconsistency, 3),
            "mean_response": round(r.mean_response, 3),
            "max_response": r.max_response,
        }
        for r in records
    ]
    by = {r.job.config.arbitration: r for r in records}
    checks = {
        # "The results for deterministic remapping are similar for
        # balanced workloads" — all remapping schemes within ~1/3 of
        # each other on makespan.
        "remapping_schemes_agree_on_balanced_work": max(
            by[s].makespan for s in _SCHEME_REMAPPERS
        )
        < 1.35 * min(by[s].makespan for s in _SCHEME_REMAPPERS),
        # remapping never blows inconsistency up beyond Priority's, and
        # the randomized scheme cuts it substantially
        "remapping_bounded_by_priority_inconsistency": all(
            by[s].inconsistency < 1.2 * by["priority"].inconsistency
            for s in _SCHEME_REMAPPERS
        ),
        "dynamic_cuts_inconsistency": by["dynamic_priority"].inconsistency
        < 0.7 * by["priority"].inconsistency,
        # and none loses to FIFO on makespan
        "remapping_beats_fifo": all(
            by[s].makespan <= 1.05 * by["fifo"].makespan for s in _SCHEME_REMAPPERS
        ),
    }
    return Reduction(
        rows=rows,
        checks=checks,
        text=format_table(rows, title="permutation schemes"),
    )


# All permutation schemes at a contended point (balanced work).
SCHEMES = Campaign.sweep(
    "ablation_schemes",
    "Ablation: priority permutation schemes (balanced work)",
    _schemes_jobs,
    _schemes_reduce,
)


def _asymmetric_jobs(ctx: CampaignContext) -> list[SweepJob]:
    if ctx.scale == "smoke":
        p, n = 8, 600
    else:
        p, n = 16, 1200
    factors = [4.0] + [1.0] * (p - 1)  # one demanding thread
    spec = WorkloadSpec.make(
        "sort",
        threads=p,
        seed=ctx.seed,
        n=n,
        page_bytes=256,
        coalesce=True,
        work_factors=tuple(factors),
    )
    k = 24 * p // 4
    T = 5 * k
    return [
        SweepJob(
            spec,
            SimulationConfig(
                hbm_slots=k, arbitration=arb, remap_period=T, seed=ctx.seed
            ),
            tag="ablation_asymmetric",
        )
        for arb in ("dynamic_priority", "cycle_priority")
    ]


def _asymmetric_reduce(ctx: CampaignContext, records) -> Reduction:
    by = {r.job.config.arbitration: r for r in records}
    rows = [
        {
            "scheme": name,
            "makespan": by[name].makespan,
            "inconsistency": round(by[name].inconsistency, 3),
            "max_response": by[name].max_response,
        }
        for name in ("dynamic_priority", "cycle_priority")
    ]
    checks = {
        # both finish in similar time...
        "makespans_comparable": by["cycle_priority"].makespan
        < 1.3 * by["dynamic_priority"].makespan,
        # ...and both complete the asymmetric workload at all
        "both_complete": all(r.total_requests > 0 for r in records),
    }
    return Reduction(
        rows=rows,
        checks=checks,
        data={"records": records},
        text=format_table(rows, title="asymmetric work"),
    )


# Unequal work distribution: Dynamic vs Cycle starvation.
#
# The paper (section 4): "When the work is asymmetric, Cycle Priority
# continuously places the same thread behind the most demanding
# thread, causing small amounts of starvation." We give thread 0 a
# several-times-larger instance and compare worst-thread starvation.
ASYMMETRIC = Campaign.sweep(
    "ablation_asymmetric",
    "Ablation: asymmetric work (Dynamic vs Cycle Priority)",
    _asymmetric_jobs,
    _asymmetric_reduce,
)


_REPLACEMENTS = ("lru", "fifo", "clock", "random", "mru", "belady")


def _replacement_jobs(ctx: CampaignContext) -> list[SweepJob]:
    if ctx.scale == "smoke":
        p, length, pages, k = 8, 1500, 64, 128
    else:
        p, length, pages, k = 32, 5000, 96, 512
    spec = WorkloadSpec.make(
        "zipf", threads=p, seed=ctx.seed, length=length, pages=pages
    )
    return [
        SweepJob(
            spec,
            SimulationConfig(
                hbm_slots=k,
                arbitration="priority",
                replacement=replacement,
                seed=ctx.seed,
            ),
            tag="ablation_replacement",
        )
        for replacement in _REPLACEMENTS
    ]


def _replacement_reduce(ctx: CampaignContext, records) -> Reduction:
    by = {r.job.config.replacement: r for r in records}
    rows = [
        {
            "replacement": replacement,
            "makespan": by[replacement].makespan,
            "hit_rate": round(by[replacement].hit_rate, 4),
            "misses": by[replacement].misses,
        }
        for replacement in _REPLACEMENTS
    ]
    checks = {
        # Belady approximates the per-stream miss optimum
        "belady_minimizes_misses": by["belady"].misses
        <= min(by[r].misses for r in ("lru", "fifo", "clock", "random")),
        # the classical policies are mutually close (replacement is not
        # the problem)
        "classical_policies_close": max(
            by[r].makespan for r in ("lru", "fifo", "clock")
        )
        < 1.3 * min(by[r].makespan for r in ("lru", "fifo", "clock")),
        # fewer misses does not linearly buy makespan: LRU's makespan is
        # within a modest factor of Belady's despite more misses
        "misses_are_not_makespan": by["lru"].makespan
        < 1.5 * by["belady"].makespan,
    }
    return Reduction(
        rows=rows,
        checks=checks,
        text=format_table(rows, title="replacement policies"),
    )


# Replacement policies under Priority arbitration.
#
# Demonstrates section 2's "minimizing cache misses is not the same as
# minimizing makespan": the Belady baseline minimizes misses per
# stream yet does not necessarily minimize makespan, while LRU-family
# policies all land close together (replacement "is not the problem").
REPLACEMENT = Campaign.sweep(
    "ablation_replacement",
    "Ablation: HBM replacement policies",
    _replacement_jobs,
    _replacement_reduce,
)


_SHARED_FRACTIONS = (0.0, 0.25, 0.5, 0.9)
_SHARED_POLICIES = ("fifo", "priority", "dynamic_priority")


def _shared_settings(scale: str):
    if scale == "smoke":
        return 8, 2000, 48, 48, 96
    return 32, 5000, 64, 64, 256


def _shared_jobs(ctx: CampaignContext) -> list[SweepJob]:
    p, length, private_pages, shared_pages, k = _shared_settings(ctx.scale)
    jobs = []
    for fraction in _SHARED_FRACTIONS:
        spec = WorkloadSpec.make(
            "shared",
            threads=p,
            seed=ctx.seed,
            length=length,
            private_pages=private_pages,
            shared_pages=shared_pages,
            shared_fraction=fraction,
        )
        for arb in _SHARED_POLICIES:
            jobs.append(
                SweepJob(
                    spec,
                    SimulationConfig(
                        hbm_slots=k,
                        arbitration=arb,
                        remap_period=10 * k if arb == "dynamic_priority" else None,
                        seed=ctx.seed,
                    ),
                    tag="ablation_shared",
                )
            )
    return jobs


def _shared_reduce(ctx: CampaignContext, records) -> Reduction:
    rows = []
    fetch_by_fraction: dict[float, int] = {}
    for record in records:
        fraction = dict(record.job.workload.params)["shared_fraction"]
        arb = record.job.config.arbitration
        if arb == "priority":
            fetch_by_fraction[fraction] = record.fetches
        rows.append(
            {
                "shared_fraction": fraction,
                "arbitration": arb,
                "makespan": record.makespan,
                "fetches": record.fetches,
                "hit_rate": round(record.hit_rate, 4),
                "max_response": record.max_response,
            }
        )
    priority_rows = [r for r in rows if r["arbitration"] == "priority"]
    checks = {
        # every run completes and conserves requests (simulator is
        # well-defined without Property 1)
        "all_policies_complete": len(rows)
        == len(_SHARED_FRACTIONS) * len(_SHARED_POLICIES),
        # sharing amortizes far-channel traffic
        "sharing_reduces_fetches": fetch_by_fraction[0.9]
        < fetch_by_fraction[0.0],
        # shared prefetching softens Priority's worst stall
        "sharing_softens_priority_starvation": priority_rows[-1]["max_response"]
        <= priority_rows[0]["max_response"],
    }
    return Reduction(
        rows=rows,
        checks=checks,
        text=format_table(rows, title="shared pages"),
    )


# Non-disjoint sequences (section 6.1 future work).
#
# Sweeps the fraction of references landing in a common shared
# segment while holding each thread's reference count and the total
# page universe fixed. Expectations: far-channel traffic (fetches)
# falls as sharing grows (one fetch serves many cores), and every
# policy still completes — the simulator is well-defined outside
# Property 1 even though the theory is not.
SHARED = Campaign.sweep(
    "ablation_shared",
    "Ablation: non-disjoint access sequences (section 6.1)",
    _shared_jobs,
    _shared_reduce,
)


def _frfcfs_settings(scale: str):
    if scale == "smoke":
        return (8, 16, 32), 32, 12
    return (8, 16, 32, 64), 64, 30


def _frfcfs_jobs(ctx: CampaignContext) -> list[SweepJob]:
    threads_list, pages, repeats = _frfcfs_settings(ctx.scale)
    jobs = []
    for p in threads_list:
        spec = WorkloadSpec.make(
            "adversarial_cycle",
            threads=p,
            seed=ctx.seed,
            pages=pages,
            repeats=repeats,
        )
        k = p * pages // 4
        for arb in ("fifo", "fr_fcfs", "priority"):
            jobs.append(
                SweepJob(
                    spec,
                    SimulationConfig(hbm_slots=k, arbitration=arb, seed=ctx.seed),
                    tag="ablation_fr_fcfs",
                )
            )
    return jobs


def _frfcfs_reduce(ctx: CampaignContext, records) -> Reduction:
    threads_list, _, _ = _frfcfs_settings(ctx.scale)
    by = {
        (r.job.workload.threads, r.job.config.arbitration): r for r in records
    }
    rows = []
    gaps: dict[str, list[float]] = {"fifo": [], "fr_fcfs": []}
    for p in threads_list:
        results = {arb: by[(p, arb)] for arb in ("fifo", "fr_fcfs", "priority")}
        for arb in ("fifo", "fr_fcfs"):
            gaps[arb].append(
                results[arb].makespan / results["priority"].makespan
            )
        rows.append(
            {
                "threads": p,
                "fifo_makespan": results["fifo"].makespan,
                "fr_fcfs_makespan": results["fr_fcfs"].makespan,
                "priority_makespan": results["priority"].makespan,
                "fifo_gap": round(gaps["fifo"][-1], 3),
                "fr_fcfs_gap": round(gaps["fr_fcfs"][-1], 3),
                "fr_fcfs_hit_rate": round(results["fr_fcfs"].hit_rate, 4),
            }
        )
    checks = {
        # FR-FCFS still degrades relative to Priority as p grows
        "fr_fcfs_gap_grows": gaps["fr_fcfs"][-1] > 1.5 * gaps["fr_fcfs"][0],
        # its accidental row clustering beats pure FIFO at scale ...
        "row_clustering_beats_plain_fifo": rows[-1]["fr_fcfs_makespan"]
        <= rows[-1]["fifo_makespan"],
        # ... but explicit Priority still wins everywhere
        "priority_beats_fr_fcfs_everywhere": all(
            gap >= 1.0 for gap in gaps["fr_fcfs"]
        ),
    }
    return Reduction(
        rows=rows,
        checks=checks,
        data={"gaps": gaps},
        text=format_table(rows, title="FR-FCFS vs FIFO vs Priority"),
    )


# FR-FCFS (real-hardware FCFS variant) vs FIFO vs Priority.
#
# Section 1.3: Intel's far-channel arbitration is "likely a solution
# based on [49] ... first-ready first-come-first-served. As the name
# implies, this is a variant of FCFS". On the Dataset 3 adversary the
# measurement is nuanced and supports the paper's core thesis from an
# unexpected direction: because a DRAM row spans several threads'
# page blocks, the open-row preference *clusters* service on a few
# threads at a time — an implicit, locality-driven priority — so
# FR-FCFS beats pure FIFO at scale. Reordering is exactly what
# matters (the paper's point); but the accidental clustering is far
# weaker than an explicit pecking order, so FR-FCFS still trails
# Priority by a growing factor.
FRFCFS = Campaign.sweep(
    "ablation_fr_fcfs",
    "Ablation: FR-FCFS (real-controller FCFS variant)",
    _frfcfs_jobs,
    _frfcfs_reduce,
)
