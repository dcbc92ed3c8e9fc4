"""Table 2 and Figure 6: KNL model-validation microbenchmarks.

Paper protocol (section 5): pointer chasing (latency) and GLUPS
(bandwidth) on Knights Landing in flat-DRAM, flat-HBM, and cache modes,
across array sizes from 1KiB to 64GiB. We run the same microbenchmarks
on the synthetic KNL machine (:mod:`repro.machine.knl`); the checks
assert the four section 5 properties:

1. HBM and DRAM have similar direct latency (difference ~24ns);
2. HBM bandwidth is ~4.3-4.8x DRAM's;
3. cache-mode misses roughly double the (post-L2) latency;
4. cache-mode bandwidth collapses once the working set exceeds HBM,
   but stays above DRAM's.
"""

from __future__ import annotations

from ..analysis import format_table, line_plot
from ..machine import (
    GIB,
    KIB,
    MIB,
    default_bandwidth_sizes,
    default_latency_sizes,
    glups_curve,
    knl_machines,
    pointer_chase_curve,
)
from .base import Campaign, CampaignContext, Reduction, panel_composite

__all__ = ["FIG6", "TAB2", "TAB2A", "TAB2B"]

#: paper's reference cells for calibration-drift reporting (ns)
PAPER_TABLE_2A = {
    16 * MIB: (168.9, 187.6, 190.6),
    8 * GIB: (318.3, 343.1, 378.3),
    64 * GIB: (364.7, None, 489.6),
}

_MODES = ("DRAM", "HBM", "Cache")


def _size_label(nbytes: int) -> str:
    if nbytes >= GIB:
        return f"{nbytes // GIB}GiB"
    if nbytes >= MIB:
        return f"{nbytes // MIB}MiB"
    return f"{nbytes // KIB}KiB"


def _table2a(ctx: CampaignContext) -> Reduction:
    """Table 2a: pointer-chase latency for DRAM / HBM / Cache modes."""
    operations = 1 << (13 if ctx.scale == "smoke" else 17)
    sizes = [s for s in default_latency_sizes(16 * MIB, 64 * GIB)]
    machines = knl_machines()
    curves = pointer_chase_curve(machines, sizes, operations=operations, seed=ctx.seed)

    rows = []
    for i, size in enumerate(sizes):
        row: dict = {"array_size": _size_label(size)}
        for mode in _MODES:
            r = curves[mode][i]
            row[f"{mode.lower()}_ns"] = round(r.mean_ns, 1) if r else None
        rows.append(row)

    def mean_ns(mode: str, size: int) -> float | None:
        r = curves[mode][sizes.index(size)]
        return r.mean_ns if r else None

    gaps = [
        mean_ns("HBM", s) - mean_ns("DRAM", s)
        for s in sizes
        if mean_ns("HBM", s) is not None
    ]
    checks = {
        # Property 1: similar latency, HBM slower by roughly 24ns.
        "hbm_dram_gap_small_and_positive": all(10 < g < 45 for g in gaps),
        # latencies rise monotonically with array size in every mode
        "latency_monotone_in_size": all(
            all(
                a.mean_ns <= b.mean_ns * 1.05
                for a, b in zip(series, series[1:])
                if a is not None and b is not None
            )
            for series in curves.values()
        ),
        # flat HBM cannot bind arrays beyond 8GiB (the paper's '-')
        "hbm_unallocatable_past_8gib": all(
            curves["HBM"][sizes.index(s)] is None for s in (16 * GIB, 64 * GIB)
        ),
        # cache mode degrades beyond HBM capacity, flat DRAM does not
        "cache_mode_penalty_beyond_hbm": (
            mean_ns("Cache", 64 * GIB) - mean_ns("Cache", 8 * GIB)
            > 2 * (mean_ns("DRAM", 64 * GIB) - mean_ns("DRAM", 8 * GIB))
        ),
    }
    text = format_table(rows, title="Table 2a: pointer-chase latency (ns)")
    return Reduction(
        rows=rows,
        text=text,
        checks=checks,
        data={"curves": curves, "sizes": sizes},
    )


TAB2A = Campaign.local("tab2a", "Table 2a: pointer-chase latency", _table2a)


def _table2b(ctx: CampaignContext) -> Reduction:
    """Table 2b: GLUPS bandwidth for DRAM / HBM / Cache modes."""
    sizes = default_bandwidth_sizes(512 * MIB, 64 * GIB)
    machines = knl_machines()
    curves = glups_curve(machines, sizes, threads=272, seed=ctx.seed)

    rows = []
    for i, size in enumerate(sizes):
        row: dict = {"array_size": _size_label(size)}
        for mode in _MODES:
            r = curves[mode][i]
            row[f"{mode.lower()}_mib_s"] = round(r.mib_per_s) if r else None
        rows.append(row)

    def bw(mode: str, size: int) -> float | None:
        r = curves[mode][sizes.index(size)]
        return r.mib_per_s if r else None

    in_hbm_sizes = [s for s in sizes if s <= 8 * GIB]
    ratios = [bw("HBM", s) / bw("DRAM", s) for s in in_hbm_sizes]
    checks = {
        # Property 2: HBM bandwidth ~4.3-4.8x DRAM for fitting arrays.
        "hbm_bandwidth_advantage": all(3.5 < r < 6.0 for r in ratios),
        # Property 4: cache mode halves past 2x HBM capacity...
        "cache_bandwidth_halves_past_hbm": bw("Cache", 32 * GIB)
        < 0.6 * bw("Cache", 16 * GIB),
        # ... but remains above DRAM.
        "cache_stays_above_dram": all(
            bw("Cache", s) > bw("DRAM", s) for s in (32 * GIB, 64 * GIB)
        ),
        "hbm_unallocatable_past_8gib": bw("HBM", 16 * GIB) is None,
    }
    text = format_table(rows, title="Table 2b: GLUPS bandwidth (MiB/s), 272 threads")
    return Reduction(
        rows=rows,
        text=text,
        checks=checks,
        data={"curves": curves, "sizes": sizes},
    )


TAB2B = Campaign.local("tab2b", "Table 2b: GLUPS bandwidth", _table2b)


def _figure6(ctx: CampaignContext) -> Reduction:
    """Figure 6: latency curves from 1KiB to 64GiB (6a) and zoomed (6b).

    The full sweep exposes the L1 / L2 / mesh plateaus the paper marks
    with dotted lines; the zoomed panel is Table 2a's range.
    """
    operations = 1 << (13 if ctx.scale == "smoke" else 17)
    sizes = default_latency_sizes(1 * KIB, 64 * GIB)
    machines = knl_machines()
    curves = pointer_chase_curve(machines, sizes, operations=operations, seed=ctx.seed)

    rows = []
    for i, size in enumerate(sizes):
        row: dict = {"array_size": _size_label(size)}
        for mode in _MODES:
            r = curves[mode][i]
            row[f"{mode.lower()}_ns"] = round(r.mean_ns, 1) if r else None
        rows.append(row)

    series = {
        mode: [
            (float(sizes[i]), r.mean_ns)
            for i, r in enumerate(curves[mode])
            if r is not None
        ]
        for mode in _MODES
    }
    # plateau detection for the checks: latency at 1KiB (L1), 512KiB
    # (L2), 2MiB (mesh), 1GiB (memory) must be well separated.
    def at(mode: str, size: int) -> float:
        return curves[mode][sizes.index(size)].mean_ns

    checks = {
        "l1_plateau_fast": at("DRAM", 1 * KIB) < 10,
        "l2_plateau_distinct": 5 < at("DRAM", 512 * KIB) < 60,
        "mesh_plateau_distinct": 60 < at("DRAM", 2 * MIB) < 200,
        "memory_plateau_distinct": at("DRAM", 1 * GIB) > 200,
        "modes_agree_below_l2": abs(at("DRAM", 64 * KIB) - at("HBM", 64 * KIB))
        < 2.0,
    }
    plot = line_plot(
        series,
        title="Figure 6a: pointer chasing across the hierarchy",
        xlabel="array bytes (log)",
        ylabel="ns/access",
        logx=True,
        width=70,
    )
    zoom = line_plot(
        {
            mode: [(x, y) for x, y in pts if x >= 16 * MIB]
            for mode, pts in series.items()
        },
        title="Figure 6b: zoomed beyond shared L2",
        xlabel="array bytes (log)",
        ylabel="ns/access",
        logx=True,
        width=70,
    )
    text = format_table(rows, title="Figure 6 data") + "\n\n" + plot + "\n\n" + zoom
    return Reduction(
        rows=rows,
        text=text,
        checks=checks,
        data={"curves": curves, "sizes": sizes},
    )


FIG6 = Campaign.local(
    "fig6", "Figure 6: pointer chasing on HBM, DRAM, and HBM-as-cache", _figure6
)

TAB2 = panel_composite(
    "tab2", "Table 2: KNL microbenchmarks", {"2a": "tab2a", "2b": "tab2b"}
)
