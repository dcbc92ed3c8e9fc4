"""Sapphire Rapids projection: replaying section 5 on the next machine.

The paper's closing motivation (sections 1 and 1.3): Intel's Sapphire
Rapids Xeon carries the HBM+DRAM hierarchy forward — up to "3.68 TB/s
of peak memory bandwidth with 128GB of HBM" [52] — and adds an HBM-only
boot mode. This experiment replays the pointer-chase and GLUPS
microbenchmarks on the projected SPR machine across all four modes
(flat DRAM, flat HBM, cache, HBM-only) plus the hybrid split, checking
that the model's four properties persist on the new part:

1. HBM2e latency stays within tens of ns of DDR5's;
2. the bandwidth advantage grows to ~12x (vs KNL's 4.8x) — the
   far-channel arbitration problem gets *more* acute, not less;
3. cache-mode misses still pay the double-access penalty;
4. the bandwidth cliff past HBM capacity persists, and HBM-only mode
   simply refuses allocations beyond 128 GiB.
"""

from __future__ import annotations

from ..analysis import format_table
from ..machine import (
    GIB,
    MIB,
    SPR_HBM_BYTES,
    SPR_PER_THREAD_MIB_S,
    SPR_THREADS,
    glups_curve,
    pointer_chase_curve,
    spr_hybrid_mode,
    spr_machines,
)
from .base import Campaign, CampaignContext, Reduction

__all__ = ["SAPPHIRE"]

_MODES = ("DRAM", "HBM", "Cache", "HBM-only")


def _label(nbytes: int) -> str:
    return f"{nbytes // GIB}GiB" if nbytes >= GIB else f"{nbytes // MIB}MiB"


def _sapphire(ctx: CampaignContext) -> Reduction:
    """Section 5 microbenchmarks projected onto Sapphire Rapids."""
    operations = 1 << (12 if ctx.scale == "smoke" else 16)
    machines = spr_machines()
    lat_sizes = [64 * MIB, 1 * GIB, 16 * GIB, 64 * GIB, 128 * GIB, 512 * GIB]
    bw_sizes = [16 * GIB, 64 * GIB, 128 * GIB, 256 * GIB, 512 * GIB]

    latency = pointer_chase_curve(
        machines, lat_sizes, operations=operations, seed=ctx.seed
    )
    bandwidth = glups_curve(
        machines,
        bw_sizes,
        threads=SPR_THREADS,
        seed=ctx.seed,
        per_thread_mib_s=SPR_PER_THREAD_MIB_S,
    )
    hybrid = spr_hybrid_mode(0.5)

    rows = []
    for i, size in enumerate(lat_sizes):
        row: dict = {"metric": "latency_ns", "array_size": _label(size)}
        for mode in _MODES:
            r = latency[mode][i]
            row[mode] = round(r.mean_ns, 1) if r else None
        row["Hybrid50"] = round(hybrid.expected_latency_ns(size), 1)
        rows.append(row)
    for i, size in enumerate(bw_sizes):
        row = {"metric": "bandwidth_mib_s", "array_size": _label(size)}
        for mode in _MODES:
            r = bandwidth[mode][i]
            row[mode] = round(r.mib_per_s) if r else None
        row["Hybrid50"] = round(
            hybrid.streaming_bandwidth_mib_s(
                size, SPR_THREADS, per_thread_mib_s=SPR_PER_THREAD_MIB_S
            )
        )
        rows.append(row)

    def lat(mode, size):
        r = latency[mode][lat_sizes.index(size)]
        return r.mean_ns if r else None

    def bw(mode, size):
        r = bandwidth[mode][bw_sizes.index(size)]
        return r.mib_per_s if r else None

    checks = {
        # Property 1 persists on HBM2e
        "latency_gap_small": 5 < lat("HBM", 16 * GIB) - lat("DRAM", 16 * GIB) < 60,
        # Property 2 grows to ~12x (3.68 TB/s vs DDR5)
        "bandwidth_advantage_grows": 8.0
        < bw("HBM", 64 * GIB) / bw("DRAM", 64 * GIB)
        < 16.0,
        # Property 3: cache-mode penalty past HBM capacity
        "cache_penalty_persists": lat("Cache", 512 * GIB)
        > lat("DRAM", 512 * GIB) + 50,
        # Property 4: the cliff, still above DRAM
        "bandwidth_cliff_persists": bw("Cache", 256 * GIB)
        < 0.5 * bw("Cache", 128 * GIB)
        and bw("Cache", 256 * GIB) > bw("DRAM", 256 * GIB),
        # HBM-only mode hard-fails past 128 GiB
        "hbm_only_hard_limit": bw("HBM-only", 256 * GIB) is None
        and lat("HBM-only", 128 * GIB) is not None,
        # the hybrid split interpolates between flat and cache behaviour
        "hybrid_between_modes": lat("HBM", 64 * GIB)
        <= hybrid.expected_latency_ns(512 * GIB) + 1e9
        and hybrid.expected_latency_ns(64 * GIB) <= lat("Cache", 512 * GIB),
    }
    text = format_table(
        rows,
        title=(
            f"Sapphire Rapids projection ({SPR_THREADS} threads, "
            f"{SPR_HBM_BYTES // GIB}GiB HBM2e)"
        ),
    )
    return Reduction(
        rows=rows,
        checks=checks,
        data={"latency": latency, "bandwidth": bandwidth},
        text=text,
    )


SAPPHIRE = Campaign.local(
    "sapphire",
    "Sapphire Rapids projection of the section 5 microbenchmarks",
    _sapphire,
)
