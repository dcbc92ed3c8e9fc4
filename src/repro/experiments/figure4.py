"""Figure 4: Dynamic Priority vs FIFO.

Paper protocol: the Figure 2 sweeps rerun with Dynamic Priority
(random priority permutation every ``T = 10k`` ticks) in place of
static Priority. Randomized remapping "has mitigated any advantages
that FIFO held in Figure 2": at every tested point Dynamic Priority's
makespan is at least as good as FIFO's, while keeping Priority's
high-thread-count dominance.

Both panels reuse Figure 2's :func:`~repro.experiments.figure2.ratio_campaign`
with Figure 4's own claim set swapped in via ``checks_fn``; ``fig4`` is
the composite of the two panel ids.
"""

from __future__ import annotations

from .base import panel_composite
from .figure2 import ratio_campaign

__all__ = ["FIG4", "FIG4A", "FIG4B", "REMAP_MULTIPLIER"]

#: the paper randomizes every 10 * k ticks in Figure 4
REMAP_MULTIPLIER = 10


def _figure4_checks(
    by_k: dict[int, list[tuple[int, float]]],
) -> dict[str, bool]:
    all_ratios = [ratio for series in by_k.values() for _, ratio in series]
    return {
        # Dynamic Priority is "either as good as FIFO or outperforms
        # FIFO on makespan" everywhere (small tolerance for ties).
        "dynamic_never_loses_to_fifo": min(all_ratios, default=0) >= 0.97,
        # and still wins big at high thread counts
        "dynamic_wins_at_high_threads": max(
            (series[-1][1] for series in by_k.values() if series), default=0
        )
        > 1.05,
    }


FIG4A = ratio_campaign(
    "fig4a",
    "Figure 4a: FIFO/DynamicPriority makespan ratio, SpGEMM",
    "spgemm",
    "fifo",
    "dynamic_priority",
    remap_multiplier=REMAP_MULTIPLIER,
    checks_fn=_figure4_checks,
)

FIG4B = ratio_campaign(
    "fig4b",
    "Figure 4b: FIFO/DynamicPriority makespan ratio, GNU sort",
    "sort",
    "fifo",
    "dynamic_priority",
    remap_multiplier=REMAP_MULTIPLIER,
    checks_fn=_figure4_checks,
)


FIG4 = panel_composite(
    "fig4", "Figure 4: Dynamic Priority vs FIFO", {"4a": "fig4a", "4b": "fig4b"}
)
