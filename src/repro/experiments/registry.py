"""Registry mapping experiment ids to campaigns and composites.

``python -m repro run <id>`` and the benchmark suite both dispatch
through this table; EXPERIMENTS.md's per-experiment index uses the same
ids. Every id is a :class:`~repro.experiments.base.Campaign` or a
:class:`~repro.experiments.base.Composite` of other ids, and
:func:`run_experiments` runs any list of them on one
:class:`~repro.analysis.SweepRunner`, each campaign at most once.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

from ..analysis.sweep import SweepRunner
from .ablations import ASYMMETRIC, CHANNELS, FRFCFS, REPLACEMENT, SCHEMES, SHARED
from .base import Campaign, Composite, ExperimentOutput, save_experiment_output
from .figure2 import FIG2, FIG2A, FIG2B
from .figure3 import FIG3
from .figure4 import FIG4, FIG4A, FIG4B
from .figure5 import FIG5, FIG5A, FIG5B, TAB1
from .sapphire import SAPPHIRE
from .table2 import FIG6, TAB2, TAB2A, TAB2B
from .theory_checks import LEMMA1, RESPONSE_BOUND, THM1_3, THM2, THM4
from .zoo import ZOO

__all__ = ["EXPERIMENTS", "experiment_ids", "run_experiment", "run_experiments"]

#: id -> (campaign or composite, one-line description)
EXPERIMENTS: dict[str, tuple[Campaign | Composite, str]] = {
    "fig2": (FIG2, "Figure 2: FIFO vs Priority makespan ratios (both panels)"),
    "fig2a": (FIG2A, "Figure 2a: FIFO vs Priority, SpGEMM"),
    "fig2b": (FIG2B, "Figure 2b: FIFO vs Priority, GNU sort"),
    "fig3": (FIG3, "Figure 3: FIFO catastrophe on the cyclic adversary"),
    "fig4": (FIG4, "Figure 4: Dynamic Priority vs FIFO (both panels)"),
    "fig4a": (FIG4A, "Figure 4a: Dynamic Priority vs FIFO, SpGEMM"),
    "fig4b": (FIG4B, "Figure 4b: Dynamic Priority vs FIFO, GNU sort"),
    "fig5": (FIG5, "Figure 5: inconsistency vs makespan tradeoff (both panels)"),
    "fig5a": (FIG5A, "Figure 5a: tradeoff, SpGEMM"),
    "fig5b": (FIG5B, "Figure 5b: tradeoff, GNU sort"),
    "tab1": (TAB1, "Table 1: inconsistency and mean response time per policy"),
    "tab2": (TAB2, "Table 2: KNL microbenchmarks (both halves)"),
    "tab2a": (TAB2A, "Table 2a: pointer-chase latency"),
    "tab2b": (TAB2B, "Table 2b: GLUPS bandwidth"),
    "fig6": (FIG6, "Figure 6: pointer chasing across the hierarchy"),
    "thm1_3": (THM1_3, "Theorems 1 & 3: Priority competitiveness"),
    "thm2": (THM2, "Theorem 2: FCFS adversary family"),
    "lemma1": (LEMMA1, "Lemma 1: direct-mapped transformation overhead"),
    "thm4": (THM4, "Theorem 4: concurrent front-insert steps"),
    "response_bound": (RESPONSE_BOUND, "Section 4: Cycle Priority p*T bound"),
    "ablation_channels": (CHANNELS, "Ablation: q in 1..10"),
    "ablation_schemes": (SCHEMES, "Ablation: permutation schemes"),
    "ablation_asymmetric": (
        ASYMMETRIC,
        "Ablation: asymmetric work distribution",
    ),
    "ablation_replacement": (
        REPLACEMENT,
        "Ablation: replacement policies / misses vs makespan",
    ),
    "ablation_shared": (
        SHARED,
        "Ablation: non-disjoint access sequences (future work 6.1)",
    ),
    "ablation_fr_fcfs": (
        FRFCFS,
        "Ablation: FR-FCFS, the real-controller FCFS variant",
    ),
    "sapphire": (
        SAPPHIRE,
        "Extension: section 5 microbenchmarks projected on Sapphire Rapids",
    ),
    "zoo": (
        ZOO,
        "Policy zoo: Cycle Priority vs shipped arbiters (BLISS + DPQ)",
    ),
}


def experiment_ids() -> list[str]:
    """All registered experiment ids, in registry order."""
    return list(EXPERIMENTS)


def run_experiments(
    ids: Sequence[str],
    scale: str,
    seed: int,
    runner: SweepRunner,
) -> Iterator[ExperimentOutput]:
    """Yield the output of each id in order, all run on ``runner``.

    An output produced earlier in the same call is reused, whether it
    was asked for by id or needed as a composite's panel, so each
    campaign runs at most once per call.
    """
    done: dict[str, ExperimentOutput] = {}

    def produce(experiment_id: str) -> ExperimentOutput:
        if experiment_id not in done:
            try:
                entry, _ = EXPERIMENTS[experiment_id]
            except KeyError:
                raise ValueError(
                    f"unknown experiment {experiment_id!r}; known: "
                    f"{experiment_ids()}"
                ) from None
            if isinstance(entry, Composite):
                done[experiment_id] = entry.combine(
                    [produce(panel) for panel in entry.panels]
                )
            else:
                done[experiment_id] = entry.run(scale, seed, runner)
        return done[experiment_id]

    for experiment_id in ids:
        yield produce(experiment_id)


def run_experiment(
    experiment_id: str,
    scale: str = "smoke",
    processes: int | None = None,
    cache_dir=None,
    seed: int = 0,
    save_dir: str | os.PathLike | None = None,
) -> ExperimentOutput:
    """Run one experiment by id on a fresh runner.

    With ``save_dir``, the output is also persisted to
    ``<save_dir>/<experiment_id>/`` (rows.csv, report.txt, checks.json,
    manifest.json) via
    :func:`~repro.experiments.base.save_experiment_output`.
    """
    runner = SweepRunner(processes=processes, cache_dir=cache_dir)
    (out,) = run_experiments([experiment_id], scale, seed, runner)
    if save_dir is not None:
        save_experiment_output(out, save_dir, seed=seed)
    return out
