"""Experiment infrastructure: the campaign pipeline and output types.

Every paper table/figure is an :class:`Experiment` producing an
:class:`ExperimentOutput` with

* ``rows`` — the regenerated table/series data (dict rows),
* ``text`` — terminal rendering (ASCII table + plot),
* ``checks`` — named boolean *shape assertions*: does the paper's
  qualitative claim hold in this run (who wins, where the crossover
  falls, orderings)? Benchmarks assert these; EXPERIMENTS.md reports
  them.

Each experiment supports two scales:

* ``"smoke"`` — small instances for benchmarks and CI (seconds);
* ``"paper"`` — the largest configuration practical in pure Python,
  with the same structure as the paper's setup (minutes; used to
  produce the numbers recorded in EXPERIMENTS.md).

The campaign pipeline
---------------------

Experiments are declared as :class:`Campaign` objects — a *jobs
builder* (context -> :class:`~repro.analysis.SweepJob` list), a
*reducer* (records -> :class:`Reduction` of rows/checks/data), and an
optional *renderer* (reduction -> terminal text). :meth:`Campaign.run`
executes the jobs on the :class:`~repro.analysis.SweepRunner` it is
handed, so every experiment — makespan sweeps, fairness/response-time
studies, theory harnesses — gets the process pool, persistent result
cache, payload replay, run manifests, and campaign telemetry without
touching an engine directly. Experiments
with no simulation at all (machine-model microbenchmarks, PRAM step
counts) use :meth:`Campaign.local`, which skips the sweep stage but
keeps the same output/persistence contract. An experiment read off
other experiments' outputs (both panels of a figure, Table 1 from
Figure 5's sweep) is a :class:`Composite` of their registry ids.

:func:`save_experiment_output` persists a finished output to
``<base_dir>/<experiment_id>/`` as ``rows.csv`` + ``report.txt`` +
``checks.json`` + a provenance ``manifest.json`` (scale, seed, engine
semantics version, host, cache-hit telemetry) — the ``results/``
layout the CLI's ``--save`` flag writes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..analysis.sweep import CampaignStats, SweepJob, SweepRecord, SweepRunner
from ..core.engine import ENGINE_SEMANTICS_VERSION
from ..obs.log import get_logger, warn_once
from ..obs.manifest import host_info
from ..obs.metrics import phase, set_active_registry
from ..traces import Workload, WorkloadCache

log = get_logger("experiments")

__all__ = [
    "CAMPAIGN_MANIFEST_SCHEMA",
    "Campaign",
    "CampaignContext",
    "Composite",
    "ExperimentOutput",
    "Reduction",
    "Scale",
    "merge_campaign_stats",
    "panel_composite",
    "require_scale",
    "save_experiment_output",
]

Scale = str  # "smoke" | "paper"

_VALID_SCALES = ("smoke", "paper")

#: bump when the results/<id>/manifest.json layout changes incompatibly
CAMPAIGN_MANIFEST_SCHEMA = "repro.experiments.campaign/v1"


def require_scale(scale: str) -> str:
    if scale not in _VALID_SCALES:
        raise ValueError(f"scale must be one of {_VALID_SCALES}, got {scale!r}")
    return scale


@dataclass
class ExperimentOutput:
    """Uniform result bundle for one experiment run."""

    experiment_id: str
    title: str
    scale: str
    rows: list[dict[str, Any]]
    text: str
    checks: dict[str, bool] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def campaign(self) -> CampaignStats | None:
        """Sweep telemetry for the run that produced this output.

        ``None`` for outputs assembled outside the campaign pipeline.
        Composite experiments (e.g. both Figure 2 panels) carry the
        merged stats of their parts.
        """
        return self.data.get("campaign")

    def render(self) -> str:
        """Full text report including check outcomes."""
        lines = [f"== {self.experiment_id}: {self.title} (scale={self.scale}) =="]
        lines.append(self.text)
        if self.checks:
            lines.append("")
            lines.append("shape checks:")
            for name, ok in self.checks.items():
                lines.append(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignContext:
    """Everything a jobs builder or reducer may depend on.

    Builders derive the job grid from ``scale`` and ``seed``; reducers
    occasionally need the workload itself (e.g. to compute certified
    lower bounds from the traces) and use :meth:`build_workload`, which
    routes through the on-disk workload cache when one is configured so
    the traces are generated at most once per campaign.
    """

    experiment_id: str
    scale: str
    seed: int = 0
    cache_dir: str | None = None

    def build_workload(self, spec: Any) -> Workload:
        """Materialize a :class:`~repro.analysis.WorkloadSpec`."""
        cache = WorkloadCache(self.cache_dir) if self.cache_dir else None
        return spec.build(cache)


#: set by :meth:`Campaign.run` around the reducer call so that
#: :class:`Reduction` construction can sanity-check the rows against the
#: campaign's failure count; ``None`` outside a campaign reduce step.
_ACTIVE_REDUCE: dict[str, Any] | None = None


@dataclass
class Reduction:
    """A reducer's distilled view of the campaign's records.

    ``text`` is optional when the campaign has a separate renderer;
    when both are present the renderer wins.

    Failed :class:`~repro.analysis.SweepRecord` s carry all-zero
    metrics, so a reducer that aggregates without filtering
    ``record.failed`` silently drags averages toward zero. When a
    campaign's reduce step constructs a :class:`Reduction` while failed
    records exist and the rows show no sign of having filtered them
    (no ``failed`` column, row count covering every record — or a row
    explicitly flagged failed), a once-per-experiment warning is
    emitted via :func:`repro.obs.log.warn_once`.
    """

    rows: list[dict[str, Any]]
    checks: dict[str, bool] = field(default_factory=dict)
    data: dict[str, Any] = field(default_factory=dict)
    text: str | None = None

    def __post_init__(self) -> None:
        ctx = _ACTIVE_REDUCE
        if not ctx or not ctx.get("failed"):
            return
        rows = self.rows or []
        unfiltered = any(row.get("failed") for row in rows) or (
            bool(rows)
            and not any("failed" in row for row in rows)
            and len(rows) >= ctx.get("total", 0)
        )
        if unfiltered:
            warn_once(
                log,
                (ctx.get("experiment_id"), "unfiltered-failed-records"),
                "experiment %r: %d of %d sweep records failed (their "
                "metrics are zeroed) and the reduction does not appear "
                "to filter record.failed — aggregates may silently "
                "include zeros",
                ctx.get("experiment_id"),
                ctx.get("failed"),
                ctx.get("total"),
            )


@dataclass(frozen=True)
class Campaign:
    """One declarative experiment: jobs builder -> reducer -> renderer.

    Use :meth:`sweep` for simulation-backed experiments and
    :meth:`local` for analytic/microbenchmark experiments with no sweep
    jobs.
    """

    experiment_id: str
    title: str
    build_jobs: Callable[[CampaignContext], Sequence[SweepJob]] | None = None
    reduce: Callable[[CampaignContext, list[SweepRecord]], Reduction] | None = None
    render: Callable[[CampaignContext, Reduction], str] | None = None
    compute: Callable[[CampaignContext], Reduction] | None = None

    @classmethod
    def sweep(
        cls,
        experiment_id: str,
        title: str,
        build_jobs: Callable[[CampaignContext], Sequence[SweepJob]],
        reduce: Callable[[CampaignContext, list[SweepRecord]], Reduction],
        render: Callable[[CampaignContext, Reduction], str] | None = None,
    ) -> "Campaign":
        """A campaign whose work is a sweep-job grid."""
        return cls(
            experiment_id=experiment_id,
            title=title,
            build_jobs=build_jobs,
            reduce=reduce,
            render=render,
        )

    @classmethod
    def local(
        cls,
        experiment_id: str,
        title: str,
        compute: Callable[[CampaignContext], Reduction],
        render: Callable[[CampaignContext, Reduction], str] | None = None,
    ) -> "Campaign":
        """A campaign with no simulation jobs (analytic experiments)."""
        return cls(
            experiment_id=experiment_id,
            title=title,
            compute=compute,
            render=render,
        )

    def run(
        self,
        scale: str = "smoke",
        seed: int = 0,
        runner: SweepRunner | None = None,
    ) -> ExperimentOutput:
        """Build, execute and reduce the campaign on ``runner``.

        The runner decides how jobs run (pool, store, retries, shard)
        and which telemetry sink they report to; ``None`` means a
        default :class:`~repro.analysis.SweepRunner`.
        """
        runner = runner if runner is not None else SweepRunner()
        ctx = CampaignContext(
            experiment_id=self.experiment_id,
            scale=require_scale(scale),
            seed=seed,
            cache_dir=runner.cache_dir,
        )
        drain_only = False
        if self.build_jobs is not None:
            if self.reduce is None:
                raise TypeError(
                    f"campaign {self.experiment_id!r} has jobs but no reducer"
                )
            # Keep the campaign registry active across the reduce step
            # so its wall time lands in the phase profile too; the
            # runner installs/restores the same registry internally.
            tele = runner.telemetry
            previous_registry = (
                set_active_registry(tele.registry) if tele is not None else None
            )
            global _ACTIVE_REDUCE
            try:
                records = runner.run(
                    list(self.build_jobs(ctx)),
                    label=self.experiment_id,
                    # Stored in the campaign checkpoint so a resuming
                    # process (repro run --resume <id>) can re-derive
                    # the invocation with no further arguments.
                    meta={
                        "experiment_id": self.experiment_id,
                        "scale": ctx.scale,
                        "seed": ctx.seed,
                    },
                )
                shard = (
                    runner.last_campaign.shard
                    if runner.last_campaign is not None
                    else ""
                )
                if shard:
                    # A shard run holds only its partition's records —
                    # never enough for a reducer. Drain into the shared
                    # store; the final unsharded pass replays the full
                    # campaign and reduces.
                    drain_only = True
                    reduction = Reduction(
                        rows=[],
                        text=(
                            f"shard {shard}: drained {len(records)} "
                            "record(s) into the shared store; re-run "
                            "unsharded to reduce and render"
                        ),
                    )
                else:
                    _ACTIVE_REDUCE = {
                        "experiment_id": self.experiment_id,
                        "failed": sum(1 for r in records if r.failed),
                        "total": len(records),
                    }
                    try:
                        with phase("reduce"):
                            reduction = self.reduce(ctx, records)
                    finally:
                        _ACTIVE_REDUCE = None
            finally:
                if tele is not None:
                    set_active_registry(previous_registry)
                    tele.flush()
            stats = runner.last_campaign or CampaignStats()
        elif self.compute is not None:
            reduction = self.compute(ctx)
            stats = CampaignStats()
        else:
            raise TypeError(
                f"campaign {self.experiment_id!r} defines neither jobs nor compute"
            )
        if drain_only:
            text = reduction.text or ""
        elif self.render is not None:
            text = self.render(ctx, reduction)
        elif reduction.text is not None:
            text = reduction.text
        else:
            raise TypeError(
                f"campaign {self.experiment_id!r} produced no text and has "
                "no renderer"
            )
        data = dict(reduction.data)
        data["campaign"] = stats
        return ExperimentOutput(
            experiment_id=self.experiment_id,
            title=self.title,
            scale=ctx.scale,
            rows=reduction.rows,
            text=text,
            checks=reduction.checks,
            data=data,
        )


@dataclass(frozen=True)
class Composite:
    """An experiment read off other registry experiments' outputs.

    ``panels`` are the registry ids it needs; ``combine`` turns their
    outputs, in ``panels`` order, into this experiment's output. The
    registry produces each panel once per invocation, so a composite
    and its panels run in one ``repro run`` share one simulation.
    """

    panels: tuple[str, ...]
    combine: Callable[[Sequence[ExperimentOutput]], ExperimentOutput]


def panel_composite(
    experiment_id: str, title: str, panels: Mapping[str, str]
) -> Composite:
    """A composite that concatenates its panels (label -> registry id).

    Rows and rendered reports are concatenated in panel order, check
    names are prefixed with the panel label, and campaign telemetry is
    merged so the composite's manifest still reports total jobs and
    cache hits across every panel.
    """
    labels = tuple(panels)

    def combine(outputs: Sequence[ExperimentOutput]) -> ExperimentOutput:
        checks: dict[str, bool] = {}
        for label, out in zip(labels, outputs):
            checks.update({f"{label}_{name}": ok for name, ok in out.checks.items()})
        return ExperimentOutput(
            experiment_id=experiment_id,
            title=title,
            scale=outputs[0].scale,
            rows=[row for out in outputs for row in out.rows],
            text="\n\n".join(out.render() for out in outputs),
            checks=checks,
            data={
                **{out.experiment_id: out.data for out in outputs},
                "campaign": merge_campaign_stats([out.campaign for out in outputs]),
            },
        )

    return Composite(tuple(panels.values()), combine)


def merge_campaign_stats(
    parts: Sequence[CampaignStats | None],
) -> CampaignStats:
    """Combine per-panel telemetry into one composite-experiment view."""
    merged = CampaignStats()
    for stats in parts:
        if stats is None:
            continue
        merged.total_jobs += stats.total_jobs
        merged.cache_hits += stats.cache_hits
        merged.simulated += stats.simulated
        merged.failed += stats.failed
        merged.retried += stats.retried
        merged.recovered += stats.recovered
        merged.pool_rebuilds += stats.pool_rebuilds
        merged.resumed += stats.resumed
        merged.skipped += stats.skipped
        merged.wall_time_s += stats.wall_time_s
        merged.sim_time_s += stats.sim_time_s
        for key, group in stats.by_group.items():
            target = merged.by_group.setdefault(
                key, {"jobs": 0, "cached": 0, "failed": 0, "sim_wall_s": 0.0}
            )
            target["jobs"] += group["jobs"]
            target["cached"] += group["cached"]
            target["failed"] += group.get("failed", 0)
            target["sim_wall_s"] += group["sim_wall_s"]
    return merged


def _campaign_manifest(out: ExperimentOutput, seed: int | None) -> dict[str, Any]:
    stats = out.campaign
    manifest: dict[str, Any] = {
        "schema": CAMPAIGN_MANIFEST_SCHEMA,
        "created_at": datetime.now(timezone.utc).isoformat(),
        "experiment_id": out.experiment_id,
        "title": out.title,
        "scale": out.scale,
        "seed": seed,
        "engine": "reference",
        "engine_semantics_version": ENGINE_SEMANTICS_VERSION,
        "host": host_info(),
        # plain bool: numpy bools from vectorized reducers are not
        # JSON-serializable
        "checks": {name: bool(ok) for name, ok in out.checks.items()},
        "all_checks_pass": out.all_checks_pass,
        "row_count": len(out.rows),
    }
    if stats is not None:
        manifest["campaign"] = {
            "total_jobs": stats.total_jobs,
            "cache_hits": stats.cache_hits,
            "simulated": stats.simulated,
            "failed": stats.failed,
            "retried": stats.retried,
            "recovered": stats.recovered,
            "pool_rebuilds": stats.pool_rebuilds,
            # durable-campaign lineage: which store held the records,
            # under which campaign id, and whether any of this run's
            # work was inherited from a previous (killed) life
            "campaign_id": stats.campaign_id,
            "store": stats.store,
            "resumed": stats.resumed,
            "shard": stats.shard,
            "wall_time_s": round(stats.wall_time_s, 6),
            "sim_time_s": round(stats.sim_time_s, 6),
        }
    return manifest


def save_experiment_output(
    out: ExperimentOutput,
    base_dir: str | os.PathLike,
    seed: int | None = None,
) -> Path:
    """Persist one output under ``<base_dir>/<experiment_id>/``.

    Written artifacts: ``rows.csv`` (when the experiment has rows),
    ``report.txt`` (the rendered terminal report), ``checks.json``
    (shape-check outcomes), and ``manifest.json`` — provenance enough
    to audit a recorded number later: what ran, at what scale/seed, on
    which host, under which engine-semantics version, and how much of
    it replayed from the result cache.
    """
    from ..analysis.tables import write_csv

    target = Path(base_dir) / out.experiment_id
    target.mkdir(parents=True, exist_ok=True)
    if out.rows:
        write_csv(out.rows, target / "rows.csv")
    (target / "report.txt").write_text(out.render() + "\n", encoding="utf-8")
    stats = out.campaign
    (target / "checks.json").write_text(
        json.dumps(
            {
                "checks": {name: bool(ok) for name, ok in out.checks.items()},
                "all_checks_pass": bool(out.all_checks_pass),
                # Failed sweep jobs (keep_going mode) are a health
                # signal distinct from shape checks: the rows exist but
                # some of the data behind them is missing.
                "failed_jobs": stats.failed if stats is not None else 0,
                "retried_jobs": stats.retried if stats is not None else 0,
                "recovered_jobs": stats.recovered if stats is not None else 0,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    (target / "manifest.json").write_text(
        json.dumps(_campaign_manifest(out, seed), indent=2, sort_keys=True, default=str)
        + "\n",
        encoding="utf-8",
    )
    return target
