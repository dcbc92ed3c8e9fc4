"""Sweep harness, statistics, telemetry, and terminal rendering."""

from .asciiplot import line_plot, scatter_plot, sparkline
from .benchtrend import (
    BenchDiff,
    BenchEntry,
    compare as compare_bench,
    format_report as format_bench_report,
    load_baseline,
    load_bench_files,
    record as record_bench,
)
from .faults import (
    InjectedFault,
    maybe_inject_parent,
    parse_fault_plan,
    set_fault_plan,
)
from .report import markdown_table, render_report, write_report
from .stats import fairness_summary, group_records, ratio_series
from .sweep import (
    CampaignStats,
    JobTimeout,
    PayloadRequest,
    SweepError,
    SweepFailure,
    SweepJob,
    SweepPayload,
    SweepRecord,
    SweepRunner,
    WorkloadSpec,
    parse_shard,
    run_sweep,
    sweep_job_from_dict,
    sweep_job_to_dict,
)
from .tables import format_table, to_csv, write_csv
from .telemetry import (
    CampaignTelemetry,
    HeartbeatWriter,
    iter_campaign_events,
)

__all__ = [
    "BenchDiff",
    "BenchEntry",
    "CampaignTelemetry",
    "HeartbeatWriter",
    "compare_bench",
    "format_bench_report",
    "load_baseline",
    "load_bench_files",
    "record_bench",
    "iter_campaign_events",
    "CampaignStats",
    "InjectedFault",
    "maybe_inject_parent",
    "parse_shard",
    "sweep_job_from_dict",
    "sweep_job_to_dict",
    "JobTimeout",
    "PayloadRequest",
    "SweepError",
    "SweepFailure",
    "SweepJob",
    "SweepPayload",
    "SweepRecord",
    "SweepRunner",
    "WorkloadSpec",
    "parse_fault_plan",
    "run_sweep",
    "set_fault_plan",
    "format_table",
    "to_csv",
    "write_csv",
    "line_plot",
    "scatter_plot",
    "sparkline",
    "ratio_series",
    "group_records",
    "fairness_summary",
    "markdown_table",
    "render_report",
    "write_report",
]
