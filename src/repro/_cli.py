"""Command-line interface: ``python -m repro`` / ``hbm-repro``.

Subcommands
-----------
``list``
    Show the experiment registry (id + description).
``run <id> [...]``
    Run one or more experiments (or ``all``) and print their reports;
    optionally write CSV + text artifacts to an output directory.
``simulate``
    One-off simulation of a generated workload with chosen policies.
``workloads``
    List registered workload generators.
``profile``
    Locality characterization of a generated workload (reuse
    distances, Mattson miss-ratio curve, working sets) — the tool used
    to size HBM for the experiment regimes.
``trace``
    Run one workload with probes attached and export its timeline as
    Chrome ``trace_event`` JSON (opens in Perfetto), JSONL, and a run
    manifest, plus an ASCII rendering on the terminal. With ``--merge``
    it instead combines previously exported per-job traces into one
    multi-track document.
``bench``
    Bench-regression tracking: ``bench diff`` compares the current
    ``BENCH_*.json`` results against the committed
    ``benchmarks/baseline.json`` (non-zero exit on regression);
    ``bench record`` folds the current results into the baseline.
``cache``
    Inspect or clear the result store and workload cache:
    ``cache stats`` / ``cache clear``, scoped with ``--results-only``
    or ``--workloads-only``, against the ``--store`` directory.

Global ``-v/--verbose`` and ``-q/--quiet`` flags control the
``repro.*`` logger verbosity (default INFO; see :mod:`repro.obs.log`).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    CampaignTelemetry,
    SweepFailure,
    SweepRunner,
    parse_shard,
    sweep_job_from_dict,
    write_csv,
)
from .core import SimulationConfig, simulate
from .experiments import (
    EXPERIMENTS,
    experiment_ids,
    run_experiments,
    save_experiment_output,
)
from .obs import (
    TimelineProbe,
    ascii_timeline,
    configure_logging,
    write_chrome_trace,
    write_timeline_jsonl,
)
from .store import STORE_ENV, open_store, parse_store_uri, resolve_store_uri
from .traces import WorkloadCache, make_workload, workload_kinds

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hbm-repro",
        description=(
            "Reproduction of 'Automatic HBM Management: Models and "
            "Algorithms' (SPAA 2022)."
        ),
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="more logging (repeatable; -v enables DEBUG)",
    )
    parser.add_argument(
        "-q", "--quiet", action="count", default=0,
        help="less logging (repeatable; -q limits to warnings)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("workloads", help="list workload generators")

    run_p = sub.add_parser("run", help="run experiments by id")
    run_p.add_argument(
        "ids", nargs="*", default=[],
        help="experiment ids, or 'all' (omit with --resume)",
    )
    run_p.add_argument(
        "--scale", choices=("smoke", "paper"), default="smoke",
        help="experiment size preset (default: smoke)",
    )
    run_p.add_argument(
        "--processes", type=int, default=None,
        help="worker processes for sweeps (default: cpu count)",
    )
    run_p.add_argument(
        "--cache-dir", default=None, help="workload cache directory"
    )
    run_p.add_argument(
        "--output-dir", default=None,
        help="write <id>.csv and <id>.txt artifacts here",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--report", default=None, metavar="REPORT.md",
        help="also write a combined Markdown report to this path",
    )
    run_p.add_argument(
        "--save", nargs="?", const="results", default=None, metavar="DIR",
        help="persist each experiment to DIR/<id>/ (rows.csv, report.txt, "
        "checks.json, manifest.json with provenance and cache telemetry; "
        "default DIR: results)",
    )
    run_p.add_argument(
        "--no-strict", action="store_true",
        help="exit 0 even when shape checks fail (failures are still "
        "printed)",
    )
    run_p.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry attempts per failed sweep job (default: 1)",
    )
    run_p.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job deadline; an overrunning job fails the attempt "
        "(default: no deadline)",
    )
    run_p.add_argument(
        "--strict", dest="failure_mode", action="store_const",
        const="strict", default=None,
        help="abort the campaign on the first permanently failed sweep "
        "job (completed records stay in the result cache; default: "
        "record it as a failed record and finish the campaign)",
    )
    run_p.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write a Prometheus text-format metrics snapshot here "
        "(rewritten as the campaign progresses)",
    )
    run_p.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="append campaign progress events (JSONL) to PATH",
    )
    run_p.add_argument(
        "--progress-every", type=int, default=None, metavar="N",
        help="emit a campaign.progress event every N job completions "
        "(default: 1)",
    )
    run_p.add_argument(
        "--store", default=None, metavar="URI",
        help="result store directory as dir:PATH (or a bare path); "
        "overrides REPRO_STORE and the <cache-dir>/results default",
    )
    run_p.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only this shard of each campaign's job list (e.g. "
        "0/2, 1/2); point every shard at one shared --store",
    )
    run_p.add_argument(
        "--resume", default=None, metavar="CAMPAIGN_ID",
        help="resume a checkpointed campaign from the store: finished "
        "jobs are skipped, only the remainder is simulated",
    )
    run_p.add_argument(
        "--no-result-cache", action="store_true",
        help="recompute every sweep job even when a cached result "
        "exists under <cache-dir>/results/",
    )

    sim_p = sub.add_parser("simulate", help="run one ad-hoc simulation")
    sim_p.add_argument("workload", help="workload kind (see 'workloads')")
    sim_p.add_argument("--threads", type=int, default=8)
    sim_p.add_argument("--hbm-slots", type=int, required=True)
    sim_p.add_argument("--channels", type=int, default=1)
    sim_p.add_argument("--arbitration", default="fifo")
    sim_p.add_argument("--replacement", default="lru")
    sim_p.add_argument(
        "--remap-period", type=int, default=None,
        help="T in ticks for remapping schemes",
    )
    sim_p.add_argument(
        "--blacklist-threshold", type=int, default=None,
        help="consecutive grants before a thread is blacklisted "
        "(blacklist arbitration; default 4)",
    )
    sim_p.add_argument(
        "--blacklist-clear-interval", type=int, default=None,
        help="ticks between blacklist clears (blacklist arbitration; "
        "default 1000)",
    )
    sim_p.add_argument("--seed", type=int, default=0)
    sim_p.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload generator parameter (repeatable)",
    )
    sim_p.add_argument(
        "--probe", action="store_true",
        help="attach a timeline probe and print an ASCII timeline",
    )
    sim_p.add_argument(
        "--probe-stride", type=int, default=1, metavar="N",
        help="sample every N ticks when probing (default: 1)",
    )
    sim_p.add_argument(
        "--manifest", default=None, metavar="PATH",
        help="write a run manifest (JSON) to PATH",
    )

    trace_p = sub.add_parser(
        "trace",
        help="run a workload and export its timeline (Perfetto/JSONL)",
    )
    trace_p.add_argument(
        "workload", nargs="?", default=None,
        help="workload kind (see 'workloads'); omit with --merge",
    )
    trace_p.add_argument(
        "--merge", nargs="+", default=None, metavar="[NAME=]TRACE.json",
        help="instead of running a workload, combine previously "
        "exported Chrome traces into one multi-track trace; each track "
        "is named NAME when given, else from the sibling manifest.json "
        "(job tag / workload name) or the trace's own metadata",
    )
    trace_p.add_argument("--threads", type=int, default=8)
    trace_p.add_argument(
        "--hbm-slots", type=int, default=None,
        help="required unless --merge is used",
    )
    trace_p.add_argument("--channels", type=int, default=1)
    trace_p.add_argument("--arbitration", default="fifo")
    trace_p.add_argument("--replacement", default="lru")
    trace_p.add_argument(
        "--remap-period", type=int, default=None,
        help="T in ticks for remapping schemes",
    )
    trace_p.add_argument(
        "--blacklist-threshold", type=int, default=None,
        help="consecutive grants before a thread is blacklisted "
        "(blacklist arbitration; default 4)",
    )
    trace_p.add_argument(
        "--blacklist-clear-interval", type=int, default=None,
        help="ticks between blacklist clears (blacklist arbitration; "
        "default 1000)",
    )
    trace_p.add_argument("--seed", type=int, default=0)
    trace_p.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload generator parameter (repeatable)",
    )
    trace_p.add_argument(
        "--probe-stride", type=int, default=1, metavar="N",
        help="sample every N ticks (default: 1)",
    )
    trace_p.add_argument(
        "--output-dir", default=None, metavar="DIR",
        help="where to write trace.json / timeline.jsonl / manifest.json "
        "(default: trace-<workload>/)",
    )
    trace_p.add_argument(
        "--no-ascii", action="store_true",
        help="skip the terminal timeline rendering",
    )

    prof_p = sub.add_parser(
        "profile", help="locality characterization of a workload"
    )
    prof_p.add_argument("workload", help="workload kind (see 'workloads')")
    prof_p.add_argument("--threads", type=int, default=1)
    prof_p.add_argument("--seed", type=int, default=0)
    prof_p.add_argument(
        "--capacities", default="64,256,1024",
        help="comma-separated HBM sizes for the miss-ratio curve",
    )
    prof_p.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        help="workload generator parameter (repeatable)",
    )

    bench_p = sub.add_parser(
        "bench", help="bench-regression tracking (diff / record)"
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)
    for sub_name, sub_help in (
        ("diff", "compare current BENCH_*.json against the baseline "
         "(exit 4 on regression)"),
        ("record", "fold current BENCH_*.json into the baseline"),
    ):
        bp = bench_sub.add_parser(sub_name, help=sub_help)
        bp.add_argument(
            "--bench-dir", action="append", default=None, metavar="DIR",
            help="directory searched for BENCH_*.json (repeatable; "
            "default: current directory)",
        )
        bp.add_argument(
            "--baseline", default="benchmarks/baseline.json", metavar="PATH",
            help="baseline file (default: benchmarks/baseline.json)",
        )
    diff_p = bench_sub.choices["diff"]
    diff_p.add_argument(
        "--tolerance", type=float, default=0.25, metavar="FRACTION",
        help="allowed relative drop for gated speedup metrics "
        "(default: 0.25 = 25%%)",
    )

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the result store / workload cache"
    )
    cache_p.add_argument(
        "cache_command", choices=("stats", "clear"),
        help="'stats' prints entry counts and sizes; 'clear' empties",
    )
    cache_p.add_argument(
        "--cache-dir", default=None,
        help="cache directory: the workload cache and, unless --store or "
        "REPRO_STORE names one, the result store <cache-dir>/results",
    )
    cache_p.add_argument(
        "--store", default=None, metavar="URI",
        help="result store directory to target as dir:PATH (default: "
        "REPRO_STORE, else <cache-dir>/results)",
    )
    scope = cache_p.add_mutually_exclusive_group()
    scope.add_argument(
        "--results-only", action="store_true",
        help="touch only the simulation result store",
    )
    scope.add_argument(
        "--workloads-only", action="store_true",
        help="touch only the generated-workload cache",
    )
    return parser


def _parse_params(items: list[str]) -> dict:
    params = {}
    for item in items:
        if "=" not in item:
            raise SystemExit(f"--param expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        for cast in (int, float):
            try:
                params[key] = cast(raw)
                break
            except ValueError:
                continue
        else:
            if raw.lower() in ("true", "false"):
                params[key] = raw.lower() == "true"
            else:
                params[key] = raw
    return params


def _cmd_list() -> int:
    width = max(len(i) for i in experiment_ids())
    for experiment_id, (_, description) in EXPERIMENTS.items():
        print(f"{experiment_id.ljust(width)}  {description}")
    return 0


def _cmd_workloads() -> int:
    for kind in workload_kinds():
        print(kind)
    return 0


def _store_error(args: argparse.Namespace) -> str | None:
    """The store URI a command resolves, as ``bad --store: ...`` or
    ``bad REPRO_STORE: ...`` when it names no usable store, or None."""
    uri = resolve_store_uri(args.store, args.cache_dir)
    try:
        if uri is not None:
            parse_store_uri(uri)
    except ValueError as exc:
        return f"bad {'--store' if args.store else STORE_ENV}: {exc}"
    return None


def _run_args_error(args: argparse.Namespace) -> str | None:
    """The first invalid ``repro run`` value as ``bad --<flag>: ...``,
    or None. Checked before the runner is built, so a rejected command
    runs nothing and writes nothing."""
    if args.retries is not None and args.retries < 0:
        return f"bad --retries: must be >= 0, got {args.retries}"
    if args.progress_every is not None and args.progress_every < 1:
        return f"bad --progress-every: must be >= 1, got {args.progress_every}"
    if args.shard:
        try:
            parse_shard(args.shard)
        except ValueError as exc:
            return f"bad --shard: {exc}"
    return _store_error(args)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.resume is not None and args.ids:
        print(
            "--resume names its campaign in the checkpoint; drop the "
            "experiment ids",
            file=sys.stderr,
        )
        return 2
    if args.resume is None and not args.ids:
        print("run needs experiment ids (or --resume)", file=sys.stderr)
        return 2
    error = _run_args_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return 2
    ids = experiment_ids() if args.ids == ["all"] else args.ids
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        print(f"known: {experiment_ids()}", file=sys.stderr)
        return 2
    scale, seed, store, manifest = args.scale, args.seed, args.store, None
    if args.resume is not None:
        # A registered experiment resumes by running it again, with the
        # checkpoint's scale and seed, on the store the checkpoint was
        # found in: its deterministic campaign id skips every job in the
        # frontier. Any other campaign is swept from its manifest.
        found = _find_checkpoint(args)
        if found is None:
            return 2
        store, manifest = found
        meta = manifest.meta
        if meta.get("experiment_id") in EXPERIMENTS:
            ids = [meta["experiment_id"]]
            scale = str(meta.get("scale", scale))
            seed = int(meta.get("seed", seed))
            manifest = None
    output_dir = Path(args.output_dir) if args.output_dir else None
    if output_dir:
        output_dir.mkdir(parents=True, exist_ok=True)
    failed: list[str] = []
    outputs = []
    telemetry = (
        CampaignTelemetry(
            metrics_out=args.metrics_out,
            events_out=args.events_out,
            progress_every=args.progress_every or 1,
        )
        if args.metrics_out or args.events_out
        else None
    )
    try:
        # one runner for the invocation: every campaign shares its
        # store, fault policy and telemetry sink
        runner = SweepRunner(
            processes=args.processes,
            cache_dir=args.cache_dir,
            result_cache=not args.no_result_cache,
            retries=args.retries,
            job_timeout=args.job_timeout,
            failure_mode=args.failure_mode,
            telemetry=telemetry,
            store=store,
            shard=args.shard,
        )
        if manifest is not None:
            return _sweep_manifest(runner, manifest)
        produced = run_experiments(ids, scale, seed, runner)
        for experiment_id in ids:
            try:
                out = next(produced)
            except SweepFailure as exc:
                print(
                    f"campaign {experiment_id!r} aborted (--strict): {exc}",
                    file=sys.stderr,
                )
                return 3
            if args.save is not None:
                save_experiment_output(out, args.save, seed=seed)
            outputs.append(out)
            print(out.render())
            print()
            if output_dir:
                if out.rows:
                    write_csv(out.rows, output_dir / f"{experiment_id}.csv")
                (output_dir / f"{experiment_id}.txt").write_text(
                    out.render() + "\n", encoding="utf-8"
                )
            failed.extend(
                f"{experiment_id}:{name}" for name in out.failed_checks()
            )
    finally:
        if telemetry is not None:
            telemetry.close()
    if args.report:
        from .analysis import write_report

        write_report(
            outputs,
            args.report,
            title=f"hbm-repro experiment report (scale={scale})",
        )
    if failed:
        print(f"FAILED shape checks: {failed}", file=sys.stderr)
        if not args.no_strict:
            return 1
    return 0


def _find_checkpoint(args: argparse.Namespace):
    """The store and checkpoint ``run --resume`` names, or None after
    printing why there is none."""
    store = _open_command_store(args)
    if store is None:
        return None
    checkpoint = store.load_checkpoint(args.resume)
    if checkpoint is None:
        print(
            f"no campaign {args.resume!r} in {store.describe()}",
            file=sys.stderr,
        )
        known = store.list_campaigns()
        if known:
            print(f"known campaigns: {known}", file=sys.stderr)
        return None
    return store, checkpoint


def _sweep_manifest(runner: SweepRunner, checkpoint) -> int:
    """Finish a checkpointed campaign with no registered experiment by
    sweeping the jobs its manifest lists."""
    jobs = [sweep_job_from_dict(dict(j)) for j in checkpoint.jobs]
    try:
        records = runner.run(
            jobs, label=checkpoint.label, meta=dict(checkpoint.meta)
        )
    except SweepFailure as exc:
        print(
            f"campaign {checkpoint.campaign_id!r} aborted (--strict): {exc}",
            file=sys.stderr,
        )
        return 3
    stats = runner.last_campaign
    if stats is not None:
        print(stats.summary_table())
    print(f"{len(records)} record(s); store {runner.store.describe()}")
    return 0


def _open_command_store(args: argparse.Namespace):
    """The result store ``repro cache`` / ``run --resume`` act on, by
    the rule every campaign uses (:func:`repro.store.resolve_store_uri`),
    or None after printing why there is none."""
    error = _store_error(args)
    if error is not None:
        print(error, file=sys.stderr)
        return None
    uri = resolve_store_uri(args.store, args.cache_dir)
    if uri is None:
        print(
            "no result store: pass --cache-dir or --store, or set REPRO_STORE",
            file=sys.stderr,
        )
        return None
    return open_store(uri)


def _cmd_cache(args: argparse.Namespace) -> int:
    do_results = not args.workloads_only
    do_workloads = not args.results_only and args.cache_dir is not None
    if args.workloads_only and args.cache_dir is None:
        print("no workload cache: pass --cache-dir", file=sys.stderr)
        return 2
    status = 0
    if do_results:
        store = _open_command_store(args)
        if store is None:
            return 2
        if args.cache_command == "clear":
            removed = store.clear()
            print(f"results   {store.describe()}: cleared {removed}")
        else:
            stats = store.stats()
            corrupt = stats.get("corrupt", 0)
            note = f", {corrupt} corrupt" if corrupt else ""
            print(
                f"results   {store.describe()}: "
                f"{stats['entries']} entries, "
                f"{stats['bytes']} bytes{note}"
            )
    if do_workloads:
        workloads = WorkloadCache(args.cache_dir)
        if args.cache_command == "clear":
            removed = workloads.clear()
            print(f"workloads {workloads.directory}: cleared {removed}")
        else:
            stats = workloads.stats()
            note = f", {stats['corrupt']} corrupt" if stats["corrupt"] else ""
            print(
                f"workloads {workloads.directory}: "
                f"{stats['entries']} entries, {stats['bytes']} bytes{note}"
            )
    return status


def _blacklist_kwargs(args: argparse.Namespace) -> dict:
    """Blacklist knobs for SimulationConfig, only when explicitly set.

    Unset knobs are omitted (not passed as None) so ad-hoc configs
    serialize exactly like pre-knob configs and hit warm result caches.
    """
    kwargs = {}
    if args.blacklist_threshold is not None:
        kwargs["blacklist_threshold"] = args.blacklist_threshold
    if args.blacklist_clear_interval is not None:
        kwargs["blacklist_clear_interval"] = args.blacklist_clear_interval
    return kwargs


def _cmd_simulate(args: argparse.Namespace) -> int:
    params = _parse_params(args.param)
    workload = make_workload(
        args.workload, threads=args.threads, seed=args.seed, **params
    )
    probe = TimelineProbe() if args.probe else None
    config = SimulationConfig(
        hbm_slots=args.hbm_slots,
        channels=args.channels,
        arbitration=args.arbitration,
        replacement=args.replacement,
        remap_period=args.remap_period,
        seed=args.seed,
        probes=(probe,) if probe is not None else (),
        probe_stride=args.probe_stride,
        **_blacklist_kwargs(args),
    )
    print(workload)
    result = simulate(workload, config, manifest_path=args.manifest)
    print(result.summary())
    if args.verbose > 0:
        print(
            f"fast-forward    : {result.ff_intervals} intervals, "
            f"{result.ff_elided_ticks} ticks elided "
            f"({result.ff_elided_fraction:.1%} of {result.ticks} ticks)"
        )
    if probe is not None:
        print()
        print(ascii_timeline(probe))
    if args.manifest:
        print(f"\nmanifest: {args.manifest}")
    return 0


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    from .obs import merge_chrome_traces

    inputs: list[tuple[str, str | None]] = []
    for item in args.merge:
        # NAME=PATH names the track explicitly; a bare path derives the
        # name from the sibling manifest / trace metadata.
        if "=" in item and "/" not in item.split("=", 1)[0]:
            name, trace_path = item.split("=", 1)
            inputs.append((trace_path, name))
        else:
            inputs.append((item, None))
    missing = [p for p, _ in inputs if not Path(p).is_file()]
    if missing:
        print(f"trace files not found: {missing}", file=sys.stderr)
        return 2
    out_dir = Path(args.output_dir or "trace-merged")
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = merge_chrome_traces(inputs, out_dir / "trace.json")
    print(
        f"merged {len(inputs)} trace(s) into {out_path} "
        "(open at https://ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.merge is not None:
        if args.workload is not None:
            print(
                "trace --merge takes trace files, not a workload",
                file=sys.stderr,
            )
            return 2
        return _cmd_trace_merge(args)
    if args.workload is None or args.hbm_slots is None:
        print(
            "trace needs a workload and --hbm-slots (or --merge)",
            file=sys.stderr,
        )
        return 2
    params = _parse_params(args.param)
    workload = make_workload(
        args.workload, threads=args.threads, seed=args.seed, **params
    )
    probe = TimelineProbe()
    config = SimulationConfig(
        hbm_slots=args.hbm_slots,
        channels=args.channels,
        arbitration=args.arbitration,
        replacement=args.replacement,
        remap_period=args.remap_period,
        seed=args.seed,
        probes=(probe,),
        probe_stride=args.probe_stride,
        **_blacklist_kwargs(args),
    )
    out_dir = Path(args.output_dir or f"trace-{args.workload}")
    out_dir.mkdir(parents=True, exist_ok=True)
    print(workload)
    result = simulate(workload, config, manifest_path=out_dir / "manifest.json")
    run_name = f"{args.workload} x {args.arbitration}/{args.replacement}"
    trace_path = write_chrome_trace(
        probe, out_dir / "trace.json", name=run_name,
        metadata={"workload": args.workload},
    )
    jsonl_path = write_timeline_jsonl(probe, out_dir / "timeline.jsonl")
    print(result.summary())
    if not args.no_ascii:
        print()
        print(ascii_timeline(probe))
    print(
        f"\nwrote {trace_path} ({len(probe.samples)} samples; "
        "open at https://ui.perfetto.dev or chrome://tracing)"
    )
    print(f"wrote {jsonl_path}")
    print(f"wrote {out_dir / 'manifest.json'}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .analysis.benchtrend import (
        compare,
        format_report,
        load_baseline,
        load_bench_files,
        record,
    )

    search = args.bench_dir or ["."]
    current = load_bench_files(search)
    if args.bench_command == "record":
        if not current:
            print(f"no BENCH_*.json found in {search}", file=sys.stderr)
            return 2
        import time as _time

        stamp = _time.strftime("%Y-%m-%dT%H:%M:%SZ", _time.gmtime())
        record(current, args.baseline, updated=stamp)
        print(f"recorded {sorted(current)} into {args.baseline}")
        return 0
    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(
            f"no baseline at {args.baseline}; run 'bench record' (or "
            "scripts/bench_record.py) after a bench run to create one",
            file=sys.stderr,
        )
        return 2
    diff = compare(current, baseline, tolerance=args.tolerance)
    print(format_report(diff))
    if diff.regressions:
        for entry in diff.regressions:
            print(
                f"REGRESSION {entry.suite}.{entry.metric}: "
                f"{entry.baseline} -> {entry.current}",
                file=sys.stderr,
            )
        return 4
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .traces import characterize

    params = _parse_params(args.param)
    workload = make_workload(
        args.workload, threads=args.threads, seed=args.seed, **params
    )
    capacities = [int(c) for c in args.capacities.split(",") if c]
    print(workload)
    for i, trace in enumerate(workload.traces):
        profile = characterize(trace, capacities=capacities)
        print(f"\n-- thread {i} --")
        print(profile.summary())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(args.verbose - args.quiet)
    if args.command == "list":
        return _cmd_list()
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "cache":
        return _cmd_cache(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
