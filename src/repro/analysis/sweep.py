"""Parameter-sweep harness (paper section 1.2's experimental grid).

The paper varies: HBM size, trace source, core count, work
distribution, permutation scheme, remap period, channel count, and
queue policy. A sweep here is a list of :class:`SweepJob` s — each names
a workload *by generator spec* (kind, threads, seed, params) plus a
:class:`~repro.core.SimulationConfig` — executed across worker
processes. Jobs carry specs rather than trace arrays so that workers
regenerate (or cache-load) workloads locally instead of pickling
multi-megabyte traces through the pool; the disk cache is warmed in the
parent first so each expensive instrumented workload is generated
exactly once. An in-process campaign goes further and builds or loads
each distinct spec once, handing the same workload to every job that
names it.

Two further levers make repeated campaigns cheap:

* a persistent **result store** (:mod:`repro.store`):
  records are pure functions of (spec, config), so a re-run only
  simulates jobs never seen before (enabled whenever ``cache_dir`` is
  given; disable with ``result_cache=False``);
* **longest-job-first scheduling**: pool submissions are ordered by a
  crude cost hint so one straggler at the end of the job list no
  longer serializes the tail of the campaign.

Campaigns are also **fault-tolerant**: a worker exception, a job that
overruns its deadline, or an OOM-killed worker process must never abort
the sweep or discard finished work. Each job gets bounded retries with
exponential backoff; a job that exhausts them yields a *failed*
:class:`SweepRecord` carrying a structured :class:`SweepError` instead
of metrics (``keep_going`` mode, the default) or raises
:class:`SweepFailure` (``strict`` mode). A ``BrokenProcessPool`` — the
signature of a worker dying mid-job — rebuilds the pool and resubmits
only the jobs whose futures were lost; everything already finished was
stored incrementally (records and result-cache entries are written as
each future completes) and is never re-run. Failed records are never
written to the result cache. The whole path is exercised by the
deterministic fault-injection hooks in :mod:`repro.analysis.faults`.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
import traceback as traceback_mod
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..core import SimulationConfig, SimulationResult
from ..core.fastengine import default_engine, resolve_engine, simulate
from ..core.metrics import (
    histogram_from_json,
    histogram_percentile,
    histogram_to_json,
)
from ..obs.log import (
    begin_warning_capture,
    drain_captured_warnings,
    forward_warnings,
    get_logger,
)
from ..obs.manifest import MANIFEST_SCHEMA, host_info
from ..obs.metrics import (
    MetricsRegistry,
    phase,
    record_phase,
    set_active_registry,
)
from ..store import (
    CampaignCheckpoint,
    ResultStore,
    campaign_id_for,
    default_store_uri,
    open_store,
    sweep_result_key,
)
from ..store.dirstore import DirectoryStore
from ..traces import Workload, WorkloadCache, make_workload
from .faults import maybe_inject, maybe_inject_parent
from .telemetry import CampaignTelemetry, HeartbeatWriter, default_telemetry

__all__ = [
    "WorkloadSpec",
    "PayloadRequest",
    "SweepPayload",
    "SweepJob",
    "SweepRecord",
    "SweepError",
    "SweepFailure",
    "JobTimeout",
    "SweepRunner",
    "CampaignStats",
    "run_sweep",
    "set_result_cache_default",
    "set_execution_defaults",
    "parse_shard",
    "sweep_job_to_dict",
    "sweep_job_from_dict",
]

log = get_logger("sweep")


class JobTimeout(Exception):
    """A sweep job overran its per-job deadline."""


@dataclass(frozen=True)
class SweepError:
    """Structured description of why a sweep job failed.

    Attached to the failed job's :class:`SweepRecord` (``keep_going``
    mode) or carried by :class:`SweepFailure` (``strict`` mode), so a
    campaign post-mortem never depends on scraping logs.

    ``kind`` is one of:

    * ``"exception"`` — the job raised in the worker;
    * ``"timeout"`` — the job overran ``job_timeout`` seconds;
    * ``"worker-lost"`` — the worker process died (OOM-kill, signal)
      and the job could not be recovered within the pool-rebuild
      budget.
    """

    kind: str
    error_type: str
    message: str
    traceback: str = ""
    #: total attempts consumed (1 = failed on the first try, no retry)
    attempts: int = 1

    def describe(self) -> str:
        return (
            f"{self.kind}: {self.error_type}: {self.message} "
            f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


class SweepFailure(RuntimeError):
    """Raised in ``strict`` mode when a job permanently fails."""

    def __init__(self, job: "SweepJob", error: SweepError) -> None:
        super().__init__(
            f"sweep job tag={job.tag!r} "
            f"({job.workload.kind} x {job.config.arbitration}) failed: "
            f"{error.describe()}"
        )
        self.job = job
        self.error = error


@contextmanager
def _job_deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`JobTimeout` if the body runs longer than ``seconds``.

    On the main thread of a POSIX process — exactly what a pool worker
    is — uses ``SIGALRM`` (via ``setitimer``, so fractional seconds
    work), which interrupts the pure-Python tick loops that dominate
    job run time. Anywhere else (no ``SIGALRM``, or an embedder driving
    the runner from a helper thread) a daemon watchdog timer delivers
    :class:`JobTimeout` to the running thread with
    ``PyThreadState_SetAsyncExc``. The async exception lands at the
    next bytecode boundary, so Python-level loops are still
    interrupted, but one long C call (a ``sleep``, a giant numpy op)
    is not — a weaker guarantee than ``SIGALRM``, and strictly better
    than the deadline silently not existing.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    ):

        def _on_alarm(signum: int, frame: Any) -> None:
            raise JobTimeout(f"job exceeded its {seconds:g}s deadline")

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        return

    import ctypes

    target = threading.get_ident()
    fired = threading.Event()

    def _fire() -> None:
        fired.set()
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(target), ctypes.py_object(JobTimeout)
        )

    timer = threading.Timer(seconds, _fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    except JobTimeout:
        # the async exception arrives bare; normalize to SIGALRM's message
        raise JobTimeout(f"job exceeded its {seconds:g}s deadline") from None
    finally:
        timer.cancel()
        if fired.is_set():
            # The timer won the race against cancel(): clear any async
            # exception still pending so it cannot detonate in caller
            # code after the deadline scope has exited.
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(target), None
            )


#: how many times one campaign may rebuild a broken process pool before
#: declaring the still-lost jobs failed (guards against a fault that
#: kills every worker on every attempt)
_MAX_POOL_REBUILDS = 3

#: pause before the first retry of a failed job, doubled per attempt
_RETRY_BACKOFF_S = 0.05

#: process-wide execution-policy defaults; per-runner arguments override.
_UNSET = object()
_EXECUTION_DEFAULTS: dict[str, Any] = {
    "retries": 1,
    "job_timeout": None,
    "failure_mode": "keep_going",
    "shard": None,
}

_FAILURE_MODES = ("keep_going", "strict")


def parse_shard(value: Any) -> tuple[int, int] | None:
    """Normalize a shard designator to ``(index, count)``.

    Accepts ``None``/empty (no sharding), an ``"i/n"`` string (the CLI
    form, zero-based), or an ``(i, n)`` pair. ``n`` must be positive and
    ``0 <= i < n``; ``1`` shards (``"0/1"``) is explicitly allowed — it
    runs the whole campaign but still takes leases, which is how a
    single process joins a store other shards are draining.
    """
    if value is None or value == "":
        return None
    if isinstance(value, str):
        index_s, sep, count_s = value.partition("/")
        if not sep:
            raise ValueError(f"shard must look like 'i/n', got {value!r}")
        try:
            index, count = int(index_s), int(count_s)
        except ValueError:
            raise ValueError(f"shard must look like 'i/n', got {value!r}") from None
    else:
        index, count = value
        index, count = int(index), int(count)
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must satisfy 0 <= i < n, got {index}/{count}"
        )
    return index, count


def set_execution_defaults(
    retries: Any = _UNSET,
    job_timeout: Any = _UNSET,
    failure_mode: Any = _UNSET,
    shard: Any = _UNSET,
) -> dict[str, Any]:
    """Set process-wide fault-tolerance defaults; returns the old ones.

    Used by the CLI's ``--retries`` / ``--job-timeout`` / ``--strict`` /
    ``--shard`` flags (the experiment registry's
    ``(scale, processes, cache_dir, seed)`` signature has no room for
    them); individual :class:`SweepRunner` s can still override via
    constructor arguments. Every value is validated before any is
    stored, so a rejected call leaves the defaults as they were.
    Restore with ``set_execution_defaults(**previous)``.
    """
    updates: dict[str, Any] = {}
    if retries is not _UNSET:
        if retries is None or int(retries) < 0:
            raise ValueError(f"retries must be a non-negative int, got {retries!r}")
        updates["retries"] = int(retries)
    if job_timeout is not _UNSET:
        updates["job_timeout"] = (
            float(job_timeout) if job_timeout is not None else None
        )
    if failure_mode is not _UNSET:
        if failure_mode not in _FAILURE_MODES:
            raise ValueError(
                f"failure_mode must be one of {_FAILURE_MODES}, got {failure_mode!r}"
            )
        updates["failure_mode"] = failure_mode
    if shard is not _UNSET:
        updates["shard"] = parse_shard(shard)
    previous = dict(_EXECUTION_DEFAULTS)
    _EXECUTION_DEFAULTS.update(updates)
    return previous


@dataclass(frozen=True)
class WorkloadSpec:
    """Pickle-friendly recipe for a workload."""

    kind: str
    threads: int
    seed: int = 0
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, threads: int, seed: int = 0, **params: Any) -> "WorkloadSpec":
        return cls(kind, threads, seed, tuple(sorted(params.items())))

    def build(self, cache: WorkloadCache | None = None) -> Workload:
        params = dict(self.params)
        if cache is not None:
            return cache.get(self.kind, self.threads, seed=self.seed, **params)
        return make_workload(self.kind, self.threads, seed=self.seed, **params)

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}(threads={self.threads}, seed={self.seed}, {inner})"


@dataclass(frozen=True)
class PayloadRequest:
    """What extra data a job asks its record to carry beyond the metrics.

    A slim record (the default) holds scalar metrics only. A *fat*
    record additionally carries the requested payloads, which the
    result cache persists and replays like any other field:

    * ``response_histogram`` — the run's global response-time
      distribution plus per-thread summary statistics (the raw material
      of the paper's inconsistency/fairness analysis, Figures 4-5);
    * ``response_series`` — the exact per-thread response-time
      sequences (sets ``record_responses`` on the engine; memory-heavy,
      meant for small runs and tests);
    * ``probe_samples`` — a :class:`~repro.obs.TimelineProbe` attached
      at ``probe_stride``, its samples stored as flat dicts.

    The request is part of the result-cache key (see
    :func:`repro.store.sweep_result_key`), so slim and
    fat records of the same (spec, config) never collide; an empty
    request leaves the key unchanged from the slim-era format, keeping
    existing caches warm.
    """

    response_histogram: bool = False
    response_series: bool = False
    probe_samples: bool = False
    probe_stride: int = 1024

    def __bool__(self) -> bool:
        return self.response_histogram or self.response_series or self.probe_samples

    def to_dict(self) -> dict[str, Any]:
        """Canonical dict for cache-key hashing."""
        return {
            "response_histogram": self.response_histogram,
            "response_series": self.response_series,
            "probe_samples": self.probe_samples,
            # the stride changes what gets sampled, so it is part of
            # the key — but only when sampling is actually requested
            "probe_stride": self.probe_stride if self.probe_samples else None,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PayloadRequest":
        """Inverse of :meth:`to_dict` (checkpoint job round-trip)."""
        stride = data.get("probe_stride")
        return cls(
            response_histogram=bool(data.get("response_histogram", False)),
            response_series=bool(data.get("response_series", False)),
            probe_samples=bool(data.get("probe_samples", False)),
            probe_stride=int(stride) if stride else 1024,
        )


@dataclass(frozen=True)
class SweepPayload:
    """The payload data carried by a fat record (JSON round-trippable)."""

    #: global response-time distribution (``response -> count``)
    response_histogram: dict[int, int] | None = None
    #: per-thread summaries: thread, requests, hits, completion_tick,
    #: mean/std/max response
    thread_stats: tuple[dict[str, Any], ...] | None = None
    #: exact per-thread response-time sequences
    response_series: tuple[tuple[int, ...], ...] | None = None
    #: flat-dict probe samples (see ``ProbeSample.to_dict``)
    probe_samples: tuple[dict[str, Any], ...] | None = None
    probe_stride: int | None = None

    def response_percentile(self, fraction: float) -> int:
        """Percentile of the carried response distribution."""
        if self.response_histogram is None:
            raise ValueError("record does not carry a response histogram")
        return histogram_percentile(self.response_histogram, fraction)

    def to_json_dict(self) -> dict[str, Any]:
        """Encode for the result cache (histogram keys stringified)."""
        return {
            "response_histogram": (
                histogram_to_json(self.response_histogram)
                if self.response_histogram is not None
                else None
            ),
            "thread_stats": (
                list(self.thread_stats) if self.thread_stats is not None else None
            ),
            "response_series": (
                [list(series) for series in self.response_series]
                if self.response_series is not None
                else None
            ),
            "probe_samples": (
                list(self.probe_samples) if self.probe_samples is not None else None
            ),
            "probe_stride": self.probe_stride,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "SweepPayload":
        """Inverse of :meth:`to_json_dict`."""
        histogram = data.get("response_histogram")
        thread_stats = data.get("thread_stats")
        series = data.get("response_series")
        samples = data.get("probe_samples")
        return cls(
            response_histogram=(
                histogram_from_json(histogram) if histogram is not None else None
            ),
            thread_stats=(
                tuple(thread_stats) if thread_stats is not None else None
            ),
            response_series=(
                tuple(tuple(int(v) for v in s) for s in series)
                if series is not None
                else None
            ),
            probe_samples=tuple(samples) if samples is not None else None,
            probe_stride=data.get("probe_stride"),
        )

    @classmethod
    def from_result(
        cls,
        request: PayloadRequest,
        result: SimulationResult,
        probe: Any = None,
    ) -> "SweepPayload | None":
        """Extract the requested payloads from a finished simulation."""
        if not request:
            return None
        histogram = None
        thread_stats = None
        if request.response_histogram:
            histogram = dict(result.response_histogram)
            thread_stats = tuple(
                {
                    "thread": t.thread,
                    "requests": t.requests,
                    "hits": t.hits,
                    "completion_tick": t.completion_tick,
                    "mean_response": t.response.mean,
                    "std_response": t.response.std,
                    "max_response": t.response.max,
                }
                for t in result.thread_stats
            )
        series = None
        if request.response_series:
            if result.response_log is None:
                raise RuntimeError(
                    "engine did not record responses despite the payload request"
                )
            series = tuple(
                tuple(int(v) for v in log) for log in result.response_log
            )
        samples = None
        if request.probe_samples:
            samples = tuple(s.to_dict() for s in probe.samples) if probe else ()
        return cls(
            response_histogram=histogram,
            thread_stats=thread_stats,
            response_series=series,
            probe_samples=samples,
            probe_stride=request.probe_stride if request.probe_samples else None,
        )


@dataclass(frozen=True)
class SweepJob:
    """One simulation to run: a workload spec plus a config.

    ``payload`` requests extra record contents (response distributions,
    raw series, probe samples) — see :class:`PayloadRequest`.
    """

    workload: WorkloadSpec
    config: SimulationConfig
    tag: str = ""
    payload: PayloadRequest = PayloadRequest()


def sweep_job_to_dict(job: SweepJob) -> dict[str, Any]:
    """JSON-able encoding of one job, for campaign checkpoints.

    Carries everything needed to reconstruct the job in a process with
    no access to the code that built it, which is what lets
    ``repro run --resume <campaign-id>`` re-derive the exact job list
    from the store alone.
    """
    return {
        "tag": job.tag,
        "workload": {
            "kind": job.workload.kind,
            "threads": job.workload.threads,
            "seed": job.workload.seed,
            "params": [[k, v] for k, v in job.workload.params],
        },
        "config": job.config.to_dict(),
        "payload": job.payload.to_dict() if job.payload else None,
    }


def sweep_job_from_dict(data: Mapping[str, Any]) -> SweepJob:
    """Inverse of :func:`sweep_job_to_dict`.

    The reconstructed job hashes to the same result key as the
    original (tuples and lists JSON-collapse identically under
    :func:`repro.store.sweep_result_key`'s canonical encoding).
    """
    spec_data = data["workload"]
    spec = WorkloadSpec(
        kind=spec_data["kind"],
        threads=int(spec_data["threads"]),
        seed=int(spec_data.get("seed", 0)),
        params=tuple(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in spec_data.get("params", ())
        ),
    )
    payload_data = data.get("payload")
    return SweepJob(
        workload=spec,
        config=SimulationConfig.from_dict(data["config"]),
        tag=data.get("tag", ""),
        payload=(
            PayloadRequest.from_dict(payload_data)
            if payload_data
            else PayloadRequest()
        ),
    )


@dataclass(frozen=True)
class SweepRecord:
    """Flattened outcome of one job (CSV/table-friendly).

    ``cached`` distinguishes a replayed record from a fresh simulation:
    on a cache hit, ``wall_time_s`` still reports the *original* run's
    simulation time (the replay itself is near-free), so performance
    analysis of warm campaigns must filter on ``cached``.

    ``payload`` holds the extra data the job requested (response
    distributions, raw series, probe samples); ``None`` for slim jobs.

    ``error`` is set only on a *failed* record (``keep_going`` mode, job
    exhausted its retries): the metric fields are all zero and the
    record is never written to the result cache. Filter with
    :attr:`failed` before aggregating.

    ``ff_elided_fraction`` is the fraction of simulated ticks elided by
    quiescent-interval fast-forward — deterministic for a (spec,
    config), identical on every engine, and cached like any other
    metric.
    """

    job: SweepJob
    makespan: int
    mean_response: float
    inconsistency: float
    max_response: int
    hit_rate: float
    total_requests: int
    hits: int
    fetches: int
    evictions: int
    wall_time_s: float
    ff_elided_fraction: float = 0.0
    cached: bool = False
    payload: SweepPayload | None = None
    error: SweepError | None = None

    @property
    def misses(self) -> int:
        return self.total_requests - self.hits

    @property
    def failed(self) -> bool:
        return self.error is not None

    @classmethod
    def from_error(cls, job: SweepJob, error: SweepError) -> "SweepRecord":
        """A failed-job placeholder record (all metrics zero)."""
        return cls(
            job=job,
            makespan=0,
            mean_response=0.0,
            inconsistency=0.0,
            max_response=0,
            hit_rate=0.0,
            total_requests=0,
            hits=0,
            fetches=0,
            evictions=0,
            wall_time_s=0.0,
            error=error,
        )

    @classmethod
    def from_result(
        cls,
        job: SweepJob,
        result: SimulationResult,
        payload: SweepPayload | None = None,
    ) -> "SweepRecord":
        return cls(
            job=job,
            makespan=result.makespan,
            mean_response=result.mean_response,
            inconsistency=result.inconsistency,
            max_response=result.max_response,
            hit_rate=result.hit_rate,
            total_requests=result.total_requests,
            hits=result.hits,
            fetches=result.fetches,
            evictions=result.evictions,
            wall_time_s=result.wall_time_s,
            ff_elided_fraction=result.ff_elided_fraction,
            payload=payload,
        )

    def row(self) -> dict[str, Any]:
        """Flat dict for table rendering / CSV export."""
        cfg = self.job.config
        return {
            "tag": self.job.tag,
            "workload": self.job.workload.kind,
            "threads": self.job.workload.threads,
            "hbm_slots": cfg.hbm_slots,
            "channels": cfg.channels,
            "arbitration": cfg.arbitration,
            "replacement": cfg.replacement,
            "remap_period": cfg.remap_period,
            "makespan": self.makespan,
            "mean_response": round(self.mean_response, 3),
            "inconsistency": round(self.inconsistency, 3),
            "max_response": self.max_response,
            "hit_rate": round(self.hit_rate, 4),
            "requests": self.total_requests,
            "fetches": self.fetches,
            "evictions": self.evictions,
            "wall_time_s": round(self.wall_time_s, 6),
            "ff_elided_fraction": round(self.ff_elided_fraction, 4),
            "cached": self.cached,
            "failed": self.failed,
            "error": self.error.error_type if self.error is not None else "",
        }


# module-level worker state so ProcessPoolExecutor can pickle the worker
_WORKER_CACHE_DIR: str | None = None
_WORKER_ENGINE: str | None = None
#: heartbeat spool directory when the campaign collects telemetry
_WORKER_SPOOL_DIR: str | None = None


def _pool_init(
    cache_dir: str | None,
    engine: str | None = None,
    spool_dir: str | None = None,
    worker: bool = False,
) -> None:
    global _WORKER_CACHE_DIR, _WORKER_ENGINE, _WORKER_SPOOL_DIR
    _WORKER_CACHE_DIR = cache_dir
    _WORKER_ENGINE = engine
    _WORKER_SPOOL_DIR = spool_dir
    if worker:
        # Pool workers never log warnings directly: warn_once buffers
        # them and the parent re-emits with cross-worker dedup, so an
        # N-worker campaign prints each distinct warning once, not N
        # times. The sequential path (worker=False) logs normally.
        begin_warning_capture()


def _begin_collection(
    tag: str, attempt: int
) -> tuple[MetricsRegistry | None, MetricsRegistry | None, HeartbeatWriter | None]:
    """Install a fresh per-attempt registry + heartbeat (telemetry only).

    Returns ``(registry, previous_active, heartbeat)`` —
    ``(None, None, None)`` when the campaign collects no telemetry, so
    the job body pays nothing. The fresh registry makes the snapshot
    piggybacked on the outcome a pure *delta* for this attempt, which
    the parent merges; the heartbeat file reports liveness for jobs
    that outlast one heartbeat interval.
    """
    if _WORKER_SPOOL_DIR is None:
        return None, None, None
    registry = MetricsRegistry()
    previous = set_active_registry(registry)
    heartbeat = HeartbeatWriter(
        _WORKER_SPOOL_DIR, tag=tag, attempt=attempt, registry=registry
    ).start()
    return registry, previous, heartbeat


def _end_collection(
    registry: MetricsRegistry | None,
    previous: MetricsRegistry | None,
    heartbeat: HeartbeatWriter | None,
) -> None:
    if registry is None:
        return
    if heartbeat is not None:
        heartbeat.stop()
    set_active_registry(previous)


def _engine_config(job: SweepJob) -> tuple[SimulationConfig, Any]:
    """The config actually handed to the engine, plus any probe.

    Payload requests are satisfied by runtime-only switches: raw series
    need ``record_responses``; probe samples need a TimelineProbe
    attached. Neither changes simulation *results* (enforced by the
    differential tests in ``tests/test_obs.py``), so the record stays a
    pure function of (spec, config, payload request).
    """
    request = job.payload
    if not request:
        return job.config, None
    changes: dict[str, Any] = {}
    probe = None
    if request.response_series and not job.config.record_responses:
        changes["record_responses"] = True
    if request.probe_samples:
        from ..obs.probe import TimelineProbe

        probe = TimelineProbe()
        changes["probes"] = job.config.probes + (probe,)
        changes["probe_stride"] = request.probe_stride
    return (job.config.replace(**changes) if changes else job.config), probe


class _CampaignWorkloads:
    """The workloads of one in-process campaign, each spec built once.

    Every job that names a spec gets the same
    :class:`Workload`, built (or loaded from the on-disk cache) by the
    first of them. Use counts come from the pending job list, and the
    reference is dropped when the last job takes it, so a workload
    lives no longer than its jobs. Retries build afresh.
    """

    def __init__(
        self, specs: Iterable[WorkloadSpec], cache: WorkloadCache | None
    ) -> None:
        self._uses = Counter(specs)
        self._built: dict[WorkloadSpec, Workload] = {}
        self._cache = cache

    def take(self, spec: WorkloadSpec) -> Workload:
        uses = self._uses[spec] = self._uses[spec] - 1
        workload = self._built.pop(spec, None)
        if workload is None:
            workload = spec.build(self._cache)
        if uses > 0:
            self._built[spec] = workload
        return workload


def _build_workload(
    spec: WorkloadSpec, workloads: _CampaignWorkloads | None
) -> tuple[Workload, float]:
    """``spec``'s workload and the seconds spent getting it (also
    recorded as the ``workload_build`` phase): near zero when the
    campaign's ``workloads`` already hold it."""
    start = time.perf_counter()
    if workloads is not None:
        workload = workloads.take(spec)
    else:
        cache = WorkloadCache(_WORKER_CACHE_DIR) if _WORKER_CACHE_DIR else None
        workload = spec.build(cache)
    build_s = time.perf_counter() - start
    record_phase("workload_build", build_s)
    return workload, build_s


def _run_job(
    job: SweepJob,
    attempt: int = 1,
    timeout: float | None = None,
    workloads: _CampaignWorkloads | None = None,
) -> tuple[SweepRecord, dict[str, Any]] | SweepError:
    """Execute one job attempt; never raises for job-level failures.

    The workload comes from the in-process campaign's ``workloads``
    when given, and is built (or loaded from the worker's cache dir)
    otherwise.

    Returns ``(record, manifest)`` on success and a :class:`SweepError`
    on exception or deadline overrun, so the parent's retry logic is
    identical for the in-process and pool paths (a raised exception
    would lose the exact worker-side traceback across the pool
    boundary). A SIGKILLed worker obviously returns nothing; the parent
    observes that as ``BrokenProcessPool``.

    When the campaign collects telemetry, the attempt runs under a
    fresh metrics registry whose snapshot — plus any buffered
    ``warn_once`` output — piggybacks on the manifest under transient
    ``"metrics"`` / ``"warnings"`` keys. The parent pops both *before*
    the manifest reaches the result cache, so cache entries are byte
    identical with telemetry on or off.
    """
    registry, previous, heartbeat = _begin_collection(job.tag, attempt)
    try:
        try:
            with _job_deadline(timeout):
                maybe_inject(job.tag, attempt)
                workload, build_s = _build_workload(job.workload, workloads)
                # Dispatch through the engine selector: eligible (LRU,
                # protected, disjoint) jobs that fit in HBM take the
                # vectorized fast path, everything else runs on the
                # reference engine with identical results. The Workload
                # object is passed whole so its build-time attestation
                # replaces the per-dispatch disjointness scan.
                config, probe = _engine_config(job)
                result = simulate(workload, config, engine=_WORKER_ENGINE)
                payload = SweepPayload.from_result(job.payload, result, probe)
                record = SweepRecord.from_result(job, result, payload)
        except JobTimeout as exc:
            return SweepError(
                kind="timeout",
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback_mod.format_exc(),
                attempts=attempt,
            )
        except Exception as exc:
            return SweepError(
                kind="exception",
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=traceback_mod.format_exc(),
                attempts=attempt,
            )
        # Run manifest stored alongside the metrics in the result
        # cache, so a replayed record stays auditable: which engine
        # produced it, on what host, where the wall time went, and on
        # which attempt.
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "engine": resolve_engine(workload, config, _WORKER_ENGINE),
            "host": host_info(),
            "timings": {
                "workload_build_s": round(build_s, 6),
                "run_s": round(result.wall_time_s, 6),
            },
            "execution": {"attempt": attempt},
        }
        _attach_piggyback(manifest, registry)
        return record, manifest
    finally:
        _end_collection(registry, previous, heartbeat)


def _attach_piggyback(
    manifest: dict[str, Any], registry: MetricsRegistry | None
) -> None:
    """Ride the attempt's metric delta and buffered warnings back to the
    parent on the manifest (transient keys, popped before caching).

    Buffered warnings are drained only here — a failed attempt keeps
    them buffered, so they ride the worker's next successful outcome
    instead of being lost.
    """
    if registry is not None and registry:
        manifest["metrics"] = registry.snapshot()
    warnings = drain_captured_warnings()
    if warnings:
        manifest["warnings"] = warnings


#: SweepRecord fields persisted by the result cache as plain scalars
#: (the job is supplied by the caller on a hit; the payload has its own
#: JSON encoding; errors are excluded because failed records are never
#: cached — including the field would also invalidate every pre-error
#: cache entry via the all-fields-present check below).
_RESULT_FIELDS = tuple(
    f.name for f in fields(SweepRecord) if f.name not in ("job", "payload", "error")
)

#: spec params that scale simulated work, for the scheduling cost hint
_SIZE_PARAM_KEYS = ("n", "length", "repeats", "vertices", "iters")


def _record_payload(record: SweepRecord) -> dict[str, Any]:
    entry = {name: getattr(record, name) for name in _RESULT_FIELDS}
    if record.payload is not None:
        entry["payload"] = record.payload.to_json_dict()
    return entry


def _record_from_payload(job: SweepJob, payload: dict[str, Any]) -> SweepRecord | None:
    if not all(name in payload for name in _RESULT_FIELDS):
        return None  # written by an older schema; treat as a miss
    values = {name: payload[name] for name in _RESULT_FIELDS}
    if job.payload:
        # A fat job must replay a fat entry. The payload request is part
        # of the cache key, so a missing payload here means corruption
        # or a hand-edited entry — recompute rather than degrade.
        stored = payload.get("payload")
        if stored is None:
            return None
        values["payload"] = SweepPayload.from_json_dict(stored)
    # A replayed record is marked cached regardless of what was stored:
    # wall_time_s is the *original* simulation time, not this replay's.
    values["cached"] = True
    return SweepRecord(job=job, **values)


def _job_cost_hint(job: SweepJob) -> float:
    """Crude relative runtime estimate, used only to order pool submits.

    Longest-job-first keeps a big job from landing on a worker after
    the queue has drained; a wrong hint costs nothing but scheduling
    quality.
    """
    params = dict(job.workload.params)
    size = 1.0
    for key in _SIZE_PARAM_KEYS:
        value = params.get(key)
        if isinstance(value, (int, float)) and value > 1:
            size *= float(value)
    return job.workload.threads * size


@dataclass
class CampaignStats:
    """Telemetry for one :meth:`SweepRunner.run` invocation.

    ``wall_time_s`` is this campaign's wall clock; ``sim_time_s`` sums
    only *fresh* records' simulation time (cache hits replay the
    original ``wall_time_s``, which must not be double-counted — see
    :attr:`SweepRecord.cached`).

    The fault-tolerance counters:

    * ``failed`` — jobs that exhausted their retries and produced a
      failed record (``keep_going`` mode only; ``strict`` raises);
    * ``retried`` — individual retry attempts performed (a job that
      succeeded on its third attempt contributes 2);
    * ``recovered`` — in-flight jobs resubmitted after their worker
      process died (``BrokenProcessPool``);
    * ``pool_rebuilds`` — process-pool reconstructions this campaign.

    The campaign-durability counters (all zero/empty for a single-life,
    unsharded run, keeping its digest byte-identical to before):

    * ``resumed`` — cache hits that a previous life of *this* campaign
      had already marked done in the store frontier;
    * ``skipped`` — partition jobs another process held a live lease on
      (sharded runs only; they produce no record here);
    * ``shard`` — this process's ``"i/n"`` designator, if sharded;
    * ``campaign_id``/``store`` — durable identity for provenance.
    """

    total_jobs: int = 0
    cache_hits: int = 0
    simulated: int = 0
    failed: int = 0
    retried: int = 0
    recovered: int = 0
    pool_rebuilds: int = 0
    resumed: int = 0
    skipped: int = 0
    shard: str = ""
    campaign_id: str = ""
    store: str = ""
    wall_time_s: float = 0.0
    sim_time_s: float = 0.0
    #: (workload kind, arbitration policy) ->
    #: {jobs, cached, failed, sim_wall_s}
    by_group: dict[tuple[str, str], dict[str, Any]] = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.total_jobs if self.total_jobs else 0.0

    @classmethod
    def collect(
        cls,
        records: Sequence["SweepRecord"],
        wall_time_s: float,
        retried: int = 0,
        recovered: int = 0,
        pool_rebuilds: int = 0,
        resumed: int = 0,
        skipped: int = 0,
        shard: str = "",
        campaign_id: str = "",
        store: str = "",
    ) -> "CampaignStats":
        stats = cls(
            total_jobs=len(records),
            wall_time_s=wall_time_s,
            retried=retried,
            recovered=recovered,
            pool_rebuilds=pool_rebuilds,
            resumed=resumed,
            skipped=skipped,
            shard=shard,
            campaign_id=campaign_id,
            store=store,
        )
        for record in records:
            key = (record.job.workload.kind, record.job.config.arbitration)
            group = stats.by_group.setdefault(
                key, {"jobs": 0, "cached": 0, "failed": 0, "sim_wall_s": 0.0}
            )
            group["jobs"] += 1
            if record.failed:
                stats.failed += 1
                group["failed"] += 1
            elif record.cached:
                stats.cache_hits += 1
                group["cached"] += 1
            else:
                stats.simulated += 1
                stats.sim_time_s += record.wall_time_s
                group["sim_wall_s"] += record.wall_time_s
        return stats

    def summary_table(self) -> str:
        """Wall-time-by-(kind, policy) campaign digest.

        The failure column and counters appear only when something
        actually failed or retried, so a healthy campaign's digest is
        unchanged from the pre-fault-tolerance format.
        """
        from .tables import format_table

        show_failures = bool(self.failed)
        rows: list[dict[str, Any]] = []
        for (kind, arb), group in sorted(self.by_group.items()):
            row = {
                "workload": kind,
                "arbitration": arb,
                "jobs": group["jobs"],
                "cached": group["cached"],
                "sim_wall_s": round(group["sim_wall_s"], 4),
            }
            if show_failures:
                row["failed"] = group.get("failed", 0)
            rows.append(row)
        total = {
            "workload": "TOTAL",
            "arbitration": "",
            "jobs": self.total_jobs,
            "cached": self.cache_hits,
            "sim_wall_s": round(self.sim_time_s, 4),
        }
        if show_failures:
            total["failed"] = self.failed
        rows.append(total)
        title = (
            f"campaign: {self.total_jobs} jobs, {self.cache_hits} cache hits "
            f"({self.cache_hit_rate:.0%}), wall {self.wall_time_s:.2f}s "
            f"(simulation {self.sim_time_s:.2f}s)"
        )
        if self.shard:
            title += f" [shard {self.shard}]"
        if self.resumed or self.skipped:
            title += f" [{self.resumed} resumed, {self.skipped} skipped]"
        if self.failed or self.retried or self.recovered:
            title += (
                f" [{self.failed} failed, {self.retried} retried, "
                f"{self.recovered} recovered, "
                f"{self.pool_rebuilds} pool rebuilds]"
            )
        return format_table(rows, title=title)


_RESULT_CACHE_DEFAULT = True


def set_result_cache_default(enabled: bool) -> bool:
    """Set the process-wide result-cache default; returns the old value.

    Used by the CLI's ``--no-result-cache`` flag; individual runners can
    still override via their ``result_cache`` argument.
    """
    global _RESULT_CACHE_DEFAULT
    previous = _RESULT_CACHE_DEFAULT
    _RESULT_CACHE_DEFAULT = bool(enabled)
    return previous


class SweepRunner:
    """Executes sweep jobs, optionally across a process pool.

    ``processes=None`` picks ``os.cpu_count()``; ``processes<=1`` runs
    sequentially in-process (useful under pytest and for debugging).

    ``engine`` selects the simulator per job (``"auto"`` /
    ``"reference"`` / ``"fast"``; ``None`` uses the process default from
    :func:`repro.core.fastengine.set_default_engine`).

    When ``cache_dir`` is given and ``result_cache`` is enabled (the
    default, see :func:`set_result_cache_default`), finished records
    are persisted under ``<cache_dir>/results/`` and re-running a job
    list replays hits from disk without touching any engine.

    Campaign telemetry flows through the ``repro.sweep`` logger (INFO:
    start/summary, DEBUG: per-job completions) and the
    :class:`CampaignStats` left in :attr:`last_campaign` after each
    :meth:`run`.

    Fault tolerance (defaults from :func:`set_execution_defaults`):

    ``retries``
        Retry attempts per job after its first failure (exponential
        backoff starting at 0.05 s).
    ``job_timeout``
        Per-attempt deadline in seconds (``None``/``<=0`` disables);
        an overrun fails the attempt with a ``"timeout"`` error.
    ``failure_mode``
        ``"keep_going"`` (default) turns a permanently failed job into
        a failed :class:`SweepRecord` and finishes the campaign;
        ``"strict"`` raises :class:`SweepFailure` at the first
        permanent failure (records stored so far stay in the result
        cache, so a fixed re-run only repeats the unfinished jobs).

    A dead worker process (``BrokenProcessPool``) never aborts the
    campaign: the pool is rebuilt and only the jobs whose futures were
    lost are resubmitted, up to three times per campaign.

    Every cache-miss job runs as its own attempt through
    :func:`_run_job`, in process or in a pool worker, and the engine
    dispatch rule (:func:`repro.core.resolve_engine`) picks its engine.
    """

    def __init__(
        self,
        processes: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        engine: str | None = None,
        result_cache: bool | None = None,
        retries: int | None = None,
        job_timeout: float | None = None,
        failure_mode: str | None = None,
        telemetry: CampaignTelemetry | None = None,
        store: "ResultStore | str | None" = None,
        shard: str | tuple[int, int] | None = None,
    ) -> None:
        self.processes = processes if processes is not None else (os.cpu_count() or 1)
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.engine = engine if engine is not None else default_engine()
        self.result_cache = (
            result_cache if result_cache is not None else _RESULT_CACHE_DEFAULT
        )
        #: explicit result-store target (instance or URI); ``None``
        #: resolves ``--store``/``REPRO_STORE``, then ``cache_dir``
        self.store = store
        self.shard = parse_shard(
            shard if shard is not None else _EXECUTION_DEFAULTS["shard"]
        )
        defaults = _EXECUTION_DEFAULTS
        self.retries = int(retries) if retries is not None else defaults["retries"]
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        self.job_timeout = (
            float(job_timeout) if job_timeout is not None else defaults["job_timeout"]
        )
        self.failure_mode = (
            failure_mode if failure_mode is not None else defaults["failure_mode"]
        )
        if self.failure_mode not in _FAILURE_MODES:
            raise ValueError(
                f"failure_mode must be one of {_FAILURE_MODES}, "
                f"got {self.failure_mode!r}"
            )
        #: explicit telemetry sink; ``None`` resolves the process-wide
        #: default (see :func:`repro.analysis.telemetry.default_telemetry`)
        #: at each :meth:`run`
        self.telemetry = telemetry
        #: the sink actually driving the campaign in flight (internal)
        self._tele: CampaignTelemetry | None = None
        #: telemetry from the most recent :meth:`run`
        self.last_campaign: CampaignStats | None = None

    def prepare(self, jobs: Sequence[SweepJob]) -> None:
        """Warm the workload cache: generate each distinct spec once."""
        if self.cache_dir is None:
            return
        cache = WorkloadCache(self.cache_dir)
        specs = dict.fromkeys(job.workload for job in jobs)
        log.debug("warming workload cache: %d distinct specs", len(specs))
        for spec in specs:
            spec.build(cache)

    def _open_store(self) -> ResultStore | None:
        """Resolve the result store this campaign runs against.

        Order: the runner's explicit ``store`` argument, then the
        process default URI (CLI ``--store`` / ``REPRO_STORE``), then
        the historical ``<cache_dir>/results`` directory backend.
        ``result_cache=False`` disables all of it.
        """
        if not self.result_cache:
            return None
        if self.store is not None:
            return open_store(self.store)
        uri = default_store_uri()
        if uri is not None:
            return open_store(uri)
        if self.cache_dir is None:
            return None
        return DirectoryStore(Path(self.cache_dir) / "results")

    def run(
        self,
        jobs: Sequence[SweepJob],
        label: str = "",
        meta: Mapping[str, Any] | None = None,
    ) -> list[SweepRecord]:
        """Execute ``jobs``, returning one record per job.

        ``meta`` is stored in the campaign checkpoint for resuming
        processes (the CLI records the experiment id, scale, and seed
        there).

        In shard mode the returned list covers only this shard's
        partition of the job list (plus none of the jobs another live
        process holds a lease on); an unsharded run always returns all
        jobs, in job-list order.
        """
        if not jobs:
            self.last_campaign = CampaignStats()
            return []
        tele = self.telemetry if self.telemetry is not None else default_telemetry()
        self._tele = tele
        # The campaign registry doubles as the parent's active phase
        # sink: the runner's cache_probe phase and — on the
        # sequential path — engine phases record straight into it.
        previous_registry = (
            set_active_registry(tele.registry) if tele is not None else None
        )
        try:
            return self._run_campaign(jobs, label, tele, meta)
        finally:
            if tele is not None:
                set_active_registry(previous_registry)
            self._tele = None

    def _run_campaign(
        self,
        jobs: Sequence[SweepJob],
        label: str,
        tele: CampaignTelemetry | None,
        meta: Mapping[str, Any] | None = None,
    ) -> list[SweepRecord]:
        campaign_start = time.perf_counter()
        cache = self._open_store()
        shard = self.shard
        if shard is not None and cache is None:
            raise ValueError(
                "sharded execution needs a result store: give the runner "
                "a store/cache_dir (or unset shard)"
            )
        records: list[SweepRecord | None] = [None] * len(jobs)
        keys: list[str | None] = [None] * len(jobs)
        pending: list[int] = []
        with phase("cache_probe"):
            if cache is not None:
                for idx, job in enumerate(jobs):
                    keys[idx] = sweep_result_key(
                        job.workload, job.config, job.payload
                    )
                found = cache.get_many(keys)  # type: ignore[arg-type]
                for idx, job in enumerate(jobs):
                    payload = found.get(keys[idx])
                    if payload is not None:
                        record = _record_from_payload(job, payload)
                        if record is not None:
                            records[idx] = record
                            continue
                    pending.append(idx)
            else:
                pending = list(range(len(jobs)))

        # -- campaign identity, frontier, and shard claiming ------------
        # With a store, every campaign is durable: a write-once manifest
        # pins the job list and an append-only frontier records each
        # completed key, so a killed parent resumes and N shards
        # coordinate. campaign_id stays "" when there is no store, which
        # disables all of it.
        campaign_id = ""
        prior_done: set[str] = set()
        resumed = 0
        skipped = 0
        if cache is not None:
            campaign_id = campaign_id_for(label or "sweep", keys)  # type: ignore[arg-type]
            existing = cache.load_checkpoint(campaign_id)
            if existing is not None and existing.job_keys != set(keys):
                log.warning(
                    "campaign %s exists with a different job set; "
                    "running without checkpointing",
                    campaign_id,
                )
                campaign_id = ""
            else:
                if existing is None:
                    cache.save_checkpoint(
                        CampaignCheckpoint(
                            campaign_id=campaign_id,
                            label=label or "sweep",
                            created_at=time.strftime(
                                "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
                            ),
                            jobs=tuple(
                                {**sweep_job_to_dict(job), "key": keys[idx]}
                                for idx, job in enumerate(jobs)
                            ),
                            meta=dict(meta or {}),
                        )
                    )
                else:
                    prior_done = cache.done_keys(campaign_id) & set(keys)

        visible = (
            [
                idx
                for idx in range(len(jobs))
                if int(keys[idx], 16) % shard[1] == shard[0]  # type: ignore[index]
            ]
            if shard is not None
            else list(range(len(jobs)))
        )
        if shard is not None:
            mine = set(visible)
            claimed: list[int] = []
            for idx in pending:
                if idx not in mine:
                    continue
                # A done-but-cache-missed key (entry cleared or
                # quarantined after the frontier recorded it) must still
                # re-run; claim() refuses done keys, so bypass the lease
                # — a duplicate simulation is harmless, a hole is not.
                if keys[idx] in prior_done or cache.claim(campaign_id, keys[idx]):
                    claimed.append(idx)
                else:
                    skipped += 1
            pending = claimed
        # A *resumed* hit is one a previous life of this campaign marked
        # done while work was still pending; a re-run of a campaign that
        # already completed is a plain replay (resumed stays 0), keeping
        # warm-run digests identical to the pre-checkpoint format.
        if prior_done and not prior_done >= {keys[idx] for idx in visible}:
            resumed = sum(
                1
                for idx in visible
                if records[idx] is not None and keys[idx] in prior_done
            )
        if campaign_id:
            # Record replayed hits in the frontier too, so a later kill
            # -and-resume of this life knows they need no re-simulation.
            for idx in visible:
                if records[idx] is not None and keys[idx] not in prior_done:
                    cache.mark_done(campaign_id, keys[idx])

        hits = sum(1 for idx in visible if records[idx] is not None)
        shard_str = f"{shard[0]}/{shard[1]}" if shard is not None else ""
        if tele is not None:
            tele.campaign_start(
                label or "sweep",
                total=len(visible),
                cache_hits=hits,
                pending=len(pending),
                engine=self.engine,
                processes=self.processes,
                resumed=resumed,
                shard=shard_str,
            )
        log.info(
            "campaign start: %d jobs (%d cache hits, %d to simulate) "
            "engine=%s processes=%d cache=%s",
            len(visible),
            hits,
            len(pending),
            self.engine,
            self.processes,
            "off" if cache is None else "on",
        )
        if campaign_id and (resumed or shard is not None):
            log.info(
                "campaign %s on %s: resumed=%d shard=%s skipped=%d",
                campaign_id,
                cache.describe(),
                resumed,
                shard_str or "-",
                skipped,
            )
        if cache is not None and log.isEnabledFor(10):  # DEBUG
            cache_stats = cache.stats()
            log.debug(
                "result store %s: %d entries, %d bytes",
                cache.describe(),
                cache_stats["entries"],
                cache_stats["bytes"],
            )

        def _store(idx: int, record: SweepRecord, manifest: dict[str, Any]) -> None:
            # The piggybacked telemetry rides transient manifest keys;
            # pop them unconditionally and BEFORE the cache write, so a
            # cache entry is byte-identical with telemetry on or off
            # (and identical to the pre-telemetry entry format).
            worker_metrics = manifest.pop("metrics", None)
            forwarded = forward_warnings(manifest.pop("warnings", []))
            records[idx] = record
            # Failed records never reach the cache: a later fault-free
            # run must re-simulate them, not replay the failure.
            if (
                cache is not None
                and keys[idx] is not None
                and not record.failed
            ):
                cache.put(
                    keys[idx], {**_record_payload(record), "manifest": manifest}
                )
                if campaign_id:
                    cache.mark_done(campaign_id, keys[idx])
                    if shard is not None:
                        cache.release(campaign_id, keys[idx])
            if tele is not None:
                tele.job_done(record, worker_metrics, forwarded)
            # Fault-injection point: the parent dies only after the
            # record is durably stored and marked done, which is the
            # contract resume relies on (see docs/ROBUSTNESS.md).
            maybe_inject_parent(jobs[idx].tag)

        def _progress(done: int, idx: int, record: SweepRecord) -> None:
            job = jobs[idx]
            log.debug(
                "job %d/%d done: %s x %s/%s makespan=%d wall=%.3fs",
                done,
                len(pending),
                job.workload.kind,
                job.config.arbitration,
                job.config.replacement,
                record.makespan,
                record.wall_time_s,
            )

        #: retry attempts / lost-worker resubmissions / pool rebuilds
        counters = {"retried": 0, "recovered": 0, "rebuilds": 0}

        def _fail(idx: int, error: SweepError) -> None:
            job = jobs[idx]
            if self.failure_mode == "strict":
                raise SweepFailure(job, error)
            log.warning(
                "job failed permanently: tag=%r %s x %s/%s — %s",
                job.tag,
                job.workload.kind,
                job.config.arbitration,
                job.config.replacement,
                error.describe(),
            )
            records[idx] = SweepRecord.from_error(job, error)
            # Failed jobs are never marked done — a resume re-runs them
            # — and their lease is dropped so another shard's stale-
            # lease takeover isn't needed to retry.
            if campaign_id and shard is not None:
                cache.release(campaign_id, keys[idx])
            if tele is not None:
                tele.job_done(records[idx])

        if pending:
            if self.processes <= 1 or len(pending) == 1:
                self._run_sequential(
                    jobs, pending, _store, _progress, _fail, counters
                )
            else:
                self.prepare([jobs[idx] for idx in pending])
                # Longest-job-first: order submissions by the cost hint
                # so stragglers start early instead of serializing the
                # tail once the queue drains.
                order = sorted(
                    pending, key=lambda idx: _job_cost_hint(jobs[idx]), reverse=True
                )
                self._run_pool(jobs, order, _store, _progress, _fail, counters)

        # Unsharded, every visible slot is filled; in shard mode, jobs
        # another live process holds a lease on stay None and are
        # dropped (they are that process's records, not ours).
        out = [records[idx] for idx in visible if records[idx] is not None]
        stats = CampaignStats.collect(
            out,
            wall_time_s=time.perf_counter() - campaign_start,
            retried=counters["retried"],
            recovered=counters["recovered"],
            pool_rebuilds=counters["rebuilds"],
            resumed=resumed,
            skipped=skipped,
            shard=shard_str,
            campaign_id=campaign_id,
            store=cache.describe() if cache is not None else "",
        )
        self.last_campaign = stats
        if tele is not None:
            tele.campaign_end(stats)
        log.info("%s", stats.summary_table())
        return out

    def _backoff_s(self, attempt: int) -> float:
        """Delay before retrying after a failed ``attempt`` (1-based)."""
        return _RETRY_BACKOFF_S * (2 ** (attempt - 1))

    def _log_retry(self, job: SweepJob, error: SweepError, delay: float) -> None:
        log.warning(
            "job attempt %d/%d failed (tag=%r %s x %s): %s: %s — "
            "retrying in %.2fs",
            error.attempts,
            self.retries + 1,
            job.tag,
            job.workload.kind,
            job.config.arbitration,
            error.error_type,
            error.message,
            delay,
        )

    def _run_sequential(
        self,
        jobs: Sequence[SweepJob],
        pending: Sequence[int],
        _store: Any,
        _progress: Any,
        _fail: Any,
        counters: dict[str, int],
    ) -> None:
        """In-process execution with the same retry semantics as the pool."""
        _pool_init(self.cache_dir, self.engine)
        workloads = _CampaignWorkloads(
            (jobs[idx].workload for idx in pending),
            WorkloadCache(self.cache_dir) if self.cache_dir else None,
        )
        max_attempts = self.retries + 1
        done = 0
        for idx in pending:
            attempt = 1
            outcome = _run_job(jobs[idx], attempt, self.job_timeout, workloads)
            # retries build their workload afresh
            while isinstance(outcome, SweepError) and attempt < max_attempts:
                counters["retried"] += 1
                if self._tele is not None:
                    self._tele.job_retried()
                delay = self._backoff_s(attempt)
                self._log_retry(jobs[idx], outcome, delay)
                time.sleep(delay)
                attempt += 1
                outcome = _run_job(jobs[idx], attempt, self.job_timeout)
            if isinstance(outcome, SweepError):
                _fail(idx, outcome)
            else:
                record, manifest = outcome
                done += 1
                _store(idx, record, manifest)
                _progress(done, idx, record)

    def _make_pool(self, workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_pool_init,
            initargs=(
                self.cache_dir,
                self.engine,
                self._tele.spool_dir if self._tele is not None else None,
                True,
            ),
        )

    def _run_pool(
        self,
        jobs: Sequence[SweepJob],
        order: Sequence[int],
        _store: Any,
        _progress: Any,
        _fail: Any,
        counters: dict[str, int],
    ) -> None:
        """Pool execution loop with retries and broken-pool recovery.

        State: ``futures`` maps each in-flight future to the
        ``(job index, attempt)`` it runs; ``retry_heap`` holds
        ``(ready_time, index, attempt)`` for jobs waiting out their
        backoff. A ``BrokenProcessPool`` (worker OOM-killed or died on a
        signal) marks every unfinished future's job as *lost*, rebuilds
        the pool, and resubmits exactly those jobs — completed futures
        keep their results and are drained normally, and records already
        stored are untouched, so nothing finished is ever re-run.
        """
        workers = min(self.processes, len(order))
        max_attempts = self.retries + 1
        pool = self._make_pool(workers)
        futures: dict[Any, tuple[int, int]] = {}
        retry_heap: list[tuple[float, int, int]] = []
        done_count = 0
        lost: list[tuple[int, int]] = []

        def _submit(idx: int, attempt: int) -> None:
            try:
                future = pool.submit(_run_job, jobs[idx], attempt, self.job_timeout)
            except (BrokenProcessPool, RuntimeError):
                # Pool already broken (or shut down by breakage); the
                # rebuild pass below picks this job up with the rest.
                lost.append((idx, attempt))
            else:
                futures[future] = (idx, attempt)

        def _handle(idx: int, attempt: int, outcome: Any) -> None:
            nonlocal done_count
            if isinstance(outcome, SweepError):
                if attempt >= max_attempts:
                    _fail(idx, outcome)
                    return
                counters["retried"] += 1
                if self._tele is not None:
                    self._tele.job_retried()
                delay = self._backoff_s(attempt)
                self._log_retry(jobs[idx], outcome, delay)
                heapq.heappush(
                    retry_heap, (time.monotonic() + delay, idx, attempt + 1)
                )
            else:
                record, manifest = outcome
                done_count += 1
                _store(idx, record, manifest)
                _progress(done_count, idx, record)

        def _drain_broken_pool() -> None:
            """Sort surviving results from lost jobs after pool death."""
            nonlocal pool
            for future, (idx, attempt) in list(futures.items()):
                try:
                    # Completed futures keep their results even after
                    # the pool dies; unfinished ones are flagged
                    # broken by the executor almost immediately. The
                    # timeout is a belt-and-braces bound, not a wait
                    # we expect to consume.
                    outcome = future.result(timeout=60)
                except Exception:
                    lost.append((idx, attempt))
                else:
                    _handle(idx, attempt, outcome)
            futures.clear()
            pool.shutdown(wait=False)
            counters["rebuilds"] += 1
            if self._tele is not None:
                self._tele.pool_rebuilt()
            if counters["rebuilds"] > _MAX_POOL_REBUILDS:
                log.error(
                    "process pool died %d times; failing %d unrecovered jobs",
                    counters["rebuilds"],
                    len(lost),
                )
                for idx, attempt in lost:
                    _fail(
                        idx,
                        SweepError(
                            kind="worker-lost",
                            error_type="BrokenProcessPool",
                            message=(
                                "worker process died and the pool-rebuild "
                                f"budget ({_MAX_POOL_REBUILDS}) is exhausted"
                            ),
                            attempts=attempt,
                        ),
                    )
                lost.clear()
                return
            log.warning(
                "worker process died; rebuilding pool (%d/%d) and "
                "resubmitting %d lost jobs",
                counters["rebuilds"],
                _MAX_POOL_REBUILDS,
                len(lost),
            )
            pool = self._make_pool(workers)
            counters["recovered"] += len(lost)
            if self._tele is not None:
                self._tele.jobs_recovered(len(lost))
            # Bump the attempt so an attempt-gated kill fault (and any
            # real first-attempt-only crash) clears on resubmission;
            # repeated pool deaths are bounded by the rebuild budget
            # above, not the per-job retry budget.
            resubmit = [(idx, attempt + 1) for idx, attempt in lost]
            lost.clear()
            for idx, attempt in resubmit:
                _submit(idx, attempt)

        try:
            for idx in order:
                _submit(idx, 1)
            while futures or retry_heap or lost:
                if lost:
                    _drain_broken_pool()
                    continue
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, idx, attempt = heapq.heappop(retry_heap)
                    _submit(idx, attempt)
                if lost:
                    continue
                if not futures:
                    if retry_heap:
                        time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                    continue
                timeout = (
                    max(0.0, retry_heap[0][0] - time.monotonic())
                    if retry_heap
                    else None
                )
                finished, _ = wait(
                    set(futures), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in finished:
                    idx, attempt = futures.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        lost.append((idx, attempt))
                        broken = True
                        break
                    except Exception as exc:
                        # Result-transport failures (e.g. unpicklable
                        # payload) count against the job's retries.
                        outcome = SweepError(
                            kind="exception",
                            error_type=type(exc).__name__,
                            message=str(exc),
                            attempts=attempt,
                        )
                    _handle(idx, attempt, outcome)
                if broken:
                    _drain_broken_pool()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)


def run_sweep(
    jobs: Sequence[SweepJob],
    processes: int | None = None,
    cache_dir: str | os.PathLike | None = None,
    engine: str | None = None,
    result_cache: bool | None = None,
) -> list[SweepRecord]:
    """One-call sweep execution."""
    return SweepRunner(
        processes=processes,
        cache_dir=cache_dir,
        engine=engine,
        result_cache=result_cache,
    ).run(jobs)
