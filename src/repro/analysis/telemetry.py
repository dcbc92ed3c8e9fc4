"""Live campaign telemetry: metrics aggregation and the event stream.

:class:`CampaignTelemetry` is the parent-side sink the
:class:`~repro.analysis.SweepRunner` drives while a campaign executes.
It aggregates the per-job metric snapshots piggybacked on worker
outcomes (see :mod:`repro.obs.metrics`) into one live
:class:`~repro.obs.metrics.MetricsRegistry` and exposes the campaign
two ways:

* **JSONL event stream** (``events_out``): one ``campaign.start``
  event, a ``campaign.progress`` event every ``progress_every``
  completions (monotone ``done``, throughput, ETA, cache hit-rate,
  in-flight jobs from worker heartbeats), and one terminal
  ``campaign.end`` summary — append-only, so a service front-end can
  tail one file across many campaigns.
* **Prometheus snapshot** (``metrics_out``): the registry rendered in
  text exposition format, rewritten atomically on every progress event
  and at campaign end, ready for a node-exporter-style scrape.

Telemetry is strictly observational: enabling any output changes no
:class:`~repro.analysis.SweepRecord`, manifest, or result-cache entry
(differential-tested in ``tests/test_telemetry.py``).

Workers report liveness for long jobs through *heartbeat files*: one
small JSON file per worker pid under :attr:`CampaignTelemetry.spool_dir`,
rewritten every few seconds while a job runs. Files survive any worker
death, so the parent can always tell a stuck job from a dead worker.

One sink serves any number of sequential campaigns: the CLI's
``--metrics-out`` / ``--events-out`` / ``--progress-every`` flags build
one per ``repro run`` and hand it to the invocation's runner (so
``repro run all`` folds every experiment's campaign into one stream and
one registry).
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from ..obs.log import get_logger
from ..obs.metrics import MetricsRegistry, write_prom

__all__ = [
    "CampaignTelemetry",
    "HeartbeatWriter",
    "iter_campaign_events",
    "HEARTBEAT_INTERVAL_S",
]

log = get_logger("telemetry")

#: how often a worker rewrites its heartbeat file while a job runs
HEARTBEAT_INTERVAL_S = 5.0

#: event stream schema tag (bump on incompatible change).
#: v2 added the campaign-durability fields (``resumed``, ``shard``,
#: ``campaign_id``, ``store``) to start/end events.
EVENT_SCHEMA = "repro.campaign.events/v2"


def iter_campaign_events(path: str | os.PathLike) -> "Any":
    """Yield parsed events from a campaign JSONL stream.

    Blank and truncated lines are skipped (the stream is append-only
    and may be mid-write); an event with any schema tag but
    :data:`EVENT_SCHEMA` raises ``ValueError`` rather than being
    misread.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError:
                continue  # torn final line of a live stream
            schema = event.get("schema", "")
            if schema != EVENT_SCHEMA:
                raise ValueError(
                    f"unknown campaign event schema {schema!r} in {path}"
                )
            yield event


class HeartbeatWriter:
    """Worker-side liveness beacon for one job attempt.

    A daemon thread rewrites ``hb-<pid>.json`` in the campaign's spool
    directory every :data:`HEARTBEAT_INTERVAL_S` seconds while the job
    runs, carrying the job tag, attempt number, elapsed wall time, and
    a snapshot of the worker's in-progress metrics registry. The first
    write happens only after one full interval, so short jobs pay
    nothing but a thread start/stop. The parent reads these files for
    its in-flight view (:meth:`CampaignTelemetry.scan_inflight`) but
    never *merges* their metric snapshots — the authoritative snapshot
    rides on the job outcome, and merging a prefix of it would double
    count.
    """

    def __init__(
        self,
        spool_dir: str | os.PathLike,
        tag: str = "",
        attempt: int = 1,
        registry: MetricsRegistry | None = None,
        interval_s: float | None = None,
    ) -> None:
        self._path = Path(spool_dir) / f"hb-{os.getpid()}.json"
        self._tag = tag
        self._attempt = attempt
        self._registry = registry
        self._interval = (
            float(interval_s) if interval_s is not None else HEARTBEAT_INTERVAL_S
        )
        self._started = time.perf_counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-heartbeat", daemon=True
        )

    def start(self) -> "HeartbeatWriter":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._write()

    def _write(self) -> None:
        doc: dict[str, Any] = {
            "pid": os.getpid(),
            "tag": self._tag,
            "attempt": self._attempt,
            "elapsed_s": round(time.perf_counter() - self._started, 3),
            "ts": round(time.time(), 3),
        }
        if self._registry is not None and self._registry:
            doc["metrics"] = self._registry.snapshot()
        tmp = self._path.with_suffix(f".tmp{os.getpid()}")
        try:
            tmp.write_text(json.dumps(doc), encoding="utf-8")
            os.replace(tmp, self._path)
        except OSError:
            pass  # spool removed under us (campaign ending); never fatal

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=1.0)
        try:
            self._path.unlink(missing_ok=True)
        except OSError:
            pass


class CampaignTelemetry:
    """One telemetry sink, reusable across sequential campaigns."""

    def __init__(
        self,
        metrics_out: str | os.PathLike | None = None,
        events_out: str | os.PathLike | None = None,
        progress_every: int = 1,
    ) -> None:
        self.registry = MetricsRegistry()
        self.metrics_out = Path(metrics_out) if metrics_out is not None else None
        self.events_out = Path(events_out) if events_out is not None else None
        self.progress_every = max(1, int(progress_every))
        self._seq = 0
        self._spool_dir: Path | None = None
        # per-campaign state (reset by campaign_start)
        self._label = ""
        self._total = 0
        self._pending = 0
        self._done = 0
        self._failed = 0
        self._cache_hits = 0
        self._started = 0.0

    # -- heartbeat spool -----------------------------------------------

    @property
    def spool_dir(self) -> str:
        """Directory pool workers write heartbeat files into (created
        lazily; one per sink, removed by :meth:`close`)."""
        if self._spool_dir is None:
            self._spool_dir = Path(tempfile.mkdtemp(prefix="repro-telemetry-"))
        return str(self._spool_dir)

    def scan_inflight(self, max_age_s: float = 4 * HEARTBEAT_INTERVAL_S) -> list[dict]:
        """Recent worker heartbeats: ``[{pid, tag, elapsed_s, ...}]``.

        Stale files (no rewrite within ``max_age_s`` — the worker
        finished, moved on, or died) are ignored.
        """
        if self._spool_dir is None or not self._spool_dir.exists():
            return []
        now = time.time()
        beats: list[dict] = []
        for path in sorted(self._spool_dir.glob("hb-*.json")):
            try:
                if now - path.stat().st_mtime > max_age_s:
                    continue
                beats.append(json.loads(path.read_text(encoding="utf-8")))
            except (OSError, ValueError):
                continue  # mid-rewrite or already gone; never fatal
        return beats

    # -- event stream ---------------------------------------------------

    def _emit(self, event: str, payload: Mapping[str, Any]) -> None:
        self._seq += 1
        doc = {
            "schema": EVENT_SCHEMA,
            "event": event,
            "seq": self._seq,
            "ts": round(time.time(), 3),
            "campaign": self._label,
            **payload,
        }
        if self.events_out is None:
            return
        try:
            self.events_out.parent.mkdir(parents=True, exist_ok=True)
            with open(self.events_out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        except OSError as exc:
            log.warning("cannot append campaign event to %s: %s", self.events_out, exc)
            self.events_out = None  # stop retrying a broken path

    def _write_metrics(self) -> None:
        if self.metrics_out is None:
            return
        try:
            write_prom(self.registry, self.metrics_out)
        except OSError as exc:
            log.warning("cannot write metrics snapshot to %s: %s", self.metrics_out, exc)
            self.metrics_out = None

    # -- campaign lifecycle --------------------------------------------

    def campaign_start(
        self,
        label: str,
        total: int,
        cache_hits: int,
        pending: int,
        engine: str = "",
        processes: int = 0,
        resumed: int = 0,
        shard: str = "",
    ) -> None:
        self._label = label
        self._total = total
        self._pending = pending
        self._done = 0
        self._failed = 0
        self._cache_hits = cache_hits
        self._started = time.perf_counter()
        reg = self.registry
        jobs = reg.counter("repro_campaign_jobs_total", "campaign job outcomes")
        if cache_hits:
            jobs.inc(cache_hits, status="cached")
        reg.gauge(
            "repro_campaign_inflight_jobs", "jobs submitted but unfinished"
        ).set(0)
        # pre-declare the fault counters at 0 so a healthy campaign's
        # snapshot still exposes the series (scrapers can alert on
        # increase() without waiting for a first fault)
        reg.counter(
            "repro_campaign_retries_total", "individual job retry attempts"
        ).inc(0)
        reg.counter(
            "repro_campaign_recovered_total",
            "in-flight jobs resubmitted after a worker death",
        ).inc(0)
        reg.counter(
            "repro_campaign_pool_rebuilds_total", "process-pool reconstructions"
        ).inc(0)
        reg.counter(
            "repro_worker_warnings_total",
            "deduplicated warnings forwarded from pool workers",
        ).inc(0)
        self._update_rates()
        self._emit(
            "campaign.start",
            {
                "total": total,
                "cache_hits": cache_hits,
                "pending": pending,
                "engine": engine,
                "processes": processes,
                "resumed": resumed,
                "shard": shard,
            },
        )

    def _elapsed(self) -> float:
        return time.perf_counter() - self._started

    def _rate(self) -> float:
        elapsed = self._elapsed()
        return self._done / elapsed if elapsed > 0 else 0.0

    def _eta_s(self) -> float | None:
        rate = self._rate()
        remaining = self._pending - self._done
        if rate <= 0 or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        return remaining / rate

    def _update_rates(self) -> None:
        reg = self.registry
        reg.gauge(
            "repro_campaign_throughput_jobs_per_s",
            "fresh job completions per second, this campaign",
        ).set(round(self._rate(), 6))
        reg.gauge(
            "repro_campaign_cache_hit_rate",
            "fraction of this campaign's jobs replayed from the result cache",
        ).set(round(self._cache_hits / self._total, 6) if self._total else 0.0)
        eta = self._eta_s()
        if eta is not None:
            reg.gauge(
                "repro_campaign_eta_seconds",
                "estimated seconds until the pending frontier drains",
            ).set(round(eta, 3))

    def job_done(
        self,
        record: Any,
        worker_metrics: Mapping[str, Any] | None = None,
        warnings: int = 0,
    ) -> None:
        """One fresh job finished (successfully or permanently failed)."""
        self._done += 1
        reg = self.registry
        if worker_metrics:
            reg.merge(worker_metrics)
        status = "failed" if getattr(record, "failed", False) else "simulated"
        if status == "failed":
            self._failed += 1
        reg.counter("repro_campaign_jobs_total", "campaign job outcomes").inc(
            1, status=status
        )
        if warnings:
            reg.counter(
                "repro_worker_warnings_total",
                "deduplicated warnings forwarded from pool workers",
            ).inc(warnings)
        self._update_rates()
        if self._done % self.progress_every == 0 or self._done >= self._pending:
            self.emit_progress()

    def job_retried(self) -> None:
        self.registry.counter(
            "repro_campaign_retries_total", "individual job retry attempts"
        ).inc()

    def jobs_recovered(self, count: int) -> None:
        self.registry.counter(
            "repro_campaign_recovered_total",
            "in-flight jobs resubmitted after a worker death",
        ).inc(count)

    def pool_rebuilt(self) -> None:
        self.registry.counter(
            "repro_campaign_pool_rebuilds_total", "process-pool reconstructions"
        ).inc()

    def emit_progress(self) -> None:
        inflight = self.scan_inflight()
        self.registry.gauge(
            "repro_campaign_inflight_jobs", "jobs submitted but unfinished"
        ).set(len(inflight))
        payload: dict[str, Any] = {
            "done": self._done,
            "pending": self._pending,
            "total": self._total,
            "failed": self._failed,
            "cache_hits": self._cache_hits,
            "elapsed_s": round(self._elapsed(), 3),
            "jobs_per_s": round(self._rate(), 4),
            "cache_hit_rate": (
                round(self._cache_hits / self._total, 4) if self._total else 0.0
            ),
        }
        eta = self._eta_s()
        if eta is not None:
            payload["eta_s"] = round(eta, 3)
        if inflight:
            payload["inflight"] = [
                {"tag": b.get("tag", ""), "elapsed_s": round(b.get("elapsed_s", 0.0), 3)}
                for b in inflight
            ]
        self._emit("campaign.progress", payload)
        self._write_metrics()

    def campaign_end(self, stats: Any) -> None:
        self._update_rates()
        reg = self.registry
        reg.counter("repro_campaign_runs_total", "campaigns completed").inc()
        reg.counter(
            "repro_campaign_wall_seconds_total", "campaign wall time"
        ).inc(stats.wall_time_s)
        self._emit(
            "campaign.end",
            {
                "total": stats.total_jobs,
                "cache_hits": stats.cache_hits,
                "simulated": stats.simulated,
                "failed": stats.failed,
                "retried": stats.retried,
                "recovered": stats.recovered,
                "pool_rebuilds": stats.pool_rebuilds,
                "resumed": getattr(stats, "resumed", 0),
                "shard": getattr(stats, "shard", ""),
                "campaign_id": getattr(stats, "campaign_id", ""),
                "store": getattr(stats, "store", ""),
                "wall_time_s": round(stats.wall_time_s, 6),
                "sim_time_s": round(stats.sim_time_s, 6),
                "cache_hit_rate": round(stats.cache_hit_rate, 4),
            },
        )
        self._write_metrics()

    def flush(self) -> None:
        """Rewrite the Prometheus snapshot now (e.g. after a reduce step
        recorded phases past the campaign's own final write)."""
        self._write_metrics()

    def close(self) -> None:
        """Remove the heartbeat spool; the sink stays usable afterwards
        (a new spool is created on demand)."""
        if self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None
