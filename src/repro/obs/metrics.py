"""Process-safe campaign metrics: Counter / Gauge / Histogram families.

A campaign is executed by many processes at once — the parent
:class:`~repro.analysis.SweepRunner` plus a pool of workers — so its
telemetry cannot live in one process's variables. This module gives
every process a :class:`MetricsRegistry` of labeled metric series whose
*merge* operation is commutative and associative:

* :class:`Counter` — monotone totals; merge adds.
* :class:`Gauge` — point-in-time values; merge takes the elementwise
  maximum (a high-watermark), the only order-independent choice that
  needs no cross-process clock.
* :class:`Histogram` — fixed-bound bucket counts plus sum/count; merge
  adds bucketwise. Bucket bounds are part of a family's identity: a
  merge with different bounds is a hard error, never a silent reshape.

Workers populate a fresh registry per job attempt and piggyback its
:meth:`~MetricsRegistry.snapshot` back to the parent on the job outcome
(and on heartbeat files for long-running jobs); the parent merges the
deltas into the live campaign registry in completion order. Because all
merges commute, the aggregate is independent of worker scheduling.

The **phase profiler** rides on the same registry: engines and the
sweep runner wrap their hot-path stages (``workload_build``,
``simulate``, ``fast_forward``, ``cache_probe``, ``reduce``) in
:func:`phase` / :func:`record_phase`, which observe into the
``repro_phase_seconds`` histogram of whatever registry is *active*
in the process (:func:`set_active_registry`). With no active registry
every hook degrades to a single ``is None`` check, keeping the
engines' <2% off-overhead guarantee (``benchmarks/test_bench_obs.py``).

:func:`render_prom` serializes a registry in the Prometheus text
exposition format, for ``repro run --metrics-out PATH`` and any future
scrape endpoint.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_SECONDS_BUCKETS",
    "PHASE_METRIC",
    "active_registry",
    "set_active_registry",
    "record_phase",
    "phase",
    "render_prom",
    "write_prom",
]

#: histogram bounds tuned for simulation phases: sub-millisecond cache
#: probes up to multi-minute paper-scale jobs (+Inf is implicit)
DEFAULT_SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

#: the phase profiler's histogram family name
PHASE_METRIC = "repro_phase_seconds"

#: snapshot wire-format version (bump on incompatible change)
SNAPSHOT_SCHEMA = "repro.obs.metrics/v1"

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, Any]) -> _LabelKey:
    """Canonical, hashable form of a label set (values stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared family plumbing: name, help text, labeled series dict."""

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: dict[_LabelKey, Any] = {}

    def series(self) -> dict[_LabelKey, Any]:
        """Label-key -> value view (copied; safe to iterate)."""
        with self._lock:
            return dict(self._series)


class Counter(_Metric):
    """A monotonically increasing total. Merge semantics: addition."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def _merge_value(self, key: _LabelKey, incoming: Any) -> None:
        self._series[key] = self._series.get(key, 0.0) + float(incoming)


class Gauge(_Metric):
    """A point-in-time value. Merge semantics: elementwise maximum.

    Within one process :meth:`set` is last-write-wins (the natural
    gauge reading); *across* processes a merge keeps the maximum, so a
    snapshot union is a high-watermark and independent of merge order.
    Campaign-level instantaneous gauges (throughput, ETA) are set only
    by the parent and never merged, so they keep plain gauge semantics.
    """

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def _merge_value(self, key: _LabelKey, incoming: Any) -> None:
        current = self._series.get(key)
        incoming = float(incoming)
        if current is None or incoming > current:
            self._series[key] = incoming


class Histogram(_Metric):
    """Fixed-bound bucket counts plus sum and count. Merge: bucketwise add.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    overflow bucket (``+Inf``) is implicit. Bounds are frozen at family
    creation and are part of the family's identity — merging snapshots
    with different bounds raises, guaranteeing bucket stability across
    every process of a campaign.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must be strictly increasing: {bounds}")
        self.bounds = tuple(float(b) for b in bounds)

    def _empty(self) -> dict[str, Any]:
        return {"buckets": [0] * (len(self.bounds) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        value = float(value)
        with self._lock:
            cell = self._series.get(key)
            if cell is None:
                cell = self._series[key] = self._empty()
            idx = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    idx = i
                    break
            cell["buckets"][idx] += 1
            cell["sum"] += value
            cell["count"] += 1

    def cell(self, **labels: Any) -> dict[str, Any]:
        """The ``{"buckets", "sum", "count"}`` cell for one label set."""
        with self._lock:
            cell = self._series.get(_label_key(labels))
            return dict(cell) if cell is not None else self._empty()

    def _merge_value(self, key: _LabelKey, incoming: Mapping[str, Any]) -> None:
        buckets = list(incoming["buckets"])
        if len(buckets) != len(self.bounds) + 1:
            raise ValueError(
                f"histogram {self.name}: incoming snapshot has "
                f"{len(buckets)} buckets, family has {len(self.bounds) + 1}"
            )
        cell = self._series.get(key)
        if cell is None:
            cell = self._series[key] = self._empty()
        for i, n in enumerate(buckets):
            cell["buckets"][i] += int(n)
        cell["sum"] += float(incoming["sum"])
        cell["count"] += int(incoming["count"])


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """A process-local set of metric families with mergeable snapshots.

    Thread-safe: one re-entrant lock guards every family (worker
    heartbeat threads snapshot while the job thread records). Merging a
    snapshot is type- and bound-checked; counters and histograms add,
    gauges take the maximum, so for any set of snapshots the merged
    registry is independent of merge order (property-tested in
    ``tests/test_telemetry.py``).
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Metric] = {}

    # -- family accessors (get-or-create) ------------------------------

    def _family(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = cls(name, help, self._lock, **kwargs)
            elif not isinstance(fam, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}, "
                    f"not {cls.kind}"
                )
            return fam

    def counter(self, name: str, help: str = "") -> Counter:
        return self._family(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._family(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
    ) -> Histogram:
        fam = self._family(Histogram, name, help, bounds=tuple(bounds))
        if fam.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} already registered with bounds "
                f"{fam.bounds}, not {tuple(bounds)}"
            )
        return fam

    def families(self) -> dict[str, _Metric]:
        with self._lock:
            return dict(self._families)

    def __bool__(self) -> bool:
        with self._lock:
            return any(f._series for f in self._families.values())

    # -- snapshot / merge ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-able copy of every family (the piggyback wire format)."""
        with self._lock:
            doc: dict[str, Any] = {"schema": SNAPSHOT_SCHEMA, "families": {}}
            for name, fam in sorted(self._families.items()):
                entry: dict[str, Any] = {
                    "kind": fam.kind,
                    "help": fam.help,
                    "series": [
                        [
                            [list(pair) for pair in key],
                            (dict(value) if isinstance(value, dict) else value),
                        ]
                        for key, value in sorted(fam._series.items())
                    ],
                }
                if isinstance(fam, Histogram):
                    entry["bounds"] = list(fam.bounds)
                doc["families"][name] = entry
            return doc

    def merge(self, snapshot: Mapping[str, Any] | "MetricsRegistry") -> None:
        """Fold another registry's snapshot into this one (commutative)."""
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        families = snapshot.get("families", {})
        with self._lock:
            for name, entry in families.items():
                kind = entry.get("kind")
                cls = _KINDS.get(kind)
                if cls is None:
                    raise ValueError(f"metric {name!r}: unknown kind {kind!r}")
                if cls is Histogram:
                    fam = self.histogram(
                        name, entry.get("help", ""),
                        bounds=tuple(entry.get("bounds", DEFAULT_SECONDS_BUCKETS)),
                    )
                else:
                    fam = self._family(cls, name, entry.get("help", ""))
                for raw_key, value in entry.get("series", []):
                    key = tuple((str(k), str(v)) for k, v in raw_key)
                    fam._merge_value(key, value)

    def clear(self) -> None:
        with self._lock:
            self._families.clear()


# -- the active registry: where phase timers and engine hooks record ----

_ACTIVE: MetricsRegistry | None = None


def active_registry() -> MetricsRegistry | None:
    """The registry instrumentation hooks currently record into."""
    return _ACTIVE


def set_active_registry(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install ``registry`` as the process's active sink; returns the old.

    The sweep worker pushes a fresh registry around each job attempt
    (so deltas are per-job) and restores the previous one afterwards;
    the parent installs the campaign registry for the duration of a
    run. ``None`` disables all hooks at the cost of one ``is None``
    check each.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


def record_phase(name: str, seconds: float) -> None:
    """Observe one phase duration into the active registry (no-op when
    no registry is active)."""
    registry = _ACTIVE
    if registry is None:
        return
    registry.histogram(
        PHASE_METRIC, "wall time per runner/engine phase"
    ).observe(seconds, phase=name)


@contextmanager
def phase(name: str) -> Iterator[None]:
    """Time the body as one observation of phase ``name``.

    Pays two ``perf_counter`` calls only when a registry is active.
    """
    if _ACTIVE is None:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        record_phase(name, time.perf_counter() - start)


# -- Prometheus text exposition -----------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_labels(key: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = tuple(key) + extra
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prom(registry: MetricsRegistry) -> str:
    """Serialize a registry in the Prometheus text exposition format.

    Families and series are emitted in sorted order, so two renders of
    equal registries are byte-identical (stable for tests and diffs).
    """
    lines: list[str] = []
    for name, fam in sorted(registry.families().items()):
        if fam.help:
            lines.append(f"# HELP {name} {fam.help}")
        lines.append(f"# TYPE {name} {fam.kind}")
        series = sorted(fam.series().items())
        if isinstance(fam, Histogram):
            for key, cell in series:
                cumulative = 0
                for bound, count in zip(
                    tuple(fam.bounds) + (float("inf"),), cell["buckets"]
                ):
                    cumulative += count
                    le = _format_value(float(bound))
                    lines.append(
                        f"{name}_bucket"
                        f"{_format_labels(key, (('le', le),))} {cumulative}"
                    )
                lines.append(f"{name}_sum{_format_labels(key)} {cell['sum']!r}")
                lines.append(f"{name}_count{_format_labels(key)} {cell['count']}")
        else:
            for key, value in series:
                lines.append(f"{name}{_format_labels(key)} {_format_value(value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_prom(registry: MetricsRegistry, path: str | os.PathLike) -> Path:
    """Atomically write :func:`render_prom` output to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
    tmp.write_text(render_prom(registry), encoding="utf-8")
    os.replace(tmp, path)
    return path
