"""Bench-regression tracking: baseline capture and tolerance-band diffs.

The benchmark suite leaves machine-readable result files next to the
repo root (``BENCH_engine.json``, ``BENCH_sweep.json``,
``BENCH_obs.json``), but until now nothing
*compared* them across commits — the perf trajectory was invisible.
This module closes the loop:

* :func:`record` folds the current ``BENCH_*.json`` set into a
  committed ``benchmarks/baseline.json`` (``repro bench record`` /
  ``scripts/bench_record.py``);
* :func:`compare` diffs the current numbers against that baseline and
  classifies every metric; ``repro bench diff`` exits non-zero when any
  *gated* metric regresses past its tolerance band.

Gating policy — the part that keeps CI honest without flaking:

* **Relative metrics** (speedups, dispatch ratios) are hardware-neutral
  — both sides of the ratio ran on the same machine — so they gate with
  a multiplicative tolerance band (default ±25%).
* **Overhead fractions** (the obs bench's probe cost) sit near zero, so
  a relative band is meaningless; they gate on an absolute ceiling:
  ``current <= baseline + overhead_band``.
* **Absolute wall times** vary with the host and CI load; they are
  reported for trend-eyeballing but never gate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

__all__ = [
    "BASELINE_SCHEMA",
    "SUITES",
    "GATED_METRICS",
    "BenchEntry",
    "BenchDiff",
    "flatten_metrics",
    "load_bench_files",
    "load_baseline",
    "compare",
    "record",
    "format_report",
]

BASELINE_SCHEMA = "repro.bench.baseline/v1"

#: suite name -> the result file its bench test writes
SUITES = {
    "engine": "BENCH_engine.json",
    "sweep": "BENCH_sweep.json",
    "obs": "BENCH_obs.json",
}

#: gated metric -> gate mode, per suite. ``"higher"`` = a ratio that
#: must not drop below ``baseline * (1 - tolerance)``; ``"ceiling"`` =
#: an overhead fraction that must not exceed ``baseline +
#: overhead_band``. Everything else is informational.
GATED_METRICS: dict[str, dict[str, str]] = {
    "engine": {
        "miss_bound.ff_speedup": "higher",
        "hit_heavy.ff_speedup": "higher",
    },
    "sweep": {"cache_speedup": "higher"},
    "obs": {
        "fast.overhead_fraction": "ceiling",
        "reference.overhead_fraction": "ceiling",
        "telemetry.overhead_fraction": "ceiling",
    },
}


def flatten_metrics(doc: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a (possibly nested) bench document, dot-keyed.

    Non-numeric leaves (workload descriptions and the like) are
    dropped; booleans are not numbers here.
    """
    flat: dict[str, float] = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            flat.update(flatten_metrics(value, prefix=f"{name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[name] = float(value)
    return flat


def load_bench_files(
    search_dirs: Iterable[str | Path] = (".",),
) -> dict[str, dict[str, float]]:
    """Current bench results: ``{suite: {metric: value}}``.

    Each suite's file is taken from the first search directory that has
    it; suites with no file anywhere are simply absent (the diff
    reports them as not-measured rather than failing — CI may run a
    subset).
    """
    current: dict[str, dict[str, float]] = {}
    for suite, filename in SUITES.items():
        for directory in search_dirs:
            path = Path(directory) / filename
            if path.is_file():
                current[suite] = flatten_metrics(
                    json.loads(path.read_text(encoding="utf-8"))
                )
                break
    return current


def load_baseline(path: str | Path) -> dict[str, Any]:
    """Parse a recorded baseline, rejecting unknown schemas."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: unknown baseline schema {doc.get('schema')!r} "
            f"(expected {BASELINE_SCHEMA})"
        )
    return doc


@dataclass(frozen=True)
class BenchEntry:
    """One metric's verdict in a bench diff."""

    suite: str
    metric: str
    baseline: float | None
    current: float | None
    #: "ok" | "regression" | "improved" | "info" | "new" | "not-measured"
    status: str
    #: current / baseline when both sides exist and baseline != 0
    ratio: float | None = None

    @property
    def gated(self) -> bool:
        return self.metric in GATED_METRICS.get(self.suite, {})


@dataclass
class BenchDiff:
    """Outcome of :func:`compare` (render with :func:`format_report`)."""

    tolerance: float
    overhead_band: float
    entries: list[BenchEntry] = field(default_factory=list)

    @property
    def regressions(self) -> list[BenchEntry]:
        return [e for e in self.entries if e.status == "regression"]

    @property
    def ok(self) -> bool:
        return not self.regressions


def _classify(
    suite: str,
    metric: str,
    baseline: float,
    current: float,
    tolerance: float,
    overhead_band: float,
) -> str:
    mode = GATED_METRICS.get(suite, {}).get(metric)
    if mode == "higher":
        if current < baseline * (1.0 - tolerance):
            return "regression"
        if current > baseline * (1.0 + tolerance):
            return "improved"
        return "ok"
    if mode == "ceiling":
        return "regression" if current > baseline + overhead_band else "ok"
    return "info"


def compare(
    current: Mapping[str, Mapping[str, float]],
    baseline: Mapping[str, Any],
    tolerance: float = 0.25,
    overhead_band: float = 0.05,
) -> BenchDiff:
    """Diff current bench results against a recorded baseline.

    Only gated metrics can produce ``"regression"`` entries; a gated
    metric present in the baseline but absent from ``current`` is
    ``"not-measured"`` (the bench did not run — a CI configuration
    problem, not a perf one, so it never fails the gate by itself).
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    diff = BenchDiff(tolerance=tolerance, overhead_band=overhead_band)
    suites = baseline.get("suites", {})
    for suite in sorted(set(suites) | set(current)):
        base_metrics = dict(suites.get(suite, {}))
        cur_metrics = dict(current.get(suite, {}))
        for metric in sorted(set(base_metrics) | set(cur_metrics)):
            base = base_metrics.get(metric)
            cur = cur_metrics.get(metric)
            if base is None:
                status = "new"
            elif cur is None:
                status = "not-measured"
            else:
                status = _classify(
                    suite, metric, base, cur, tolerance, overhead_band
                )
            ratio = (
                cur / base
                if base not in (None, 0) and cur is not None
                else None
            )
            diff.entries.append(
                BenchEntry(
                    suite=suite,
                    metric=metric,
                    baseline=base,
                    current=cur,
                    status=status,
                    ratio=round(ratio, 4) if ratio is not None else None,
                )
            )
    return diff


def record(
    current: Mapping[str, Mapping[str, float]],
    baseline_path: str | Path,
    updated: str = "",
) -> dict[str, Any]:
    """Fold ``current`` into the baseline file (per-suite overwrite).

    Suites not present in ``current`` keep their previously recorded
    numbers, so a partial bench run never erases history. Returns the
    written document.
    """
    path = Path(baseline_path)
    if path.is_file():
        doc = load_baseline(path)
    else:
        doc = {"schema": BASELINE_SCHEMA, "updated": "", "suites": {}}
    if updated:
        doc["updated"] = updated
    for suite, metrics in current.items():
        doc["suites"][suite] = {k: metrics[k] for k in sorted(metrics)}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return doc


def format_report(diff: BenchDiff) -> str:
    """Human-readable diff table, regressions first."""
    from .tables import format_table

    order = {"regression": 0, "improved": 1, "ok": 2, "not-measured": 3, "new": 4, "info": 5}
    rows = [
        {
            "suite": e.suite,
            "metric": e.metric,
            "baseline": e.baseline if e.baseline is not None else "",
            "current": e.current if e.current is not None else "",
            "ratio": e.ratio if e.ratio is not None else "",
            "gate": (
                GATED_METRICS.get(e.suite, {}).get(e.metric, "")
            ),
            "status": e.status,
        }
        for e in sorted(
            diff.entries, key=lambda e: (order.get(e.status, 9), e.suite, e.metric)
        )
    ]
    verdict = (
        f"{len(diff.regressions)} regression(s)"
        if diff.regressions
        else "no regressions"
    )
    title = (
        f"bench diff vs baseline: {verdict} "
        f"(tolerance ±{diff.tolerance:.0%}, overhead band "
        f"+{diff.overhead_band:.2f})"
    )
    return format_table(rows, title=title)
