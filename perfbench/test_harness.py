"""Tests for the benchmark harness itself (not for the program).

Run from the repository root::

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ledger  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_self_times_subtract_nested_children():
    spans = [
        ("experiments", 0.0, 10.0, None),
        ("sweep", 1.0, 4.0, 0),
        ("engine.batch", 2.0, 3.0, 1),
        ("engine.run", 2.25, 2.75, 2),
        ("theory", 5.0, 9.0, 0),
        ("experiments", 11.0, 12.0, None),
    ]
    own = ledger.self_times(spans)
    assert own == {
        "experiments": 3.0 + 1.0,
        "sweep": 2.0,
        "engine.batch": 0.5,
        "engine.run": 0.5,
        "theory": 4.0,
    }
    layers = ledger.layer_self_times(spans)
    assert layers["engine"] == 1.0
    assert sum(layers.values()) == ledger.root_seconds(spans) == 11.0


def test_tracer_self_times_sum_to_root_wall():
    tracer = ledger.Tracer()

    def leaf():
        return sum(range(1000))

    wrapped_leaf = tracer.wrap(leaf, "engine.solo")

    def middle():
        with tracer.span("store.read"):
            pass
        return wrapped_leaf() + wrapped_leaf()

    wrapped_middle = tracer.wrap(middle, "sweep")
    with tracer.span("experiments"):
        wrapped_middle()
    spans = [tuple(s) for s in tracer.spans]
    assert [s[0] for s in spans] == [
        "experiments",
        "sweep",
        "store.read",
        "engine.solo",
        "engine.solo",
    ]
    assert [s[3] for s in spans] == [None, 0, 1, 1, 1]
    total = sum(ledger.layer_self_times(spans).values())
    assert total == pytest.approx(ledger.root_seconds(spans), abs=1e-9)
    assert all(v >= 0 for v in ledger.self_times(spans).values())


def test_patch_function_rebinds_copies_and_restores():
    def original():
        return 1

    home = types.ModuleType("repro_harness_home")
    home.f = original
    copy = types.ModuleType("repro_harness_copy")
    copy.g = original
    sys.modules[home.__name__] = home
    sys.modules[copy.__name__] = copy
    try:
        tracer = ledger.Tracer()
        tracer.patch_function(home, "f", lambda fn: tracer.wrap(fn, "theory"))
        assert home.f is not original and copy.g is home.f
        assert copy.g() == 1 and len(tracer.spans) == 1
        tracer.restore()
        assert home.f is original and copy.g is original
    finally:
        del sys.modules[home.__name__], sys.modules[copy.__name__]


def test_metric_names_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in spec[section]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_ledger_produces_every_declared_layer_metric():
    from repro.obs.metrics import MetricsRegistry

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set(ledger.pass_ledger(ledger.Tracer(), MetricsRegistry(), 1.0))
    produced |= {f"replay.{k}" for k in run.REPLAY_KEYS}
    produced |= {
        "experiments.checks",
        "replay_s",
        "trace.wall_s",
        "trace.overhead_frac",
        "drain.net_s",
        "setup.import_s",
        "setup.calibrate_s",
        "setup.store_open_s",
        "setup.vector_threshold",
    }
    for name in produced:
        assert NAME.fullmatch(name), name
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared <= produced
    assert set(run.COUNT_KEYS) <= produced


def test_registry_counts_read_program_series():
    from repro.obs.metrics import MetricsRegistry, record_phase, set_active_registry

    registry = MetricsRegistry()
    previous = set_active_registry(registry)
    try:
        record_phase("fast_forward", 0.25)
        record_phase("simulate", 9.0)
    finally:
        set_active_registry(previous)
    attempts = registry.counter("repro_ff_plan_attempts")
    attempts.inc(3, policy="fifo", window="miss")
    attempts.inc(2, policy="priority", window="miss")
    attempts.inc(4, policy="fifo", window="hit")
    registry.counter("repro_engine_runs_total").inc(5, engine="batch")
    counts = ledger.registry_counts(registry)
    assert counts["drain.ff_s"] == 0.25
    assert counts["drain.attempts.miss"] == 5
    assert counts["drain.attempts.hit"] == 4
    assert counts["drain.declines.miss"] == 0
    assert counts["engine.runs.batch"] == 5
    assert counts["engine.runs.reference"] == 0


def test_child_env_removes_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_FAST_FORWARD", "1")
    monkeypatch.setenv("REPRO_BATCH", "4")
    monkeypatch.setenv("REPRO_STORE", "sqlite:///elsewhere.db")
    monkeypatch.setenv("PYTHONPATH", "/somewhere/else")
    monkeypatch.setenv("HARNESS_KEEP", "yes")
    env = run.child_env()
    assert not [k for k in env if k.startswith("REPRO_")]
    assert "PYTHONPATH" not in env
    assert env["HARNESS_KEEP"] == "yes"
    off = run.child_env(fast_forward=False)
    assert [k for k in off if k.startswith("REPRO_")] == ["REPRO_FAST_FORWARD"]
    assert off["REPRO_FAST_FORWARD"] == "0"


def test_end_to_end_scales_walls_by_the_reference_kernel(monkeypatch, tmp_path):
    walls = iter([9.0, 3.0, 2.0, 4.0])
    # kernel times before the first pass and after each pass: the host
    # runs at full speed, then at half speed from the second pass on
    kernel = iter([1.0, 1.0, 2.0, 2.0])

    class FakeReference:
        def seconds(self):
            return next(kernel) * run.REFERENCE_S

    class FakeRunner:
        def fresh_cache(self):
            return tmp_path / "cache"

        def child(self, workload, seed, cache, **kwargs):
            wall = next(walls)
            return {
                "wall_s": wall,
                "refs": 100,
                "setup_s": wall / 10,
                "peak_rss_mb": 50.0 + wall,
                "setup.vector_threshold": 8,
            }

    monkeypatch.setattr(run, "MAX_PASSES", 3)
    monkeypatch.setattr(run, "Reference", FakeReference)
    notes: list[str] = []
    metrics, children = run.end_to_end(FakeRunner(), "w", 0, 1e9, notes)
    # the 9 s warm-up pass is checked but not timed
    assert [c["wall_s"] for c in children] == [9.0, 3.0, 2.0, 4.0]
    # normalized walls: 3 / 1, 2 / 1.5 and 4 / 2
    assert metrics == {
        "setup_s": pytest.approx(0.3),
        "wall_norm_s": pytest.approx(2.0),
        "refs_per_norm_s": pytest.approx(50.0),
        "peak_rss_mb": 53.0,
    }
    assert notes[0].startswith("3 timed cold passes")


def test_check_child_counts_mismatches_as_failed_jobs():
    child = {
        "experiments": {
            "a": {"digest": "x", "jobs": 4, "failed": 0},
            "b": {"digest": "y", "jobs": 2, "failed": 1},
        },
    }
    notes: list[str] = []
    # b's failed record plus both of b's jobs for its mismatching output
    assert run.check_child(child, {"a": "x", "b": "other"}, notes) == (6, 1 + 2)
    assert len(notes) == 1 and notes[0].startswith("MISMATCH b")
    notes.clear()
    assert run.check_child(child, {"a": "x", "b": "y"}, notes) == (6, 1)
    assert notes == []
