"""Tests for campaign telemetry: the metrics registry and its merge
semantics, worker->parent piggybacking, the JSONL event stream,
heartbeat files, cross-worker warn-once forwarding, Chrome trace
merging, and bench-regression tracking."""

import itertools
import json
import os
import time

import pytest

from repro.analysis import SweepJob, SweepRunner, WorkloadSpec
from repro.analysis import benchtrend
from repro.analysis.telemetry import (
    CampaignTelemetry,
    HeartbeatWriter,
    default_telemetry,
    set_telemetry_defaults,
)
from repro.core import SimulationConfig
from repro.obs import log as obs_log
from repro.obs import merge_chrome_traces
from repro.obs.metrics import (
    MetricsRegistry,
    active_registry,
    phase,
    record_phase,
    render_prom,
    set_active_registry,
    write_prom,
)

SPEC = WorkloadSpec.make("adversarial_cycle", threads=4, seed=0, pages=16, repeats=3)
CONFIG = SimulationConfig(hbm_slots=32)


def jobs(n=3):
    return [
        SweepJob(
            workload=SPEC,
            config=SimulationConfig(hbm_slots=32, channels=c + 1),
            tag=f"j{c}",
        )
        for c in range(n)
    ]


@pytest.fixture(autouse=True)
def _clean_warn_state():
    obs_log.reset_warn_once()
    yield
    obs_log.reset_warn_once()


class TestRegistry:
    def test_counter_labels_and_negative_rejected(self):
        reg = MetricsRegistry()
        c = reg.counter("jobs", "jobs done")
        c.inc(2, status="ok")
        c.inc(1, status="ok")
        c.inc(5, status="bad")
        snap = reg.snapshot()["families"]["jobs"]
        values = {tuple(map(tuple, k)): v for k, v in snap["series"]}
        assert values[(("status", "ok"),)] == 3
        assert values[(("status", "bad"),)] == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_merges_as_max(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth", "queue depth").set(3)
        b.gauge("depth", "queue depth").set(7)
        a.merge(b.snapshot())
        assert a.snapshot()["families"]["depth"]["series"] == [[[], 7.0]]

    def test_histogram_bucket_stability(self):
        reg = MetricsRegistry()
        reg.histogram("lat", "latency", bounds=(0.1, 1.0))
        # same name, different bounds -> identity error, not silent skew
        with pytest.raises(ValueError):
            reg.histogram("lat", "latency", bounds=(0.2, 1.0))
        other = MetricsRegistry()
        other.histogram("lat", "latency", bounds=(0.5,)).observe(0.3)
        with pytest.raises(ValueError):
            reg.merge(other.snapshot())

    def test_merge_is_order_independent(self):
        def make(seed):
            reg = MetricsRegistry()
            reg.counter("c", "h").inc(seed, worker=str(seed % 2))
            reg.gauge("g", "h").set(seed * 1.5)
            h = reg.histogram("hist", "h", bounds=(1.0, 10.0))
            h.observe(seed)
            h.observe(seed * 3)
            return reg.snapshot()

        snaps = [make(s) for s in (1, 2, 5)]
        merged = []
        for perm in itertools.permutations(snaps):
            reg = MetricsRegistry()
            for snap in perm:
                reg.merge(snap)
            merged.append(reg.snapshot())
        assert all(m == merged[0] for m in merged[1:])

    def test_merge_accepts_registry_and_snapshot(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c", "h").inc(1)
        b.counter("c", "h").inc(2)
        a.merge(b)
        a.merge(b.snapshot())
        assert a.snapshot()["families"]["c"]["series"] == [[[], 5.0]]

    def test_prom_rendering(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("repro_jobs_total", "jobs").inc(4, status="ok")
        reg.gauge("repro_eta_seconds", "eta").set(1.5)
        reg.histogram("repro_phase_seconds", "phases", bounds=(0.1, 1.0)).observe(
            0.05, phase="reduce"
        )
        text = render_prom(reg)
        assert "# HELP repro_jobs_total jobs" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{status="ok"} 4.0' in text
        assert 'repro_phase_seconds_bucket{phase="reduce",le="+Inf"} 1' in text
        assert 'repro_phase_seconds_count{phase="reduce"} 1' in text
        assert 'repro_phase_seconds_sum{phase="reduce"}' in text
        assert text == render_prom(reg)  # deterministic
        out = write_prom(reg, tmp_path / "m.prom")
        assert out.read_text(encoding="utf-8") == text
        assert not list(tmp_path.glob("*.tmp*"))  # atomic write left no turds


class TestActiveRegistry:
    def test_phase_hooks_are_inert_without_registry(self):
        assert active_registry() is None
        record_phase("simulate", 0.1)  # must not raise
        with phase("reduce"):
            pass

    def test_phase_records_into_active_registry(self):
        reg = MetricsRegistry()
        prev = set_active_registry(reg)
        try:
            record_phase("simulate", 0.25)
            with phase("reduce"):
                pass
        finally:
            set_active_registry(prev)
        fam = reg.snapshot()["families"]["repro_phase_seconds"]
        phases = {dict(k)["phase"] for k, _ in fam["series"]}
        assert phases == {"simulate", "reduce"}

    def test_set_active_registry_returns_previous(self):
        reg = MetricsRegistry()
        prev = set_active_registry(reg)
        assert set_active_registry(prev) is reg


class TestWarnForwarding:
    def test_capture_buffers_instead_of_logging(self, monkeypatch):
        monkeypatch.setattr(obs_log, "_CAPTURE", [])
        logger = obs_log.get_logger("sweep")
        assert obs_log.warn_once(logger, ("k", 1), "bad point %d", 7)
        assert not obs_log.warn_once(logger, ("k", 1), "bad point %d", 7)
        drained = obs_log.drain_captured_warnings()
        assert drained == [
            {"logger": "repro.sweep", "key": repr(("k", 1)), "message": "bad point 7"}
        ]
        assert obs_log.drain_captured_warnings() == []

    def test_forward_dedups_across_workers(self):
        # two workers (separate processes, separate _WARNED sets) both
        # report the same data-quality problem; the parent prints it once
        worker_a = [{"logger": "repro.stats", "key": "('dropped', 3)", "message": "m"}]
        worker_b = [{"logger": "repro.stats", "key": "('dropped', 3)", "message": "m"}]
        assert obs_log.forward_warnings(worker_a) == 1
        assert obs_log.forward_warnings(worker_b) == 0
        other = [{"logger": "repro.stats", "key": "('dropped', 4)", "message": "m2"}]
        assert obs_log.forward_warnings(other) == 1


class TestHeartbeat:
    def test_heartbeat_file_lifecycle(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("c", "h").inc(1)
        hb = HeartbeatWriter(
            tmp_path, tag="jobX", attempt=2, registry=reg, interval_s=0.05
        ).start()
        path = tmp_path / f"hb-{os.getpid()}.json"
        deadline = time.time() + 5.0
        while not path.is_file() and time.time() < deadline:
            time.sleep(0.02)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["tag"] == "jobX"
        assert doc["attempt"] == 2
        assert doc["elapsed_s"] >= 0
        assert doc["metrics"]["families"]["c"]["series"] == [[[], 1.0]]
        hb.stop()
        assert not path.exists()

    def test_scan_inflight_ignores_stale_files(self, tmp_path):
        tele = CampaignTelemetry()
        from pathlib import Path

        spool = Path(tele.spool_dir)
        fresh = spool / "hb-1.json"
        stale = spool / "hb-2.json"
        fresh.write_text(json.dumps({"tag": "a", "pid": 1}), encoding="utf-8")
        stale.write_text(json.dumps({"tag": "b", "pid": 2}), encoding="utf-8")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        tags = [d["tag"] for d in tele.scan_inflight()]
        assert tags == ["a"]
        tele.close()


class TestCampaignTelemetry:
    def _run(self, tmp_path, telemetry, cache_sub, n=3):
        runner = SweepRunner(
            processes=1, cache_dir=tmp_path / cache_sub, telemetry=telemetry
        )
        return runner.run(jobs(n), label="tele-test")

    def test_event_stream_monotone_with_terminal_event(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        tele = CampaignTelemetry(events_out=events_path, progress_every=1)
        self._run(tmp_path, tele, "cache")
        tele.close()
        events = [
            json.loads(line)
            for line in events_path.read_text(encoding="utf-8").splitlines()
        ]
        assert events[0]["event"] == "campaign.start"
        assert events[0]["total"] == 3
        assert events[-1]["event"] == "campaign.end"
        assert events[-1]["simulated"] == 3
        seqs = [e["seq"] for e in events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        progress = [e for e in events if e["event"] == "campaign.progress"]
        done = [e["done"] for e in progress]
        assert done == sorted(done)

    def test_metrics_snapshot_written(self, tmp_path):
        metrics_path = tmp_path / "m.prom"
        tele = CampaignTelemetry(metrics_out=metrics_path)
        self._run(tmp_path, tele, "cache")
        tele.close()
        text = metrics_path.read_text(encoding="utf-8")
        assert 'repro_campaign_jobs_total{status="simulated"} 3.0' in text
        assert "repro_campaign_throughput_jobs_per_s" in text
        assert "repro_campaign_cache_hit_rate" in text
        for ph in ("cache_probe", "simulate", "workload_build"):
            assert f'phase="{ph}"' in text

    def test_cache_hits_reported_on_replay(self, tmp_path):
        self._run(tmp_path, None, "cache")
        events_path = tmp_path / "events.jsonl"
        tele = CampaignTelemetry(events_out=events_path)
        self._run(tmp_path, tele, "cache")
        tele.close()
        events = [
            json.loads(line)
            for line in events_path.read_text(encoding="utf-8").splitlines()
        ]
        assert events[0]["cache_hits"] == 3
        assert events[0]["pending"] == 0


def _comparable_rows(records):
    rows = []
    for record in records:
        row = record.row()
        row.pop("wall_time_s")  # timing noise, differs run to run
        rows.append(row)
    return rows


def _cache_entries(cache_dir):
    """Result-cache entries as {filename: parsed json}.

    Wall-clock fields differ between *any* two runs (telemetry or not),
    so they are reduced to their key structure: values dropped, key
    sets kept — a telemetry leak would still show up as an extra key.
    The glob also reaches the campaign checkpoint
    (``campaigns/<id>/manifest.json``), whose ``created_at`` stamp is
    one such field.
    """
    entries = {}
    for path in sorted((cache_dir / "results").rglob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["wall_time_s"] = "<wall>"
        if "created_at" in doc:
            doc["created_at"] = "<wall>"
        timings = doc.get("manifest", {}).get("timings")
        if timings is not None:
            doc["manifest"]["timings"] = sorted(timings)
        entries[path.name] = doc
    return entries


class TestTelemetryIsInert:
    """Telemetry may observe a campaign but never change its outputs."""

    def test_records_and_cache_identical_with_and_without(self, tmp_path):
        tele = CampaignTelemetry(
            metrics_out=tmp_path / "m.prom",
            events_out=tmp_path / "e.jsonl",
        )
        on = SweepRunner(
            processes=1, cache_dir=tmp_path / "on", telemetry=tele
        ).run(jobs())
        tele.close()
        off = SweepRunner(processes=1, cache_dir=tmp_path / "off").run(jobs())

        assert _comparable_rows(on) == _comparable_rows(off)
        entries_on = _cache_entries(tmp_path / "on")
        entries_off = _cache_entries(tmp_path / "off")
        assert entries_on.keys() == entries_off.keys()  # same cache keys
        assert entries_on == entries_off
        # no telemetry leaked into the cached documents
        for doc in entries_on.values():
            assert "metrics" not in doc
            assert "warnings" not in doc

    def test_pool_piggyback_matches_sequential(self, tmp_path):
        tele = CampaignTelemetry(metrics_out=tmp_path / "m.prom")
        pooled = SweepRunner(
            processes=2, cache_dir=tmp_path / "pool", telemetry=tele
        ).run(jobs())
        snapshot = tele.registry.snapshot()
        tele.close()
        solo = SweepRunner(processes=1, cache_dir=tmp_path / "solo").run(jobs())
        assert _comparable_rows(pooled) == _comparable_rows(solo)
        assert _cache_entries(tmp_path / "pool") == _cache_entries(tmp_path / "solo")
        # worker-side phases crossed the process boundary via piggyback
        fam = snapshot["families"]["repro_phase_seconds"]
        phases = {dict(k)["phase"] for k, _ in fam["series"]}
        assert {"workload_build", "simulate"} <= phases
        jobs_fam = snapshot["families"]["repro_campaign_jobs_total"]
        assert [[[["status", "simulated"]], 3.0]] == jobs_fam["series"]

    def test_replay_without_telemetry_reads_telemetry_written_cache(self, tmp_path):
        tele = CampaignTelemetry(metrics_out=tmp_path / "m.prom")
        cold = SweepRunner(
            processes=1, cache_dir=tmp_path / "c", telemetry=tele
        ).run(jobs())
        tele.close()
        warm = SweepRunner(processes=1, cache_dir=tmp_path / "c").run(jobs())
        assert all(r.cached for r in warm)
        cold_rows = _comparable_rows(cold)
        warm_rows = _comparable_rows(warm)
        for row in cold_rows + warm_rows:
            row.pop("cached")
        assert cold_rows == warm_rows


class TestTelemetryDefaults:
    def test_defaults_roundtrip_and_global_sink(self, tmp_path):
        assert default_telemetry() is None
        prev = set_telemetry_defaults(
            metrics_out=tmp_path / "m.prom", progress_every=3
        )
        try:
            tele = default_telemetry()
            assert tele is not None
            assert tele.progress_every == 3
            assert default_telemetry() is tele  # cached global sink
        finally:
            set_telemetry_defaults(**prev)
        assert default_telemetry() is None

    def test_progress_every_validated(self):
        with pytest.raises(ValueError):
            set_telemetry_defaults(progress_every=0)


def _mini_trace(tmp_path, name, source, value):
    doc = {
        "traceEvents": [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "hbm-model"}},
            {"ph": "C", "pid": 0, "tid": 0, "ts": 0, "name": "HBM occupancy",
             "args": {"value": value}},
            {"ph": "X", "pid": 1, "tid": 2, "ts": 5, "dur": 3,
             "name": "DRAM stall", "cat": "stall", "args": {"ticks": 3}},
        ],
        "displayTimeUnit": "ms",
        "otherData": {"source": source, "samples": 1},
    }
    path = tmp_path / name / "trace.json"
    path.parent.mkdir()
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestTraceMerge:
    def test_merge_remaps_pids_and_names_tracks(self, tmp_path):
        a = _mini_trace(tmp_path, "a", "job-alpha", 1)
        b = _mini_trace(tmp_path, "b", "job-beta", 2)
        out = merge_chrome_traces([a, (b, "tagged")], tmp_path / "merged.json")
        doc = json.loads(out.read_text(encoding="utf-8"))
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert len(pids) == 4  # two pids per input, all disjoint
        names = [
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e.get("name") == "process_name"
        ]
        assert names == ["job-alpha: hbm-model", "tagged: hbm-model"]
        tracks = [s["track"] for s in doc["otherData"]["merged"]]
        assert tracks == ["job-alpha", "tagged"]

    def test_merge_prefers_sibling_manifest_name(self, tmp_path):
        a = _mini_trace(tmp_path, "a", "fallback-source", 1)
        (a.parent / "manifest.json").write_text(
            json.dumps({"workload": {"name": "spgemm-x16"}}), encoding="utf-8"
        )
        out = merge_chrome_traces([a], tmp_path / "merged.json")
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["otherData"]["merged"][0]["track"] == "spgemm-x16"

    def test_merge_requires_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            merge_chrome_traces([], tmp_path / "merged.json")


BASELINE = {
    "schema": benchtrend.BASELINE_SCHEMA,
    "updated": "",
    "suites": {
        "engine": {
            "miss_bound.ff_speedup": 8.0,
            "miss_bound.ff_on_s": 0.05,
            "hit_heavy.ff_speedup": 10.0,
        },
        "obs": {"fast.overhead_fraction": 0.01},
        "sweep": {"cache_speedup": 1000.0, "dispatch_speedup": 1.2},
    },
}


class TestBenchTrend:
    def test_flatten_drops_non_numeric_and_bools(self):
        flat = benchtrend.flatten_metrics(
            {"a": 1, "b": {"c": 2.5, "d": "text"}, "e": True}
        )
        assert flat == {"a": 1.0, "b.c": 2.5}

    def test_within_tolerance_is_ok(self):
        current = {
            "engine": {
                "miss_bound.ff_speedup": 6.5,
                "miss_bound.ff_on_s": 0.06,
                "hit_heavy.ff_speedup": 8.5,
            }
        }
        diff = benchtrend.compare(current, BASELINE, tolerance=0.25)
        by_metric = {(e.suite, e.metric): e.status for e in diff.entries}
        assert by_metric[("engine", "miss_bound.ff_speedup")] == "ok"
        assert by_metric[("engine", "hit_heavy.ff_speedup")] == "ok"
        assert by_metric[("engine", "miss_bound.ff_on_s")] == "info"  # times never gate
        assert diff.ok

    def test_synthetic_slowdown_is_a_regression(self):
        # the acceptance scenario: a 2x slowdown halves the speedup
        current = {"engine": {"miss_bound.ff_speedup": 4.0}}
        diff = benchtrend.compare(current, BASELINE, tolerance=0.25)
        assert [e.metric for e in diff.regressions] == ["miss_bound.ff_speedup"]
        assert not diff.ok

    def test_improvement_and_ceiling_modes(self):
        current = {
            "engine": {"miss_bound.ff_speedup": 12.0},
            "obs": {"fast.overhead_fraction": 0.2},
        }
        diff = benchtrend.compare(current, BASELINE, tolerance=0.25)
        by_metric = {(e.suite, e.metric): e.status for e in diff.entries}
        assert by_metric[("engine", "miss_bound.ff_speedup")] == "improved"
        assert by_metric[("obs", "fast.overhead_fraction")] == "regression"

    def test_missing_suite_never_fails_the_gate(self):
        diff = benchtrend.compare({}, BASELINE, tolerance=0.25)
        assert diff.ok
        assert {e.status for e in diff.entries} == {"not-measured"}

    def test_tolerance_validated(self):
        with pytest.raises(ValueError):
            benchtrend.compare({}, BASELINE, tolerance=1.5)

    def test_record_preserves_unmeasured_suites(self, tmp_path):
        path = tmp_path / "baseline.json"
        benchtrend.record({"engine": {"ff_speedup": 7.0}}, path, updated="t0")
        benchtrend.record({"sweep": {"cache_speedup": 900.0}}, path, updated="t1")
        doc = benchtrend.load_baseline(path)
        assert doc["suites"]["engine"]["ff_speedup"] == 7.0
        assert doc["suites"]["sweep"]["cache_speedup"] == 900.0
        assert doc["updated"] == "t1"

    def test_load_baseline_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"schema": "bogus/v9"}), encoding="utf-8")
        with pytest.raises(ValueError):
            benchtrend.load_baseline(path)

    def test_load_bench_files_first_dir_wins(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "a" / "BENCH_engine.json").write_text(
            json.dumps({"ff_speedup": 5.0}), encoding="utf-8"
        )
        (tmp_path / "b" / "BENCH_engine.json").write_text(
            json.dumps({"ff_speedup": 9.0}), encoding="utf-8"
        )
        current = benchtrend.load_bench_files([tmp_path / "a", tmp_path / "b"])
        assert current == {"engine": {"ff_speedup": 5.0}}


def _doc_table(text, header):
    """Rows of the Markdown table whose header row starts with
    ``header``, as lists of stripped cells."""
    lines = text.splitlines()
    start = next((i for i, line in enumerate(lines) if line.startswith(header)), None)
    assert start is not None, f"no table headed {header!r}"
    rows = []
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


class TestDocumentedMetrics:
    """``docs/OBSERVABILITY.md`` names exactly the metric families and
    phases a campaign exports, so the docs cannot drift from the code."""

    def test_tables_match_the_exported_registry(self, tmp_path):
        import re
        from pathlib import Path

        from repro.experiments import run_experiment

        metrics_path = tmp_path / "m.prom"
        prev = set_telemetry_defaults(metrics_out=metrics_path)
        try:
            # fig3's adversarial cycles fast-forward, so every family
            # (the FF prover counters included) and every phase shows up
            run_experiment(
                "fig3", scale="smoke", processes=1, cache_dir=tmp_path / "cache"
            )
        finally:
            set_telemetry_defaults(**prev)
        text = metrics_path.read_text(encoding="utf-8")
        exported = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
        phases = set(re.findall(r'phase="([a-z_]+)"', text))

        doc = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
        doc_text = doc.read_text(encoding="utf-8")
        documented = {
            name: row[1]
            for row in _doc_table(doc_text, "| metric |")
            for name in re.findall(r"`(repro_\w+)`", row[0])
        }
        documented_phases = {
            row[0].strip("`") for row in _doc_table(doc_text, "| phase |")
        }
        assert documented == exported
        assert documented_phases == phases


class TestEventSchemaV2:
    """v2 events carry the campaign-durability fields; any other schema
    is rejected by :func:`iter_campaign_events`."""

    def _events(self, path):
        from repro.analysis.telemetry import iter_campaign_events

        return list(iter_campaign_events(path))

    def test_documented_schema_is_the_written_one(self):
        import re
        from pathlib import Path

        from repro.analysis.telemetry import EVENT_SCHEMA

        doc = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"
        text = doc.read_text(encoding="utf-8")
        documented = re.search(
            r"JSONL event stream \(schema\s+`([^`]+)`\)", text
        )
        assert documented is not None
        assert documented.group(1) == EVENT_SCHEMA

    def test_start_and_end_carry_durability_fields(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        tele = CampaignTelemetry(events_out=events_path)
        runner = SweepRunner(
            processes=1, cache_dir=tmp_path / "cache", telemetry=tele
        )
        runner.run(jobs(), label="v2-demo")
        tele.close()
        events = self._events(events_path)
        start, end = events[0], events[-1]
        assert start["schema"] == "repro.campaign.events/v2"
        assert start["event"] == "campaign.start"
        assert start["resumed"] == 0
        assert start["shard"] == ""
        assert end["event"] == "campaign.end"
        assert end["campaign_id"] == runner.last_campaign.campaign_id
        assert end["store"] == f"dir:{tmp_path / 'cache' / 'results'}"

    def test_torn_line_skipped_and_v1_rejected(self, tmp_path):
        from repro.analysis.telemetry import EVENT_SCHEMA

        path = tmp_path / "events.jsonl"
        event = {
            "schema": EVENT_SCHEMA,
            "event": "campaign.start",
            "seq": 0,
            "campaign": "demo",
        }
        path.write_text(
            json.dumps(event) + "\n" + '{"torn": '  # live stream cut mid-write
        )
        assert self._events(path) == [event]
        path.write_text(
            json.dumps({**event, "schema": "repro.campaign.events/v1"}) + "\n"
        )
        with pytest.raises(ValueError):
            self._events(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "alien.jsonl"
        path.write_text(json.dumps({"schema": "alien/v9", "event": "x"}) + "\n")
        with pytest.raises(ValueError):
            self._events(path)
