"""Observability subsystem: probes, manifests, timeline export, logging.

The load-bearing guarantees here are differential:

* probes never perturb results — for each engine, a run with probes
  attached is bit-identical to the same run without them;
* both engines emit the *same* sample series — the reference engine's
  dict/list bookkeeping and the fast engine's dense arrays must agree
  sample for sample, on every probed quantity, across workload families.
"""

import dataclasses
import json
import logging

import numpy as np
import pytest

from repro.core import SimulationConfig, resolve_engine, simulate
from repro.obs import (
    CallbackProbe,
    ProbeSample,
    RunManifest,
    TimelineProbe,
    ascii_timeline,
    chrome_trace,
    configure_logging,
    get_logger,
    write_chrome_trace,
    write_timeline_jsonl,
)
from repro.obs.trace import _stall_slices
from repro.store import sweep_result_key
from repro.traces import make_workload

#: (kind, params) for the differential matrix: a synthetic skewed
#: workload, an instrumented sort, and the paper's adversarial pattern.
FAMILIES = (
    ("zipf", {"length": 400, "pages": 48}),
    ("sort", {"n": 96}),
    ("adversarial_cycle", {"pages": 16, "repeats": 4}),
)

RESULT_FIELDS = (
    "makespan",
    "ticks",
    "num_threads",
    "total_requests",
    "hits",
    "fetches",
    "evictions",
    "mean_response",
    "inconsistency",
    "max_response",
    "thread_stats",
    "response_histogram",
    "remap_count",
)


def small_config(**overrides) -> SimulationConfig:
    base = dict(hbm_slots=24, channels=2, seed=0)
    base.update(overrides)
    return SimulationConfig(**base)


def assert_results_identical(a, b):
    for name in RESULT_FIELDS:
        assert getattr(a, name) == getattr(b, name), name


def assert_samples_identical(sa, sb):
    assert len(sa) == len(sb)
    for x, y in zip(sa, sb):
        assert x.tick == y.tick
        assert x.hbm_occupancy == y.hbm_occupancy, f"tick {x.tick}"
        assert x.queue_depth == y.queue_depth, f"tick {x.tick}"
        assert x.ready_threads == y.ready_threads, f"tick {x.tick}"
        assert x.channels_busy == y.channels_busy, f"tick {x.tick}"
        assert x.channels_total == y.channels_total
        assert x.fetches == y.fetches, f"tick {x.tick}"
        assert x.evictions == y.evictions, f"tick {x.tick}"
        assert np.array_equal(x.blocked, y.blocked), f"tick {x.tick}"
        assert np.array_equal(x.stall_age, y.stall_age), f"tick {x.tick}"


class TestDifferential:
    @pytest.mark.parametrize("kind,params", FAMILIES, ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_probes_never_change_results(self, kind, params, engine):
        workload = make_workload(kind, threads=4, seed=1, **params)
        bare = simulate(workload, small_config(), engine=engine)
        for stride in (1, 7):
            probe = TimelineProbe()
            cfg = small_config(probes=(probe,), probe_stride=stride)
            probed = simulate(workload, cfg, engine=engine)
            assert_results_identical(bare, probed)
            assert len(probe.samples) > 0
            assert all(s.tick % stride == 0 for s in probe.samples)

    @pytest.mark.parametrize("kind,params", FAMILIES, ids=[f[0] for f in FAMILIES])
    @pytest.mark.parametrize("stride", [1, 5])
    def test_engines_emit_identical_samples(self, kind, params, stride):
        workload = make_workload(kind, threads=4, seed=2, **params)
        series = {}
        for engine in ("reference", "fast"):
            probe = TimelineProbe()
            cfg = small_config(probes=(probe,), probe_stride=stride)
            simulate(workload, cfg, engine=engine)
            series[engine] = probe.samples
        assert_samples_identical(series["reference"], series["fast"])

    def test_probe_hooks_see_run_metadata(self):
        workload = make_workload("zipf", threads=3, seed=0, length=200, pages=16)
        probe = TimelineProbe()
        cfg = small_config(probes=(probe,))
        result = simulate(workload, cfg)
        assert probe.num_threads == 3
        assert probe.config is cfg
        assert probe.result is result
        arrays = probe.as_arrays()
        assert arrays["tick"].shape == arrays["queue_depth"].shape
        assert arrays["blocked"].shape == (len(probe), 3)

    def test_callback_probe_and_multiple_probes(self):
        workload = make_workload("zipf", threads=2, seed=0, length=100, pages=8)
        seen = []
        timeline = TimelineProbe()
        cfg = small_config(
            probes=(timeline, CallbackProbe(lambda s: seen.append(s.tick))),
            probe_stride=4,
        )
        simulate(workload, cfg, engine="reference")
        assert seen == [s.tick for s in timeline.samples]

    def test_cumulative_counters_match_result(self):
        workload = make_workload("zipf", threads=4, seed=3, length=300, pages=32)
        probe = TimelineProbe()
        result = simulate(workload, small_config(probes=(probe,)))
        last = probe.samples[-1]
        assert last.fetches == result.fetches
        assert last.evictions == result.evictions


class TestChromeTrace:
    def _probe(self):
        workload = make_workload("zipf", threads=3, seed=0, length=250, pages=24)
        probe = TimelineProbe()
        simulate(workload, small_config(probes=(probe,)))
        return probe

    def test_document_schema(self):
        probe = self._probe()
        doc = chrome_trace(probe, name="unit", metadata={"k": "v"})
        assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert doc["otherData"]["source"] == "unit"
        assert doc["otherData"]["k"] == "v"
        assert doc["otherData"]["samples"] == len(probe)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "C", "X"}
        for event in doc["traceEvents"]:
            assert event["ph"] in ("M", "C", "X")
            if event["ph"] == "C":
                assert isinstance(event["args"]["value"], int)
            if event["ph"] == "X":
                assert event["dur"] >= 1
                assert event["name"] == "DRAM stall"
        json.dumps(doc)  # must be serializable as-is

    def test_counter_tracks_cover_all_samples(self):
        probe = self._probe()
        doc = chrome_trace(probe)
        counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 5 * len(probe)

    def test_write_round_trips(self, tmp_path):
        probe = self._probe()
        path = write_chrome_trace(probe, tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc == chrome_trace(probe)

    def test_empty_samples(self):
        doc = chrome_trace([])
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert ascii_timeline([]) == "(no samples)"

    def test_stall_slices_reconstruction(self):
        def sample(tick, ages):
            ages = np.asarray(ages, dtype=np.int64)
            return ProbeSample(
                tick=tick, hbm_occupancy=0, queue_depth=0, ready_threads=0,
                channels_busy=0, channels_total=1, fetches=0, evictions=0,
                blocked=ages > 0, stall_age=ages,
            )

        # thread 0 stalls ticks 1-3; thread 1 has two back-to-back
        # stalls (4-5 then 6-7) distinguishable only by their start tick.
        samples = [
            sample(0, [0, 0]),
            sample(1, [1, 0]),
            sample(2, [2, 0]),
            sample(3, [3, 0]),
            sample(4, [0, 1]),
            sample(5, [0, 2]),
            sample(6, [0, 1]),
            sample(7, [0, 2]),
        ]
        assert _stall_slices(samples) == [(0, 1, 3), (1, 4, 2), (1, 6, 2)]

    def test_stall_slices_sparse_stride_exact_starts(self):
        # Sampling only ticks 0/4/8 of a stall spanning 2..9 still
        # recovers the exact start from stall_age.
        def sample(tick, age):
            ages = np.asarray([age], dtype=np.int64)
            return ProbeSample(
                tick=tick, hbm_occupancy=0, queue_depth=0, ready_threads=0,
                channels_busy=0, channels_total=1, fetches=0, evictions=0,
                blocked=ages > 0, stall_age=ages,
            )

        samples = [sample(0, 0), sample(4, 3), sample(8, 7)]
        assert _stall_slices(samples) == [(0, 2, 7)]


class TestTimelineExports:
    def test_jsonl_one_line_per_sample(self, tmp_path):
        workload = make_workload("zipf", threads=2, seed=0, length=120, pages=8)
        probe = TimelineProbe()
        simulate(workload, small_config(probes=(probe,), probe_stride=3))
        path = write_timeline_jsonl(probe, tmp_path / "timeline.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(probe)
        first = json.loads(lines[0])
        assert first == probe.samples[0].to_dict()
        assert isinstance(first["blocked"], list)

    def test_ascii_timeline_renders(self):
        workload = make_workload("zipf", threads=2, seed=0, length=120, pages=8)
        probe = TimelineProbe()
        simulate(workload, small_config(probes=(probe,)))
        art = ascii_timeline(probe, width=40, height=8)
        assert "timeline" in art
        assert "HBM occupancy" in art
        assert "DRAM queue depth" in art


class TestManifest:
    def test_simulate_writes_manifest(self, tmp_path):
        workload = make_workload("zipf", threads=3, seed=0, length=200, pages=16)
        cfg = small_config()
        path = tmp_path / "run" / "manifest.json"
        result = simulate(workload, cfg, manifest_path=path)
        manifest = RunManifest.read(path)
        assert manifest.schema == "repro.obs.manifest/v1"
        assert manifest.engine == resolve_engine(workload, cfg)
        from repro.core import ENGINE_SEMANTICS_VERSION

        assert manifest.engine_semantics_version == ENGINE_SEMANTICS_VERSION
        assert manifest.config == {
            k: v for k, v in cfg.to_dict().items()
        }
        assert manifest.workload["threads"] == 3
        assert manifest.workload["attestation"]["disjoint"] is True
        assert set(manifest.timings) == {"dispatch_s", "run_s", "total_s"}
        assert manifest.result["makespan"] == result.makespan
        assert manifest.result["total_requests"] == result.total_requests

    def test_manifest_records_forced_reference(self, tmp_path):
        workload = make_workload("zipf", threads=2, seed=0, length=100, pages=8)
        path = tmp_path / "manifest.json"
        simulate(workload, small_config(), engine="reference", manifest_path=path)
        assert RunManifest.read(path).engine == "reference"

    def test_build_with_spec_and_raw_traces(self):
        manifest = RunManifest.build(
            config={"hbm_slots": 4},
            engine="reference",
            traces=[np.array([0, 1]), np.array([2])],
            spec={"kind": "zipf", "threads": 2},
        )
        assert manifest.workload == {"threads": 2, "total_references": 3}
        assert manifest.spec == {"kind": "zipf", "threads": 2}
        # to_json is stable and round-trips through to_dict
        assert json.loads(manifest.to_json())["engine"] == "reference"


class TestConfigExclusion:
    def test_probes_excluded_from_dict_and_equality(self):
        bare = small_config()
        probed = small_config(probes=(TimelineProbe(),), probe_stride=16)
        assert bare == probed
        assert bare.to_dict() == probed.to_dict()
        assert "probes" not in bare.to_dict()
        assert "probe_stride" not in bare.to_dict()

    def test_probes_do_not_change_sweep_cache_key(self):
        spec = type(
            "Spec", (), {"kind": "zipf", "threads": 2, "seed": 0, "params": ()}
        )()
        key_bare = sweep_result_key(spec, small_config())
        key_probed = sweep_result_key(
            spec, small_config(probes=(TimelineProbe(),), probe_stride=8)
        )
        assert key_bare == key_probed

    def test_probe_stride_validated(self):
        with pytest.raises(ValueError):
            small_config(probe_stride=0)

    def test_probes_list_coerced_to_tuple(self):
        probe = TimelineProbe()
        cfg = small_config(probes=[probe])
        assert cfg.probes == (probe,)


class TestLogging:
    def test_get_logger_namespaced(self):
        assert get_logger("x").name == "repro.x"
        assert get_logger().name == "repro"

    def test_configure_is_idempotent(self):
        configure_logging(0)
        root = logging.getLogger("repro")
        count = len(root.handlers)
        configure_logging(1)
        configure_logging(1)
        assert len(logging.getLogger("repro").handlers) == count

    @pytest.mark.parametrize(
        "verbosity,level",
        [(-2, logging.WARNING), (-1, logging.WARNING), (0, logging.INFO),
         (1, logging.DEBUG), (3, logging.DEBUG)],
    )
    def test_verbosity_levels(self, verbosity, level):
        configure_logging(verbosity)
        assert logging.getLogger("repro").level == level

    def test_library_loggers_emit_under_repro(self):
        # The "repro" logger does not propagate to the root logger (the
        # library must not spam foreign handlers), so capture directly.
        configure_logging(1)
        records = []

        class Capture(logging.Handler):
            def emit(self, record):
                records.append(record)

        root = logging.getLogger("repro")
        handler = Capture(level=logging.DEBUG)
        root.addHandler(handler)
        try:
            make_workload("zipf", threads=2, seed=0, length=50, pages=8)
        finally:
            root.removeHandler(handler)
        assert any(r.name == "repro.traces" for r in records)
