"""Workload persistence round-trips and cache robustness.

Regression anchor: both on-disk formats must preserve the ``namespace``
flag. A shared-page workload (``namespace=False``) that reloads with
the default ``namespace=True`` gets silently renumbered into disjoint
per-thread blocks — the sharing the family exists to model disappears
and every downstream contention number is quietly wrong.
"""

import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.traces import Workload, WorkloadCache, make_workload
from repro.traces.io import (
    load_workload_npz,
    load_workload_text,
    save_workload_npz,
    save_workload_text,
)

# lists of per-thread page-id lists: 1-4 threads, 1-40 refs each
TRACES = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40),
    min_size=1,
    max_size=4,
)


def workload_from(traces, namespace):
    return Workload(
        [np.asarray(t, dtype=np.int64) for t in traces],
        name="prop",
        namespace=namespace,
    )


def assert_same_workload(loaded, original):
    assert loaded.namespaced == original.namespaced
    assert loaded.num_threads == original.num_threads
    # source pages survive verbatim...
    for a, b in zip(loaded.source_traces, original.source_traces):
        np.testing.assert_array_equal(a.pages, b.pages)
    # ...so the engine-facing (possibly renumbered) traces do too.
    for a, b in zip(loaded.traces, original.traces):
        np.testing.assert_array_equal(a, b)


class TestSharedPageRegression:
    """The pinned bug: text round-trip must not destroy page sharing."""

    def test_text_round_trip_preserves_sharing(self, tmp_path):
        wl = make_workload(
            "shared", 4, seed=1, length=200, private_pages=8, shared_pages=8
        )
        assert wl.namespaced is False
        path = tmp_path / "shared.trace"
        save_workload_text(wl, path)
        loaded = load_workload_text(path)
        assert loaded.namespaced is False
        assert_same_workload(loaded, wl)
        # the shared segment is still shared: some page id appears in
        # more than one thread's trace
        page_sets = [set(t.tolist()) for t in loaded.traces]
        assert any(
            page_sets[i] & page_sets[j]
            for i in range(len(page_sets))
            for j in range(i + 1, len(page_sets))
        )

    def test_npz_round_trip_preserves_sharing(self, tmp_path):
        wl = make_workload(
            "shared", 4, seed=1, length=200, private_pages=8, shared_pages=8
        )
        path = tmp_path / "shared.npz"
        save_workload_npz(wl, path)
        loaded = load_workload_npz(path)
        assert loaded.namespaced is False
        assert_same_workload(loaded, wl)

    def test_text_header_records_namespace(self, tmp_path):
        wl = workload_from([[1, 2], [2, 3]], namespace=False)
        path = tmp_path / "w.trace"
        save_workload_text(wl, path)
        lines = path.read_text().splitlines()
        assert lines[1] == "# namespace false"
        save_workload_text(workload_from([[1]], namespace=True), path)
        assert path.read_text().splitlines()[1] == "# namespace true"


class TestTextFormatCompatibility:
    def test_headerless_file_keeps_historical_defaults(self, tmp_path):
        path = tmp_path / "external.trace"
        path.write_text("3\n1\n4\n1\n5\n")
        wl = load_workload_text(path)
        assert wl.num_threads == 1
        assert wl.namespaced is True  # the pre-header default
        assert wl.name == "external"
        np.testing.assert_array_equal(wl.source_traces[0].pages, [3, 1, 4, 1, 5])

    @pytest.mark.parametrize("value", ["false", "0", "no", "False", "NO"])
    def test_namespace_header_false_spellings(self, tmp_path, value):
        path = tmp_path / "w.trace"
        path.write_text(f"# workload w\n# namespace {value}\n# thread 0\n1\n2\n")
        assert load_workload_text(path).namespaced is False

    def test_namespace_header_true_spellings(self, tmp_path):
        path = tmp_path / "w.trace"
        path.write_text("# workload w\n# namespace true\n# thread 0\n1\n")
        assert load_workload_text(path).namespaced is True

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("# workload empty\n")
        with pytest.raises(ValueError, match="no traces"):
            load_workload_text(path)


class TestRoundTripProperties:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(traces=TRACES, namespace=st.booleans())
    def test_text_round_trip(self, tmp_path, traces, namespace):
        wl = workload_from(traces, namespace)
        path = tmp_path / "prop.trace"
        save_workload_text(wl, path)
        assert_same_workload(load_workload_text(path), wl)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(traces=TRACES, namespace=st.booleans())
    def test_npz_round_trip(self, tmp_path, traces, namespace):
        wl = workload_from(traces, namespace)
        path = tmp_path / "prop.npz"
        save_workload_npz(wl, path)
        loaded = load_workload_npz(path)
        assert_same_workload(loaded, wl)
        assert loaded.name == wl.name


def _concurrent_get(directory, barrier):
    cache = WorkloadCache(directory)
    barrier.wait()
    cache.get("random", 4, seed=3, length=200, pages=16)


class TestWorkloadCacheRobustness:
    SPEC = dict(kind="random", threads=4, seed=3, length=200, pages=16)

    def _get(self, cache):
        spec = dict(self.SPEC)
        return cache.get(spec.pop("kind"), spec.pop("threads"), **spec)

    def test_get_leaves_no_temp_files(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        self._get(cache)
        assert not list(tmp_path.glob("*.tmp*"))
        assert len(list(tmp_path.glob("*.npz"))) == 1

    def test_leftover_temp_file_does_not_break_cache(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        # a writer SIGKILLed mid-save leaves a temp behind
        stale = tmp_path / "random-t4-s3-deadbeef.tmp9999.npz"
        stale.parent.mkdir(exist_ok=True)
        stale.write_bytes(b"half-written garbage")
        wl = self._get(cache)
        assert wl.num_threads == 4
        again = self._get(cache)  # hit, served from the real entry
        for a, b in zip(wl.traces, again.traces):
            np.testing.assert_array_equal(a, b)

    def test_clear_sweeps_stale_temp_files(self, tmp_path):
        cache = WorkloadCache(tmp_path)
        self._get(cache)
        (tmp_path / "random-t4-s3-deadbeef.tmp9999.npz").write_bytes(b"junk")
        removed = cache.clear()
        assert removed == 2  # the entry and the stale temp
        assert not any(tmp_path.iterdir())

    def test_two_concurrent_writers_do_not_clobber(self, tmp_path):
        barrier = multiprocessing.Barrier(2)
        procs = [
            multiprocessing.Process(
                target=_concurrent_get, args=(str(tmp_path), barrier)
            )
            for _ in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
        assert all(p.exitcode == 0 for p in procs)
        # exactly one finished entry, no temp litter, and it loads
        assert not list(tmp_path.glob("*.tmp*"))
        (entry,) = tmp_path.glob("*.npz")
        wl = load_workload_npz(entry)
        assert wl.num_threads == 4
        # and it is bit-identical to a fresh generation
        fresh = make_workload("random", 4, seed=3, length=200, pages=16)
        for a, b in zip(wl.traces, fresh.traces):
            np.testing.assert_array_equal(a, b)

    def test_truncated_entry_is_quarantined_and_regenerated(self, tmp_path):
        import dataclasses
        import logging

        from repro.analysis import SweepJob, SweepRunner, WorkloadSpec
        from repro.core import SimulationConfig

        warnings = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = warnings.append
        logger = logging.getLogger("repro.traces.io")
        logger.addHandler(handler)
        spec = WorkloadSpec.make(**self.SPEC)
        jobs = [SweepJob(spec, SimulationConfig(hbm_slots=k)) for k in (8, 16)]
        runner = SweepRunner(processes=1, cache_dir=tmp_path, result_cache=False)
        try:
            first = runner.run(jobs)
            (entry,) = tmp_path.glob("*.npz")
            entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 2])
            again = runner.run(jobs)
            third = runner.run(jobs)  # served by the regenerated entry
        finally:
            logger.removeHandler(handler)

        def metrics(records):
            return [dataclasses.replace(r, wall_time_s=0.0) for r in records]

        assert not any(r.failed for r in again + third)
        assert metrics(again) == metrics(first) == metrics(third)
        assert len(warnings) == 1 and entry.name in warnings[0].getMessage()
        assert entry.with_suffix(".corrupt").exists()
        assert load_workload_npz(entry).num_threads == 4
        cache = WorkloadCache(tmp_path)
        assert cache.stats()["corrupt"] == 1
        assert cache.clear() == 2  # the entry and the quarantined one
        assert cache.stats() == {"entries": 0, "bytes": 0, "corrupt": 0}
