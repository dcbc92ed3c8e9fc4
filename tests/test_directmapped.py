"""Tests for repro.core.directmapped (Lemma 1 / Theorem 4 machinery)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.directmapped import (
    DirectMappedCache,
    TransformedCacheSimulator,
    TwoUniversalHash,
    concurrent_front_insert,
    simulate_fully_associative,
    transform_overhead,
)


class TestTwoUniversalHash:
    def test_range(self):
        h = TwoUniversalHash(16, np.random.default_rng(0))
        assert all(0 <= h(x) < 16 for x in range(1000))

    def test_deterministic_per_instance(self):
        h = TwoUniversalHash(16, np.random.default_rng(0))
        assert h(12345) == h(12345)

    def test_distributes_roughly_uniformly(self):
        h = TwoUniversalHash(8, np.random.default_rng(1))
        counts = np.bincount([h(x) for x in range(8000)], minlength=8)
        assert counts.min() > 700  # expectation 1000

    def test_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            TwoUniversalHash(0, np.random.default_rng(0))


class TestDirectMappedCache:
    def test_hit_after_install(self):
        cache = DirectMappedCache(8, rng=np.random.default_rng(0))
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_conflicts_evict(self):
        cache = DirectMappedCache(1, rng=np.random.default_rng(0))
        cache.access(1)
        cache.access(2)  # must evict 1 (single slot)
        assert cache.access(1) is False

    def test_reset_counters(self):
        cache = DirectMappedCache(4, rng=np.random.default_rng(0))
        cache.access(1)
        cache.reset_counters()
        assert cache.hits == cache.misses == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 30), max_size=40),
        st.lists(st.integers(0, 30), max_size=200),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    def test_access_many_matches_per_touch(self, warm, stream, slots, seed):
        batched = DirectMappedCache(slots, rng=np.random.default_rng(seed))
        reference = DirectMappedCache(slots, rng=np.random.default_rng(seed))
        for page in warm:  # tags left by earlier touches carry over
            batched.access(page)
            reference.access(page)
        hits = batched.access_many(stream)
        ref_hits = sum(reference.access(page) for page in stream)
        assert hits == ref_hits
        assert (batched.hits, batched.misses) == (reference.hits, reference.misses)
        assert batched._tags == reference._tags


class TestFullyAssociativeReference:
    def test_lru_miss_count(self):
        # 0 1 2 0 with k=2: misses 0,1,2 then 0 again (evicted) -> 4
        hits, misses = simulate_fully_associative([0, 1, 2, 0], 2, "lru")
        assert (hits, misses) == (0, 4)

    def test_fifo_differs_from_lru(self):
        # FIFO does not refresh 0 on reuse
        trace = [0, 1, 0, 2, 0]
        lru = simulate_fully_associative(trace, 2, "lru")
        fifo = simulate_fully_associative(trace, 2, "fifo")
        assert lru[0] > fifo[0]

    def test_bad_replacement(self):
        with pytest.raises(ValueError):
            simulate_fully_associative([1], 2, "clock")


class TestLemma1Transformation:
    def test_logical_behaviour_matches_original(self):
        """replay() raises if the transformed hit/miss sequence diverges,
        so a clean run is the assertion."""
        rng = np.random.default_rng(0)
        trace = rng.integers(0, 100, size=3000)
        report = transform_overhead(trace, capacity=32, seed=1)
        assert report.original_hits + report.original_misses == 3000

    @pytest.mark.parametrize("replacement", ["lru", "fifo"])
    def test_constant_miss_overhead(self, replacement):
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 128, size=4000)
        report = transform_overhead(
            trace, capacity=48, replacement=replacement, seed=0
        )
        assert report.miss_overhead < 4.0
        assert report.access_overhead < 30.0

    def test_overhead_does_not_grow_with_capacity(self):
        rng = np.random.default_rng(3)
        overheads = []
        for k in (16, 64, 256):
            trace = rng.integers(0, 4 * k, size=4000)
            overheads.append(transform_overhead(trace, k, seed=0).access_overhead)
        assert max(overheads) < 2.0 * min(overheads)

    def test_chain_lengths_stay_short(self):
        rng = np.random.default_rng(4)
        trace = rng.integers(0, 512, size=5000)
        sim = TransformedCacheSimulator(128, seed=0)
        sim.replay(trace)
        assert sim.max_chain <= 12  # 2-universal expectation O(1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TransformedCacheSimulator(0)
        with pytest.raises(ValueError):
            TransformedCacheSimulator(4, replacement="clock")
        with pytest.raises(ValueError):
            TransformedCacheSimulator(4, slack=1)

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=300), st.integers(2, 16))
    def test_random_traces_never_diverge(self, trace, capacity):
        transform_overhead(np.asarray(trace), capacity, seed=5)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(0, 60), min_size=1, max_size=300),
        st.sampled_from(["lru", "fifo"]),
        st.integers(2, 16),
        st.integers(2, 4),
        st.sampled_from([5, TransformedCacheSimulator.SETTLE_EVERY]),
        st.integers(0, 2**16),
    )
    def test_batched_counts_equal_per_touch_replay(
        self, trace, replacement, capacity, slack, settle_every, seed
    ):
        sim = TransformedCacheSimulator(
            capacity, replacement=replacement, slack=slack, seed=seed
        )
        sim.SETTLE_EVERY = settle_every
        touches = []
        cache = sim.cache
        batched = cache.access_many

        def recording(pages):
            touches.extend(pages)
            return batched(pages)

        cache.access_many = recording
        report = sim.replay(trace)
        # the same hash: the cache draws first from the seeded generator
        rng = np.random.default_rng(seed)
        reference = DirectMappedCache(slack * capacity, rng=rng)
        for page in touches:
            reference.access(page)
        assert report.transformed_accesses == len(touches)
        assert (report.transformed_hits, report.transformed_misses) == (
            reference.hits,
            reference.misses,
        )

    def test_cache_counts_pending_touches_when_read(self):
        sim = TransformedCacheSimulator(8, seed=0)
        for page in (1, 2, 3, 1, 9, 17):
            sim.access(page)
        assert sim.cache.hits + sim.cache.misses > 0
        report = TransformedCacheSimulator(8, seed=0).replay([1, 2, 3, 1, 9, 17])
        assert (sim.cache.hits, sim.cache.misses) == (
            report.transformed_hits,
            report.transformed_misses,
        )


class TestTheorem4:
    def test_empty_insert(self):
        items, steps = concurrent_front_insert([1, 2], [])
        assert items == [1, 2] and steps == 0

    def test_order_preserved(self):
        items, _ = concurrent_front_insert([4, 5], [1, 2, 3])
        assert items == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("x", [1, 2, 3, 8, 100, 1024])
    def test_steps_logarithmic(self, x):
        _, steps = concurrent_front_insert([], list(range(x)))
        assert steps <= math.ceil(math.log2(max(x, 2))) + 3
