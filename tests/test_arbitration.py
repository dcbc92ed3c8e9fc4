"""Tests for repro.core.arbitration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arbitration import (
    _ARBITRATION_CLASSES,
    ArbitrationPolicy,
    BlacklistingArbitration,
    CyclePriorityArbitration,
    CycleReversePriorityArbitration,
    DynamicPriorityArbitration,
    DynamicPriorityQueueArbitration,
    FIFOArbitration,
    InterleavePriorityArbitration,
    PriorityArbitration,
    RandomArbitration,
    RoundRobinArbitration,
    arbitration_policy_names,
    make_arbitration_policy,
    register_arbitration_policy,
    riffle_permutation,
)

ALL_NAMES = [
    "fifo",
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
    "random",
    "round_robin",
    "blacklist",
    "dpq",
]


def make(name, p=8, T=16, seed=0):
    return make_arbitration_policy(
        name, p, remap_period=T, rng=np.random.default_rng(seed)
    )


class TestFactory:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_builds_each_policy(self, name):
        policy = make(name)
        assert policy.name == name
        assert policy.num_threads == 8

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown arbitration"):
            make_arbitration_policy("nope", 4)

    @pytest.mark.parametrize(
        "name", ["dynamic_priority", "cycle_priority", "interleave_priority"]
    )
    def test_remapping_policies_require_period(self, name):
        with pytest.raises(ValueError, match="remap_period"):
            make_arbitration_policy(name, 4)

    def test_bad_thread_count(self):
        with pytest.raises(ValueError, match="num_threads"):
            FIFOArbitration(0)

    def test_custom_policy_honors_requires_remap_period(self):
        # Regression: the factory used to gate the "requires
        # remap_period" error on a hardcoded name set, so a custom
        # remapping policy silently received remap_period=None and
        # failed deep in its constructor instead.
        @register_arbitration_policy
        class _CustomRemapper(FIFOArbitration):
            name = "test_custom_remapper"
            requires_remap_period = True

            def __init__(self, num_threads, remap_period):
                super().__init__(num_threads)
                self.remap_period = remap_period

        try:
            with pytest.raises(ValueError, match="remap_period"):
                make_arbitration_policy("test_custom_remapper", 4)
            policy = make_arbitration_policy(
                "test_custom_remapper", 4, remap_period=12
            )
            assert policy.remap_period == 12
        finally:
            _ARBITRATION_CLASSES.pop("test_custom_remapper", None)

    def test_blacklist_knobs_forwarded(self):
        policy = make_arbitration_policy(
            "blacklist", 4, blacklist_threshold=2, blacklist_clear_interval=9
        )
        assert policy.blacklist_threshold == 2
        assert policy.blacklist_clear_interval == 9

    def test_blacklist_knobs_none_keeps_defaults(self):
        policy = make_arbitration_policy(
            "blacklist", 4, blacklist_threshold=None,
            blacklist_clear_interval=None,
        )
        assert policy.blacklist_threshold == 4
        assert policy.blacklist_clear_interval == 1000


class TestCommonBehaviour:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_enqueue_select_drains(self, name):
        policy = make(name)
        for thread in range(5):
            policy.enqueue(thread)
        assert len(policy) == 5
        granted = policy.select(3)
        assert len(granted) == 3
        assert len(policy) == 2
        granted += policy.select(10)
        assert len(policy) == 0
        assert sorted(granted) == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_select_on_empty_returns_nothing(self, name):
        assert make(name).select(4) == []

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_no_duplicates_across_selects(self, name):
        policy = make(name)
        for thread in range(8):
            policy.enqueue(thread)
        seen = []
        while len(policy):
            seen += policy.select(2)
        assert sorted(seen) == list(range(8))


class TestFIFO:
    def test_arrival_order(self):
        fifo = FIFOArbitration(8)
        for thread in (3, 1, 7, 2):
            fifo.enqueue(thread)
        assert fifo.select(2) == [3, 1]
        fifo.enqueue(5)
        assert fifo.select(3) == [7, 2, 5]


class TestStaticPriority:
    def test_lowest_rank_first(self):
        prio = PriorityArbitration(8)
        for thread in (5, 2, 7, 0):
            prio.enqueue(thread)
        assert prio.select(2) == [0, 2]
        assert prio.select(2) == [5, 7]

    def test_priorities_identity(self):
        prio = PriorityArbitration(4)
        assert list(prio.priorities()) == [0, 1, 2, 3]

    def test_new_high_priority_arrival_preempts(self):
        prio = PriorityArbitration(8)
        prio.enqueue(6)
        prio.enqueue(4)
        prio.enqueue(1)
        assert prio.select(1) == [1]
        prio.enqueue(0)
        assert prio.select(1) == [0]

    def test_begin_tick_without_period_never_remaps(self):
        prio = PriorityArbitration(4)
        for t in range(100):
            prio.begin_tick(t)
        assert prio.remap_count == 0


class TestCyclePriority:
    def test_definition_1_increment_mod_p(self):
        cyc = CyclePriorityArbitration(4, remap_period=10)
        assert list(cyc.priorities()) == [0, 1, 2, 3]
        cyc.remap()
        assert list(cyc.priorities()) == [1, 2, 3, 0]
        cyc.remap()
        assert list(cyc.priorities()) == [2, 3, 0, 1]

    def test_remap_happens_on_period_boundaries(self):
        cyc = CyclePriorityArbitration(4, remap_period=5)
        for t in range(11):
            cyc.begin_tick(t)
        # boundaries at t = 0, 5, 10
        assert cyc.remap_count == 3

    def test_remap_reorders_waiting_threads(self):
        cyc = CyclePriorityArbitration(2, remap_period=100)
        cyc.enqueue(0)
        cyc.enqueue(1)
        cyc.remap()  # thread 1 now rank 0
        assert cyc.select(2) == [1, 0]

    def test_every_thread_reaches_top_within_p_remaps(self):
        p = 6
        cyc = CyclePriorityArbitration(p, remap_period=1)
        tops = set()
        for _ in range(p):
            ranks = cyc.priorities()
            tops.add(int(np.argmin(ranks)))
            cyc.remap()
        assert tops == set(range(p))


class TestCycleReverse:
    def test_decrement_mod_p(self):
        cyc = CycleReversePriorityArbitration(4, remap_period=10)
        cyc.remap()
        assert list(cyc.priorities()) == [3, 0, 1, 2]

    def test_inverse_of_cycle(self):
        fwd = CyclePriorityArbitration(5, remap_period=10)
        rev = CycleReversePriorityArbitration(5, remap_period=10)
        fwd.remap()
        rev.remap()
        combined = rev.priorities()[np.argsort(fwd.priorities())]
        # applying forward then reverse restores identity ranks
        fwd2 = CyclePriorityArbitration(5, remap_period=10)
        fwd2.remap()
        back = (fwd2.priorities() + 4) % 5
        assert list(back) == [0, 1, 2, 3, 4]


class TestDynamicPriority:
    def test_remap_is_a_permutation(self):
        dyn = DynamicPriorityArbitration(16, remap_period=4, rng=np.random.default_rng(3))
        for _ in range(5):
            dyn.remap()
            assert sorted(dyn.priorities()) == list(range(16))

    def test_deterministic_under_seed(self):
        a = DynamicPriorityArbitration(8, remap_period=4, rng=np.random.default_rng(9))
        b = DynamicPriorityArbitration(8, remap_period=4, rng=np.random.default_rng(9))
        for _ in range(4):
            a.remap()
            b.remap()
        assert list(a.priorities()) == list(b.priorities())

    def test_remap_changes_selection_order(self):
        rng = np.random.default_rng(1)
        dyn = DynamicPriorityArbitration(64, remap_period=4, rng=rng)
        for thread in range(64):
            dyn.enqueue(thread)
        dyn.remap()
        order = dyn.select(64)
        assert order != list(range(64))  # astronomically unlikely to be identity
        assert sorted(order) == list(range(64))


class TestInterleave:
    def test_riffle_permutation_even(self):
        ranks = np.arange(6)
        assert list(riffle_permutation(ranks)) == [0, 2, 4, 1, 3, 5]

    def test_riffle_permutation_odd(self):
        ranks = np.arange(5)
        # top half (ranks 0,1,2) -> 0,2,4; bottom half (3,4) -> 1,3
        assert list(riffle_permutation(ranks)) == [0, 2, 4, 1, 3]

    def test_riffle_is_a_permutation(self):
        for p in (1, 2, 3, 7, 16, 33):
            ranks = riffle_permutation(np.arange(p))
            assert sorted(ranks) == list(range(p))

    def test_interleave_remap(self):
        pol = InterleavePriorityArbitration(4, remap_period=10)
        pol.remap()
        assert sorted(pol.priorities()) == [0, 1, 2, 3]
        assert list(pol.priorities()) == [0, 2, 1, 3]


class TestRandomArbitration:
    def test_deterministic_under_seed(self):
        a = make("random", seed=5)
        b = make("random", seed=5)
        for thread in range(8):
            a.enqueue(thread)
            b.enqueue(thread)
        assert a.select(8) == b.select(8)

    def test_uniformity_rough(self):
        """Each thread should be picked first a fair share of the time."""
        rng = np.random.default_rng(0)
        firsts = []
        for _ in range(600):
            pol = RandomArbitration(4, rng=rng)
            for thread in range(4):
                pol.enqueue(thread)
            firsts.append(pol.select(1)[0])
        counts = np.bincount(firsts, minlength=4)
        assert counts.min() > 80  # expected 150 each

    def test_missing_rng_falls_back_deterministically(self):
        # Regression: the rng=None fallback used to be an *unseeded*
        # default_rng(), so direct construction gave irreproducible
        # runs. It must now be deterministic (and warn once).
        import logging

        from repro.obs.log import get_logger, reset_warn_once

        reset_warn_once()
        captured: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda rec: captured.append(rec.getMessage())
        logger = get_logger("core")
        logger.addHandler(handler)
        try:
            a = RandomArbitration(8)
            b = RandomArbitration(8)
        finally:
            logger.removeHandler(handler)
        for policy in (a, b):
            for thread in range(8):
                policy.enqueue(thread)
        grants_a = [a.select(3) for _ in range(3)]
        grants_b = [b.select(3) for _ in range(3)]
        assert grants_a == grants_b
        assert len(captured) == 1
        assert "rng" in captured[0]


class TestRoundRobin:
    def test_cycles_after_last_grant(self):
        rr = RoundRobinArbitration(4)
        for thread in range(4):
            rr.enqueue(thread)
        assert rr.select(2) == [0, 1]
        rr.enqueue(0)
        rr.enqueue(1)
        # pointer sits after 1 -> grants 2, 3 before wrapping to 0, 1
        assert rr.select(4) == [2, 3, 0, 1]

    def test_duplicate_enqueue_ignored(self):
        rr = RoundRobinArbitration(4)
        rr.enqueue(2)
        rr.enqueue(2)
        assert len(rr) == 1
        assert rr.select(4) == [2]


class TestBlacklist:
    def test_streak_reaches_threshold_blacklists(self):
        bl = BlacklistingArbitration(4, blacklist_threshold=2)
        bl.enqueue(0)
        bl.enqueue(0)
        assert bl.select(1) == [0]
        assert bl.select(1) == [0]  # streak hits 2 -> blacklisted
        assert bool(bl._blacklisted[0])
        bl.enqueue(0)
        bl.enqueue(3)
        # thread 3 arrived later but jumps the blacklisted thread 0
        assert bl.select(2) == [3, 0]

    def test_interleaved_grants_never_blacklist(self):
        bl = BlacklistingArbitration(4, blacklist_threshold=2)
        for thread in (0, 1, 0, 1, 0, 1):
            bl.enqueue(thread)
        assert bl.select(6) == [0, 1, 0, 1, 0, 1]
        assert not bl._blacklisted.any()

    def test_begin_tick_clears_on_interval(self):
        bl = BlacklistingArbitration(4, blacklist_threshold=1,
                                     blacklist_clear_interval=10)
        bl.enqueue(2)
        assert bl.select(1) == [2]  # threshold 1: instant blacklist
        assert bool(bl._blacklisted[2])
        bl.begin_tick(9)
        assert bool(bl._blacklisted[2])  # not a boundary
        bl.begin_tick(10)
        assert not bl._blacklisted.any()

    def test_skip_idle_ticks_applies_interior_boundary(self):
        bl = BlacklistingArbitration(4, blacklist_threshold=1,
                                     blacklist_clear_interval=10)
        bl.enqueue(2)
        bl.select(1)
        assert bl.skip_idle_ticks(3, 8)  # no boundary in (3, 8)
        assert bool(bl._blacklisted[2])
        assert bl.skip_idle_ticks(3, 25)  # 10 and 20 inside
        assert not bl._blacklisted.any()

    def test_fcfs_within_each_class(self):
        bl = BlacklistingArbitration(6, blacklist_threshold=1)
        bl.enqueue(5)
        bl.select(1)  # blacklists 5
        bl.enqueue(4)
        bl.select(1)  # blacklists 4
        for thread in (5, 2, 4, 0):
            bl.enqueue(thread)
        # non-blacklisted in arrival order, then blacklisted in
        # arrival order
        assert bl.select(6) == [2, 0, 5, 4]

    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError, match="blacklist_threshold"):
            BlacklistingArbitration(4, blacklist_threshold=0)
        with pytest.raises(ValueError, match="blacklist_clear_interval"):
            BlacklistingArbitration(4, blacklist_clear_interval=0)


class TestDpq:
    def test_initial_order_is_thread_id(self):
        dpq = DynamicPriorityQueueArbitration(4)
        assert list(dpq.priorities()) == [0, 1, 2, 3]
        for thread in (3, 1, 2):
            dpq.enqueue(thread)
        assert dpq.select(2) == [1, 2]  # slot order, not arrival order

    def test_granted_thread_drops_to_lowest_slot(self):
        dpq = DynamicPriorityQueueArbitration(4)
        dpq.enqueue(0)
        assert dpq.select(1) == [0]
        assert list(dpq.priorities()) == [3, 0, 1, 2]  # 0 now last
        dpq.enqueue(0)
        dpq.enqueue(3)
        # thread 3 (slot 2) outranks demoted thread 0 (slot 3)
        assert dpq.select(2) == [3, 0]

    def test_waiting_thread_promotes_past_granted(self):
        # the bound's core invariant: once a granted thread drops
        # behind a waiting one, it cannot get ahead again unserved —
        # with p=3, q=2 a request is denied at most floor((p-1)/q)=1
        # selections before reaching the top slots
        dpq = DynamicPriorityQueueArbitration(3)
        dpq.enqueue(2)
        dpq.enqueue(0)
        dpq.enqueue(1)
        assert dpq.select(2) == [0, 1]  # the one allowed denial
        dpq.enqueue(0)
        dpq.enqueue(1)
        assert dpq.select(2) == [2, 0]  # promoted past both grantees

    def test_duplicate_enqueue_ignored(self):
        dpq = DynamicPriorityQueueArbitration(4)
        dpq.enqueue(2)
        dpq.enqueue(2)
        assert len(dpq) == 1
        assert dpq.select(4) == [2]


# -- property-based invariants -------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(ALL_NAMES),
    st.integers(min_value=1, max_value=16),
    st.data(),
)
def test_arbitration_conserves_requests(name, p, data):
    """Enqueued thread ids come out exactly once, regardless of policy."""
    policy = make(name, p=p, T=8, seed=1)
    pending: set[int] = set()
    enqueued: list[int] = []
    out: list[int] = []
    available = list(range(p))
    for step in range(30):
        policy.begin_tick(step)
        if available and data.draw(st.booleans(), label=f"enqueue@{step}"):
            thread = available.pop()
            policy.enqueue(thread)
            pending.add(thread)
            enqueued.append(thread)
        granted = policy.select(data.draw(st.integers(0, 4), label=f"q@{step}"))
        for g in granted:
            assert g in pending
            pending.discard(g)
            out.append(g)
        assert len(policy) == len(pending)
    out += policy.select(p)
    assert sorted(out) == sorted(enqueued)


# -- tie-breaking determinism (the drain-plan oracle) ---------------------
#
# The quiescent-interval fast-forward (repro.core.drain) replays grant
# decisions outside the tick loop via ArbitrationPolicy.drain_plan, so
# every policy's select() order under ties, short queues, and oversized
# limits is pinned semantics: changing any of these is an
# ENGINE_SEMANTICS_VERSION bump, not a refactor detail.

PRIORITY_NAMES = [
    "priority",
    "dynamic_priority",
    "cycle_priority",
    "cycle_reverse_priority",
    "interleave_priority",
]

ELEVEN_NAMES = ALL_NAMES + ["fr_fcfs"]


def make_any(name, p=8, T=16, seed=0):
    """Like make() but also covers fr_fcfs (needs a DRAM geometry)."""
    from repro.core.dram import DramGeometry

    return make_arbitration_policy(
        name,
        p,
        remap_period=T,
        rng=np.random.default_rng(seed),
        dram_geometry=DramGeometry(banks=4, row_pages=4),
    )


def enqueue_any(policy, thread, page=None):
    """Enqueue with a page (fr_fcfs requires one; others ignore it)."""
    policy.enqueue(thread, page if page is not None else thread)


def page_of(thread, step=0):
    """A page per (thread, step) that spreads over make_any's banks and
    rows, so fr_fcfs both hits and misses open rows."""
    return (13 * thread + 5 * step) % 97


def push_any(plan, threads, step=0):
    """``plan.push`` with the pages :func:`page_of` gives the live twin."""
    plan.push(threads, [page_of(t, step) for t in threads])


#: every registered policy that offers a drain plan
PLANNED_NAMES = [
    name
    for name in arbitration_policy_names()
    if make_any(name).drain_plan(1) is not None
]


class TestTieBreaking:
    @pytest.mark.parametrize("name", ELEVEN_NAMES)
    def test_empty_queue_selects_nothing(self, name):
        policy = make_any(name)
        policy.begin_tick(1)
        assert policy.select(4) == []
        assert policy.select(0) == []

    @pytest.mark.parametrize("name", ELEVEN_NAMES)
    def test_limit_beyond_queue_returns_whole_queue(self, name):
        policy = make_any(name)
        policy.begin_tick(1)
        for thread in (3, 1, 6):
            enqueue_any(policy, thread)
        granted = policy.select(100)
        assert sorted(granted) == [1, 3, 6]
        assert policy.select(100) == []
        assert len(policy) == 0

    def test_fifo_preserves_arrival_order(self):
        policy = make("fifo")
        for thread in (5, 2, 7, 0):
            policy.enqueue(thread)
        assert policy.select(10) == [5, 2, 7, 0]

    @pytest.mark.parametrize("name", PRIORITY_NAMES)
    def test_priority_family_grants_in_rank_order(self, name):
        policy = make(name, seed=3)
        policy.begin_tick(1)  # avoid the remap at tick 0 mid-test
        for thread in range(8):
            policy.enqueue(thread)
        ranks = policy.priorities()
        expected = sorted(range(8), key=lambda t: (int(ranks[t]), t))
        assert policy.select(8) == expected

    @pytest.mark.parametrize("name", PRIORITY_NAMES)
    def test_priority_equal_ranks_fall_back_to_thread_id(self, name):
        # Built-in permutations never produce ties, but the pinned heap
        # order is (rank, thread): under equal ranks, ascending thread
        # id. Force ties to pin that contract for subclasses/plans.
        policy = make(name, seed=3)
        policy._ranks = np.zeros(8, dtype=np.int64)
        for thread in (6, 2, 7, 1):
            policy.enqueue(thread)
        assert policy.select(8) == [1, 2, 6, 7]

    def test_random_is_deterministic_under_seed(self):
        a = make("random", seed=11)
        b = make("random", seed=11)
        for policy in (a, b):
            for thread in range(8):
                policy.enqueue(thread)
        grants_a = [a.select(3) for _ in range(3)]
        grants_b = [b.select(3) for _ in range(3)]
        assert grants_a == grants_b

    def test_round_robin_pointer_survives_oversized_limit(self):
        rr = RoundRobinArbitration(4)
        for thread in range(4):
            rr.enqueue(thread)
        assert rr.select(99) == [0, 1, 2, 3]
        rr.enqueue(3)
        rr.enqueue(0)
        # pointer sits after 3 -> wraps to 0 before revisiting 3
        assert rr.select(99) == [0, 3]

    def test_blacklist_tie_break_is_fcfs_per_class(self):
        bl = BlacklistingArbitration(8, blacklist_threshold=1)
        bl.enqueue(6)
        bl.select(1)  # blacklist 6
        for thread in (6, 3, 1, 7):
            bl.enqueue(thread)
        # pinned semantics: FCFS among non-blacklisted (3, 1, 7), then
        # the blacklisted 6 — deterministic under ties
        assert bl.select(8) == [3, 1, 7, 6]

    def test_dpq_tie_break_is_slot_order(self):
        dpq = DynamicPriorityQueueArbitration(8)
        for thread in (6, 3, 1, 7):
            dpq.enqueue(thread)
        # pinned semantics: same-tick arrivals grant in slot order
        # (initially thread id), never arrival order
        assert dpq.select(8) == [1, 3, 6, 7]
        dpq.enqueue(3)
        dpq.enqueue(0)
        # 0 kept its original slot; 3 was demoted below it
        assert dpq.select(8) == [0, 3]

    def test_fr_fcfs_row_hits_first_then_fcfs(self):
        from repro.core.dram import DramGeometry

        policy = make_arbitration_policy(
            "fr_fcfs", 8, dram_geometry=DramGeometry(banks=1, row_pages=2)
        )
        # one bank: pages 0,1 share row 0; pages 2,3 share row 1.
        policy.enqueue(0, page=0)
        policy.enqueue(1, page=2)
        policy.enqueue(2, page=1)
        first = policy.select(1)  # no open row yet: oldest wins, opens row 0
        assert first == [0]
        # thread 2 (page 1, row 0) is now a row hit and jumps thread 1
        assert policy.select(2) == [2, 1]


class TestDrainPlan:
    """drain_plan() must predict select() exactly — plan vs live oracle."""

    def test_random_opts_out(self):
        # select() draws from the RNG per grant: inherently unplannable
        policy = make_any("random")
        assert policy.drain_plan(1000) is None

    @pytest.mark.parametrize(
        "name", ["round_robin", "fr_fcfs", "blacklist", "dpq"]
    )
    def test_stateful_policies_opt_in(self, name):
        # deterministic state recurrences: both plan from copied state
        # (the pop-vs-select oracles live in tests/test_drain.py)
        policy = make_any(name)
        plan = policy.drain_plan(1000)
        assert plan is not None
        assert plan.horizon == 1000

    @pytest.mark.parametrize("name", ["fifo"] + PRIORITY_NAMES)
    def test_plan_pops_match_live_selects(self, name):
        live = make(name, p=8, T=1000, seed=5)
        live.begin_tick(1)
        for thread in (4, 1, 6):
            live.enqueue(thread)
        plan = make(name, p=8, T=1000, seed=5)
        plan.begin_tick(1)
        for thread in (4, 1, 6):
            plan.enqueue(thread)
        plan = plan.drain_plan(1000)
        assert plan is not None
        # interleave pops with arrival batches, exactly as plan_drain does
        script = [(2, [0, 3]), (2, [5]), (1, []), (3, []), (8, [])]
        for limit, arrivals in script:
            got = plan.pop(limit)
            want = live.select(limit)
            assert got == want
            plan.push(arrivals)
            for thread in arrivals:
                live.enqueue(thread)
        assert len(plan) == len(live)

    @pytest.mark.parametrize("name", PLANNED_NAMES)
    def test_plan_is_a_copy_until_commit(self, name):
        policy = make_any(name, p=8, T=1000, seed=5)
        policy.begin_tick(1)
        for thread in (4, 1, 6):
            enqueue_any(policy, thread, page_of(thread))
        plan = policy.drain_plan(1000)
        plan.pop(2)
        push_any(plan, [7])
        if plan.tick_hook is not None:
            plan.tick_hook(1000)  # a remap or a blacklist clear, on the copy
        assert sorted(policy.select(8)) == [1, 4, 6]  # live untouched

    @pytest.mark.parametrize("name", PLANNED_NAMES)
    def test_commit_installs_plan_state(self, name):
        policy = make_any(name, p=8, T=1000, seed=5)
        oracle = make_any(name, p=8, T=1000, seed=5)
        for twin in (policy, oracle):
            twin.begin_tick(1)
            for thread in (4, 1, 6):
                enqueue_any(twin, thread, page_of(thread))
        plan = policy.drain_plan(1000)
        dropped = plan.pop(2)
        push_any(plan, [0, 7], step=1)
        plan.commit()
        assert dropped == oracle.select(2)
        for thread in (0, 7):
            enqueue_any(oracle, thread, page_of(thread, step=1))
        assert len(policy) == len(oracle)
        assert policy.select(8) == oracle.select(8)

    def test_dynamic_priority_plan_rng(self):
        # the plan draws remaps from a clone: discarding it leaves the
        # live stream alone, committing advances the live Generator
        # object itself (the engine shares it with the replacement
        # policy) to where per-tick remaps would have left it
        policy = make("dynamic_priority", p=8, T=10, seed=2)
        twin = make("dynamic_priority", p=8, T=10, seed=2)
        rng = policy._rng
        before = rng.bit_generator.state
        for tau in range(1, 44):
            twin.begin_tick(tau)
        for commit in (False, True):
            plan = policy.drain_plan(1000)
            for tau in range(1, 44):  # four remaps, four draws
                plan.tick_hook(tau)
            if commit:
                plan.commit()
            else:
                assert rng.bit_generator.state == before
        assert policy._rng is rng
        assert rng.bit_generator.state == twin._rng.bit_generator.state
        assert rng.bit_generator.state != before
        assert list(policy.priorities()) == list(twin.priorities())
        assert policy.remap_count == twin.remap_count == 4

    @pytest.mark.parametrize("name", PRIORITY_NAMES)
    def test_priority_horizon_crosses_remap_boundaries(self, name):
        # horizons are no longer capped at the next boundary: the plan
        # replays the pure rank permutation itself (via tick_hook)
        policy = make(name, p=8, T=10, seed=2)
        policy.begin_tick(13)
        plan = policy.drain_plan(10_000)
        assert plan.horizon == 10_000
        assert plan.tick_hook is not None
        plan = policy.drain_plan(15)
        assert plan.horizon == 15

    @pytest.mark.parametrize("name", PRIORITY_NAMES)
    def test_cross_remap_plan_matches_live_policy(self, name):
        # drive the plan through several boundaries exactly as
        # plan_drain does (hook, then pop) against a live twin that
        # runs begin_tick per tick; grant order must never diverge
        live = make(name, p=8, T=10, seed=2)
        planned = make(name, p=8, T=10, seed=2)
        for policy in (live, planned):
            policy.begin_tick(13)
            for thread in (4, 1, 6, 3, 0, 7):
                policy.enqueue(thread)
        plan = planned.drain_plan(1000)
        got, want = [], []
        for tau in range(14, 44):
            plan.tick_hook(tau)
            live.begin_tick(tau)
            got.extend(plan.pop(1))
            want.extend(live.select(1))
            if got and tau % 3 == 0:  # keep the queue busy across remaps
                plan.push([got[-1]])
                live.enqueue(want[-1])
        assert got == want
        # commit installs the final ranks and advances remap_count and
        # the RNG stream in bulk: future remaps stay in lockstep
        plan.commit()
        assert planned.remap_count == live.remap_count
        for policy in (live, planned):
            policy.begin_tick(50)
            for thread in (2, 5, 1):
                policy.enqueue(thread)
        assert planned.select(8) == live.select(8)

    def test_fifo_horizon_is_unbounded_by_remap(self):
        policy = make("fifo")
        plan = policy.drain_plan(12345)
        assert plan.horizon == 12345

    def test_bulk_capability_flags(self):
        fifo_plan = make("fifo").drain_plan(100)
        assert fifo_plan.supports_bulk
        for name in PRIORITY_NAMES:
            policy = make(name, T=1000)
            policy.begin_tick(1)
            assert not policy.drain_plan(100).supports_bulk

        class Subclass(FIFOArbitration):
            pass

        # the bulk segment is plain FIFO's closed form, not a subclass's
        assert not Subclass(4).drain_plan(100).supports_bulk

    def test_fifo_snapshot_replace_roundtrip(self):
        policy = make("fifo")
        for thread in (4, 1, 6, 2):
            policy.enqueue(thread)
        plan = policy.drain_plan(100)
        assert plan.snapshot() == [4, 1, 6, 2]
        plan.replace([6, 2, 9])
        assert plan.snapshot() == [6, 2, 9]
        assert plan.pop(2) == [6, 2]
        plan.commit()
        assert policy.select(8) == [9]

    @pytest.mark.parametrize("name", PRIORITY_NAMES)
    def test_priority_plans_decline_bulk_interface(self, name):
        policy = make(name, T=1000)
        policy.begin_tick(1)
        policy.enqueue(3)
        plan = policy.drain_plan(100)
        assert plan.snapshot() is None
        with pytest.raises(NotImplementedError):
            plan.replace([3])

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(PLANNED_NAMES),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.data(),
    )
    def test_plan_oracle_property(self, name, seed, data):
        """Random interleavings of pops and pushes never diverge."""
        rng = np.random.default_rng(seed)
        live = make_any(name, p=6, T=1000, seed=7)
        live.begin_tick(1)
        planned = make_any(name, p=6, T=1000, seed=7)
        planned.begin_tick(1)
        start = list(rng.permutation(6)[: int(rng.integers(0, 7))])
        for thread in start:
            enqueue_any(live, int(thread), page_of(int(thread)))
            enqueue_any(planned, int(thread), page_of(int(thread)))
        plan = planned.drain_plan(1000)
        outside = sorted(set(range(6)) - set(start))
        for step in range(10):
            limit = data.draw(st.integers(0, 3), label=f"limit@{step}")
            got = plan.pop(limit)
            assert got == live.select(limit)
            outside.extend(got)
            outside.sort()
            k = data.draw(
                st.integers(0, len(outside)), label=f"arrivals@{step}"
            )
            batch = outside[:k]
            del outside[:k]
            push_any(plan, batch, step + 1)
            for thread in batch:
                enqueue_any(live, thread, page_of(thread, step + 1))
        assert len(plan) == len(live)
