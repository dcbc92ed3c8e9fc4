"""Far-channel arbitration policies (DRAM request-queue disciplines).

This is the paper's central object of study. Each core has at most one
outstanding DRAM request (it blocks until its current page is served),
so the request queue holds at most ``p`` entries and arbitration means:
*each tick, grant up to* ``q`` *of the waiting cores a far channel*.

Policies:

* :class:`FIFOArbitration` — First-Come-First-Served, the FCFS baseline
  used by real DRAM controllers (and provably Omega(p)-bad, Theorem 2).
* :class:`PriorityArbitration` — static strict priority order
  (O(1)-competitive for q=1, Theorem 1; O(q) for q channels, Theorem 3).
* :class:`DynamicPriorityArbitration` — the paper's proposal: re-draw a
  uniformly random priority permutation every ``T`` ticks.
* :class:`CyclePriorityArbitration` — deterministic variant:
  ``pi'(i) = (pi(i) + 1) mod p`` every ``T`` ticks (Definition 1).
* :class:`CycleReversePriorityArbitration` — cycles the other way
  (``pi'(i) = (pi(i) - 1) mod p``); listed in the paper's sweep.
* :class:`InterleavePriorityArbitration` — deterministic riffle of the
  priority order every ``T`` ticks; listed in the paper's sweep. The
  paper does not spell out the permutation; we use the perfect
  out-riffle (top half interleaved with bottom half), which moves
  every thread far from its previous rank without randomness.
* :class:`RandomArbitration` — grants channels to uniformly random
  waiting cores; the ``T -> 1`` limit of Dynamic Priority (section 4).
* :class:`RoundRobinArbitration` — cyclic scan over core ids, a common
  fair hardware arbiter, included as an extra baseline.
* :class:`FRFCFSArbitration` — first-ready FCFS [49], the discipline of
  real DRAM controllers (section 1.3): open-row ("ready") requests are
  served before older row-missing ones, using the bank/row geometry of
  :mod:`repro.core.dram`.
* :class:`BlacklistingArbitration` — the Blacklisting memory scheduler
  (Subramanian et al.): FCFS, except threads whose requests were served
  in long consecutive streaks are blacklisted and deprioritized until
  the periodic clearing interval; application-aware fairness without
  per-thread ranking hardware.
* :class:`DynamicPriorityQueueArbitration` — the Dynamic Priority Queue
  SDRAM arbiter (Shah et al.): requestors occupy priority slots; a
  served requestor drops to the lowest slot and every other requestor
  implicitly promotes, which yields an analytic worst-case per-request
  latency bound (see :func:`repro.theory.dpq_latency_bound`).

Priorities follow the paper's Definition 1: ``pi`` maps thread ids to
priority ranks, and *smaller rank = higher priority* (static Priority is
the identity, so thread 0 is served first).
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque

import numpy as np

__all__ = [
    "ArbitrationPolicy",
    "DrainPlan",
    "FIFOArbitration",
    "PriorityArbitration",
    "DynamicPriorityArbitration",
    "CyclePriorityArbitration",
    "CycleReversePriorityArbitration",
    "InterleavePriorityArbitration",
    "RandomArbitration",
    "RoundRobinArbitration",
    "FRFCFSArbitration",
    "BlacklistingArbitration",
    "DynamicPriorityQueueArbitration",
    "make_arbitration_policy",
    "register_arbitration_policy",
    "arbitration_policy_names",
    "riffle_permutation",
]


def riffle_permutation(ranks: np.ndarray) -> np.ndarray:
    """Perfect out-riffle of a rank array.

    Threads ranked ``0..ceil(p/2)-1`` go to even ranks ``0,2,4,...`` and
    the rest to odd ranks ``1,3,5,...``, i.e. the top and bottom halves
    of the priority order are interleaved.
    """
    p = len(ranks)
    half = (p + 1) // 2
    new_ranks = np.where(ranks < half, 2 * ranks, 2 * (ranks - half) + 1)
    return new_ranks.astype(ranks.dtype, copy=False)


class ArbitrationPolicy(ABC):
    """Interface shared by all far-channel arbitration policies."""

    name: str = ""

    #: True for policies that cannot operate without the paper's T:
    #: :func:`make_arbitration_policy` rejects construction with
    #: ``remap_period=None`` up front instead of letting the policy fail
    #: deep in its constructor. Honored for custom registrations too —
    #: set it on any policy whose constructor requires ``remap_period``.
    requires_remap_period: bool = False

    def __init__(self, num_threads: int) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads

    @abstractmethod
    def __len__(self) -> int:
        """Number of waiting requests."""

    @abstractmethod
    def enqueue(self, thread: int, page: int | None = None) -> None:
        """Add ``thread``'s (single) outstanding request to the queue.

        ``page`` is the requested page; only address-aware policies
        (FR-FCFS) use it, the rest ignore it.
        """

    @abstractmethod
    def select(self, limit: int) -> list[int]:
        """Remove and return up to ``limit`` threads to be granted channels."""

    def begin_tick(self, tick: int) -> None:
        """Step 1 of the simulation tick; remapping policies override."""

    def priorities(self) -> np.ndarray | None:
        """Current thread-id -> rank map, or ``None`` for rankless policies."""
        return None

    def drain_plan(self, limit: int, horizon: int) -> "DrainPlan | None":
        """A committable snapshot of future grant order, or ``None``.

        The reference engine's quiescent-interval fast-forward asks the policy to
        predict its own ``select`` sequence: the returned plan must pop
        and push exactly as the live policy would over ticks in
        ``[now, plan.horizon)``. ``begin_tick`` effects inside that
        range must either be absent, or replayed by the plan itself via
        its ``tick_hook`` (the priority family replays remaps this
        way). ``limit`` is the per-tick grant cap the engine will use.

        The default is ``None``: the engine falls back to per-tick
        execution, which is always correct. Every built-in policy
        except ``random`` overrides this; custom policies may opt in
        the same way, and subclasses of an opted-in policy that add
        per-tick ``begin_tick`` effects must override it back to
        ``None``.
        """
        return None

    def skip_idle_ticks(self, start: int, end: int) -> bool:
        """Apply ``begin_tick`` effects for elided ticks ``(start, end)``.

        The reference engine's guaranteed-*hit* fast-forward never touches the
        request queue (it stays empty for the whole interval), so the
        only policy state that can drift is whatever ``begin_tick``
        mutates. Implementations must either apply those effects for
        every tick strictly between ``start`` and ``end`` and return
        True, or mutate nothing and return False — a False return
        makes the engine fall back to per-tick execution.

        The base implementation returns True exactly when the policy
        inherits the no-op ``begin_tick`` (nothing to replay); policies
        that override ``begin_tick`` must override this too to stay
        hit-fast-forwardable.
        """
        return type(self).begin_tick is ArbitrationPolicy.begin_tick


class DrainPlan:
    """Interface of the object :meth:`ArbitrationPolicy.drain_plan` returns.

    A plan owns a *copy* of the policy's queue state. The engine pops
    and pushes against the copy while planning an interval; if the
    interval is committed, :meth:`commit` installs the final state back
    into the policy in one step, otherwise the plan is discarded and
    the policy is untouched.
    """

    #: first tick (exclusive bound) the plan's grant order may be wrong
    #: at — e.g. the policy's next remap boundary.
    horizon: int = 0

    #: True when the plan is a pure FIFO stream: grants come off the
    #: front in stored order and arrival batches append at the back.
    #: Enables the planner's vectorized steady-state segment
    #: (:func:`repro.core.drain.plan_drain`), which then reads the
    #: whole order via :meth:`snapshot` and installs the post-segment
    #: order via :meth:`replace`. Rank-driven plans must leave this
    #: False — their grant order is not a function of arrival order.
    supports_bulk: bool = False

    #: Optional per-tick callback ``tick_hook(tau)``: the planner calls
    #: it once per planned tick (mirroring where ``begin_tick`` runs in
    #: the live loop) so a plan can replay deterministic ``begin_tick``
    #: effects — e.g. remap-boundary rank permutations — inside the
    #: planned copy. ``None`` means the plan has nothing to replay.
    tick_hook = None

    #: True when :meth:`push` needs the requested page for each pushed
    #: thread (address-aware plans, e.g. FR-FCFS). The planner then
    #: passes per-thread page streams; engines that cannot supply pages
    #: must treat such a plan as unavailable.
    needs_pages: bool = False

    def __len__(self) -> int:  # pragma: no cover - interface default
        raise NotImplementedError

    def snapshot(self) -> "list[int] | None":
        """The full pending order front-to-back (bulk-capable plans only)."""
        return None

    def replace(self, threads: "list[int]") -> None:
        """Overwrite the pending order (bulk-capable plans only)."""
        raise NotImplementedError

    def pop(self, limit: int) -> list[int]:
        """What ``select(limit)`` would return next."""
        raise NotImplementedError

    def push(self, threads: list[int], pages: "list[int] | None" = None) -> None:
        """Mirror of ``enqueue`` for a same-tick batch (core-id sorted).

        ``pages`` carries the requested page per thread; only plans
        with :attr:`needs_pages` set consume it.
        """
        raise NotImplementedError

    def commit(self) -> None:
        """Install the planned end state into the live policy."""
        raise NotImplementedError


class _FifoDrainPlan(DrainPlan):
    """FIFO grants in queue order; arrival batches append."""

    __slots__ = ("_policy", "_queue", "horizon")

    supports_bulk = True

    def __init__(self, policy: "FIFOArbitration", horizon: int) -> None:
        self._policy = policy
        self._queue: deque[int] = deque(policy._queue)
        self.horizon = horizon

    def __len__(self) -> int:
        return len(self._queue)

    def pop(self, limit: int) -> list[int]:
        queue = self._queue
        n = min(limit, len(queue))
        return [queue.popleft() for _ in range(n)]

    def push(self, threads: list[int], pages: list[int] | None = None) -> None:
        self._queue.extend(threads)

    def snapshot(self) -> list[int]:
        return list(self._queue)

    def replace(self, threads: list[int]) -> None:
        self._queue = deque(threads)

    def commit(self) -> None:
        self._policy._queue = self._queue


class _PriorityDrainPlan(DrainPlan):
    """Priority-family grants in (rank, thread) order.

    Built from the waiting set with a fresh heap, which is equivalent
    to the policy's lazily-cleaned heap: stale entries only ever get
    skipped.

    With ``cross_period`` set, the plan spans remap boundaries: its
    ``tick_hook`` applies the policy's deterministic rank permutation
    (:meth:`PriorityArbitration._permute_ranks`, fed by a cloned rng so
    Dynamic Priority's random draws replay exactly) at every boundary
    tick inside the planned interval, so the grant order stays exact
    across arbitrarily many remaps. :meth:`commit` then installs the
    final ranks, advances ``remap_count`` in bulk, and syncs the live
    rng to the clone; discarding the plan rolls everything back for
    free because the policy was never touched. Without ``cross_period``
    (no remap period) ranks never change.
    """

    __slots__ = (
        "_policy",
        "_waiting",
        "_heap",
        "_ranks",
        "_period",
        "_remaps",
        "_rng",
        "horizon",
    )

    def __init__(
        self,
        policy: "PriorityArbitration",
        horizon: int,
        cross_period: int | None = None,
    ) -> None:
        self._policy = policy
        self._ranks = policy._ranks
        self._waiting = set(policy._waiting)
        self._heap = [(int(self._ranks[t]), t) for t in self._waiting]
        heapq.heapify(self._heap)
        self.horizon = horizon
        self._period = cross_period
        self._remaps = 0
        self._rng: np.random.Generator | None = None
        if cross_period is not None:
            bit_gen = policy._rng.bit_generator
            clone = type(bit_gen)()
            clone.state = bit_gen.state
            self._rng = np.random.Generator(clone)
            self.tick_hook = self._tick_hook

    def __len__(self) -> int:
        return len(self._waiting)

    def _tick_hook(self, tau: int) -> None:
        if tau % self._period:
            return
        # Mirror of PriorityArbitration.remap() on the planned copy:
        # permute ranks (a pure function of the old ranks + cloned rng)
        # and rebuild the heap from the waiting set.
        self._ranks = self._policy._permute_ranks(self._ranks, self._rng)
        self._remaps += 1
        ranks = self._ranks
        self._heap = [(int(ranks[t]), t) for t in self._waiting]
        heapq.heapify(self._heap)

    def pop(self, limit: int) -> list[int]:
        granted: list[int] = []
        heap, waiting = self._heap, self._waiting
        while heap and len(granted) < limit:
            _, thread = heapq.heappop(heap)
            if thread in waiting:
                waiting.discard(thread)
                granted.append(thread)
        return granted

    def push(self, threads: list[int], pages: list[int] | None = None) -> None:
        heap, waiting, ranks = self._heap, self._waiting, self._ranks
        for thread in threads:
            waiting.add(thread)
            heapq.heappush(heap, (int(ranks[thread]), thread))

    def commit(self) -> None:
        policy = self._policy
        policy._waiting = self._waiting
        if self._remaps:
            policy._ranks = self._ranks
            policy.remap_count += self._remaps
            policy._rng.bit_generator.state = self._rng.bit_generator.state
        heap = [(int(self._ranks[t]), t) for t in self._waiting]
        heapq.heapify(heap)
        policy._heap = heap


class _RoundRobinDrainPlan(DrainPlan):
    """Round-robin grants from a copied waiting bitmap + scan pointer.

    The policy's per-tick transition is a deterministic recurrence in
    ``(waiting, next)``: the plan replays the exact cyclic scan on a
    copy, so the grant order is exact over any horizon.
    """

    __slots__ = ("_policy", "_waiting", "_count", "_next", "horizon")

    def __init__(self, policy: "RoundRobinArbitration", horizon: int) -> None:
        self._policy = policy
        self._waiting = policy._waiting.copy()
        self._count = policy._count
        self._next = policy._next
        self.horizon = horizon

    def __len__(self) -> int:
        return self._count

    def pop(self, limit: int) -> list[int]:
        granted: list[int] = []
        waiting = self._waiting
        p = self._policy.num_threads
        pos = self._next
        scanned = 0
        target = min(limit, self._count)
        while len(granted) < target and scanned < p:
            if waiting[pos]:
                waiting[pos] = False
                granted.append(pos)
            pos = (pos + 1) % p
            scanned += 1
        self._count -= len(granted)
        self._next = pos
        return granted

    def push(self, threads: list[int], pages: list[int] | None = None) -> None:
        waiting = self._waiting
        for thread in threads:
            if not waiting[thread]:
                waiting[thread] = True
                self._count += 1

    def commit(self) -> None:
        policy = self._policy
        policy._waiting = self._waiting
        policy._count = self._count
        policy._next = self._next


class _FrfcfsDrainPlan(DrainPlan):
    """FR-FCFS grants from a copied request queue + bank open-row state.

    Row-hit streaks are a deterministic function of the queued
    ``(thread, page)`` pairs and the open rows, both copied here; the
    plan needs the requested page of every future arrival, so it sets
    :attr:`needs_pages` and the planner feeds per-thread page streams
    through :meth:`push`.
    """

    __slots__ = ("_policy", "_queue", "_banks", "horizon")

    needs_pages = True

    def __init__(self, policy: "FRFCFSArbitration", horizon: int) -> None:
        from .dram import BankState

        self._policy = policy
        self._queue: deque[tuple[int, int]] = deque(policy._queue)
        banks = BankState(policy.geometry)
        banks._open_rows.update(policy._banks._open_rows)
        self._banks = banks
        self.horizon = horizon

    def __len__(self) -> int:
        return len(self._queue)

    def pop(self, limit: int) -> list[int]:
        granted: list[int] = []
        queue, banks = self._queue, self._banks
        is_row_hit = banks.is_row_hit
        while queue and len(granted) < limit:
            chosen = None
            for idx, (_, page) in enumerate(queue):
                if is_row_hit(page):
                    chosen = idx
                    break
            if chosen is None:
                chosen = 0  # no ready request: oldest wins
            thread, page = queue[chosen]
            del queue[chosen]
            banks.access(page)
            granted.append(thread)
        return granted

    def push(self, threads: list[int], pages: list[int] | None = None) -> None:
        if pages is None:
            raise ValueError("fr_fcfs drain plan requires pages on push")
        self._queue.extend(zip(threads, pages))

    def commit(self) -> None:
        policy = self._policy
        policy._queue = self._queue
        policy._banks = self._banks


def _blacklist_grant(
    queue: "deque[int]", blacklisted: np.ndarray, limit: int
) -> list[int]:
    """Pop up to ``limit`` threads: oldest non-blacklisted first, then
    oldest blacklisted. Shared by the live policy and its drain plan so
    the two grant orders cannot diverge.
    """
    if limit <= 0 or not queue:
        return []
    granted: list[int] = []
    skipped: deque[int] = deque()
    while queue and len(granted) < limit:
        thread = queue.popleft()
        if blacklisted[thread]:
            skipped.append(thread)
        else:
            granted.append(thread)
    while skipped and len(granted) < limit:
        granted.append(skipped.popleft())
    # un-granted blacklisted entries are older than everything left in
    # the queue: re-prepending them preserves FCFS order exactly
    while skipped:
        queue.appendleft(skipped.pop())
    return granted


def _blacklist_note_serves(
    granted: list[int],
    blacklisted: np.ndarray,
    streak_thread: int,
    streak: int,
    threshold: int,
) -> tuple[int, int]:
    """Advance the served-request streak counter over ``granted``.

    A thread whose streak reaches ``threshold`` is blacklisted and the
    streak restarts. Returns the new ``(streak_thread, streak)``.
    """
    for thread in granted:
        if thread == streak_thread:
            streak += 1
        else:
            streak_thread = thread
            streak = 1
        if streak >= threshold:
            blacklisted[thread] = True
            streak = 0
    return streak_thread, streak


class _BlacklistDrainPlan(DrainPlan):
    """Blacklisting grants from a copied queue + streak/blacklist state.

    The per-tick transition is a deterministic recurrence in
    ``(queue, blacklisted, streak)``; the plan replays it on copies, and
    its ``tick_hook`` mirrors :meth:`BlacklistingArbitration.begin_tick`
    by clearing the copied blacklist at every clearing boundary inside
    the planned interval.
    """

    __slots__ = (
        "_policy",
        "_queue",
        "_blacklisted",
        "_streak_thread",
        "_streak",
        "horizon",
        "tick_hook",
    )

    def __init__(self, policy: "BlacklistingArbitration", horizon: int) -> None:
        self._policy = policy
        self._queue: deque[int] = deque(policy._queue)
        self._blacklisted = policy._blacklisted.copy()
        self._streak_thread = policy._streak_thread
        self._streak = policy._streak
        self.horizon = horizon
        self.tick_hook = self._tick_hook

    def __len__(self) -> int:
        return len(self._queue)

    def _tick_hook(self, tau: int) -> None:
        if tau % self._policy.blacklist_clear_interval == 0:
            self._blacklisted[:] = False
            self._streak_thread = -1
            self._streak = 0

    def pop(self, limit: int) -> list[int]:
        granted = _blacklist_grant(self._queue, self._blacklisted, limit)
        self._streak_thread, self._streak = _blacklist_note_serves(
            granted,
            self._blacklisted,
            self._streak_thread,
            self._streak,
            self._policy.blacklist_threshold,
        )
        return granted

    def push(self, threads: list[int], pages: list[int] | None = None) -> None:
        self._queue.extend(threads)

    def commit(self) -> None:
        policy = self._policy
        policy._queue = self._queue
        policy._blacklisted = self._blacklisted
        policy._streak_thread = self._streak_thread
        policy._streak = self._streak


def _dpq_grant(order: list[int], waiting: np.ndarray, target: int) -> list[int]:
    """Grant up to ``target`` waiting threads in priority-slot order and
    drop the granted ones to the lowest slots (everyone else implicitly
    promotes). Shared by the live policy and its drain plan.
    """
    if target <= 0:
        return []
    granted: list[int] = []
    for thread in order:
        if waiting[thread]:
            waiting[thread] = False
            granted.append(thread)
            if len(granted) == target:
                break
    if granted:
        taken = set(granted)
        order[:] = [t for t in order if t not in taken] + granted
    return granted


class _DpqDrainPlan(DrainPlan):
    """DPQ grants from a copied slot order + waiting bitmap.

    Like round-robin, the per-tick transition is a deterministic
    recurrence in ``(order, waiting)``: the plan replays the exact slot
    scan and demotion on copies, so the grant order is exact over any
    horizon.
    """

    __slots__ = ("_policy", "_order", "_waiting", "_count", "horizon")

    def __init__(
        self, policy: "DynamicPriorityQueueArbitration", horizon: int
    ) -> None:
        self._policy = policy
        self._order = list(policy._order)
        self._waiting = policy._waiting.copy()
        self._count = policy._count
        self.horizon = horizon

    def __len__(self) -> int:
        return self._count

    def pop(self, limit: int) -> list[int]:
        granted = _dpq_grant(
            self._order, self._waiting, min(limit, self._count)
        )
        self._count -= len(granted)
        return granted

    def push(self, threads: list[int], pages: list[int] | None = None) -> None:
        waiting = self._waiting
        for thread in threads:
            if not waiting[thread]:
                waiting[thread] = True
                self._count += 1

    def commit(self) -> None:
        policy = self._policy
        policy._order = self._order
        policy._waiting = self._waiting
        policy._count = self._count


class FIFOArbitration(ArbitrationPolicy):
    """First-Come-First-Served: grant channels in arrival order.

    Ties within a tick are broken by thread id (the engine enqueues
    same-tick misses in id order).
    """

    name = "fifo"

    def __init__(self, num_threads: int) -> None:
        super().__init__(num_threads)
        self._queue: deque[int] = deque()

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, thread: int, page: int | None = None) -> None:
        self._queue.append(thread)

    def select(self, limit: int) -> list[int]:
        queue = self._queue
        n = min(limit, len(queue))
        return [queue.popleft() for _ in range(n)]

    def drain_plan(self, limit: int, horizon: int) -> _FifoDrainPlan:
        return _FifoDrainPlan(self, horizon)


class PriorityArbitration(ArbitrationPolicy):
    """Static strict-priority arbitration (identity permutation).

    Base class for every priority-family policy: holds the current rank
    array and a lazily rebuilt min-heap of waiting ``(rank, thread)``
    pairs. Subclasses permute ranks in :meth:`remap`.
    """

    name = "priority"

    def __init__(
        self,
        num_threads: int,
        remap_period: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_threads)
        self.remap_period = remap_period
        self._rng = rng if rng is not None else np.random.default_rng()
        self._ranks = np.arange(num_threads, dtype=np.int64)
        self._waiting: set[int] = set()
        self._heap: list[tuple[int, int]] = []
        self.remap_count = 0

    def __len__(self) -> int:
        return len(self._waiting)

    def priorities(self) -> np.ndarray:
        return self._ranks.copy()

    def enqueue(self, thread: int, page: int | None = None) -> None:
        self._waiting.add(thread)
        heapq.heappush(self._heap, (int(self._ranks[thread]), thread))

    def select(self, limit: int) -> list[int]:
        granted: list[int] = []
        heap, waiting = self._heap, self._waiting
        while heap and len(granted) < limit:
            _, thread = heapq.heappop(heap)
            if thread in waiting:
                waiting.discard(thread)
                granted.append(thread)
        return granted

    def begin_tick(self, tick: int) -> None:
        period = self.remap_period
        if period is not None and tick % period == 0:
            self.remap()

    def skip_idle_ticks(self, start: int, end: int) -> bool:
        # begin_tick with an empty queue only ever remaps; replay every
        # boundary strictly inside (start, end) in one sweep.
        period = self.remap_period
        if period is not None:
            first = (start // period + 1) * period
            for _tau in range(first, end, period):
                self.remap()
        return True

    def drain_plan(self, limit: int, horizon: int) -> _PriorityDrainPlan:
        return _PriorityDrainPlan(self, horizon, cross_period=self.remap_period)

    def remap(self) -> None:
        """Permute ranks and rebuild the waiting heap.

        Static Priority keeps the identity permutation; subclasses
        override :meth:`_permute_ranks`.
        """
        self._ranks = self._permute_ranks(self._ranks, self._rng)
        self.remap_count += 1
        ranks = self._ranks
        self._heap = [(int(ranks[t]), t) for t in self._waiting]
        heapq.heapify(self._heap)

    def _permute_ranks(
        self, ranks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Pure remap step: next rank array from the current one.

        Must not mutate ``ranks`` and must draw randomness only from
        ``rng`` — this is what lets drain plans replay remaps on a
        copy (cross-remap planning). Static Priority is the identity;
        subclasses override this.
        """
        return ranks


class DynamicPriorityArbitration(PriorityArbitration):
    """Dynamic Priority: a fresh uniformly random permutation every T ticks."""

    name = "dynamic_priority"
    requires_remap_period = True

    def _permute_ranks(
        self, ranks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return rng.permutation(len(ranks)).astype(np.int64)


class CyclePriorityArbitration(PriorityArbitration):
    """Cycle Priority (Definition 1): ``pi'(i) = (pi(i) + 1) mod p``."""

    name = "cycle_priority"
    requires_remap_period = True

    def _permute_ranks(
        self, ranks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return (ranks + 1) % self.num_threads


class CycleReversePriorityArbitration(PriorityArbitration):
    """Reverse cycling: ``pi'(i) = (pi(i) - 1) mod p`` (paper's sweep)."""

    name = "cycle_reverse_priority"
    requires_remap_period = True

    def _permute_ranks(
        self, ranks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return (ranks + self.num_threads - 1) % self.num_threads


class InterleavePriorityArbitration(PriorityArbitration):
    """Interleave scheme: perfect out-riffle of the rank order every T ticks."""

    name = "interleave_priority"
    requires_remap_period = True

    def _permute_ranks(
        self, ranks: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        return riffle_permutation(ranks)


class RandomArbitration(ArbitrationPolicy):
    """Grant channels to uniformly random waiting cores each tick.

    Section 4: the ``T -> 1`` limit of Dynamic Priority "approaches
    purely random selection, which has the same expected waiting time
    in the DRAM queue for each thread as FIFO".
    """

    name = "random"

    def __init__(
        self,
        num_threads: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(num_threads)
        if rng is None:
            # An unseeded generator here would make directly constructed
            # runs irreproducible (and poison result caches keyed on the
            # config); fall back to a fixed seed instead.
            from ..obs.log import get_logger, warn_once

            warn_once(
                get_logger("core"),
                "random-arbitration-default-rng",
                "RandomArbitration built without rng; using a "
                "deterministic seed-0 generator — pass rng= (or go "
                "through SimulationConfig.seed) to control the stream",
            )
            rng = np.random.default_rng(0)
        self._rng = rng
        self._threads: list[int] = []
        self._index: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._threads)

    def enqueue(self, thread: int, page: int | None = None) -> None:
        self._index[thread] = len(self._threads)
        self._threads.append(thread)

    def select(self, limit: int) -> list[int]:
        granted: list[int] = []
        threads, index = self._threads, self._index
        rng = self._rng
        for _ in range(min(limit, len(threads))):
            pos = int(rng.integers(len(threads)))
            thread = threads[pos]
            last = threads.pop()
            if last != thread:
                threads[pos] = last
                index[last] = pos
            del index[thread]
            granted.append(thread)
        return granted


class RoundRobinArbitration(ArbitrationPolicy):
    """Grant channels in cyclic thread-id order after the last grant."""

    name = "round_robin"

    def __init__(self, num_threads: int) -> None:
        super().__init__(num_threads)
        self._waiting = np.zeros(num_threads, dtype=bool)
        self._count = 0
        self._next = 0

    def __len__(self) -> int:
        return self._count

    def enqueue(self, thread: int, page: int | None = None) -> None:
        if not self._waiting[thread]:
            self._waiting[thread] = True
            self._count += 1

    def select(self, limit: int) -> list[int]:
        granted: list[int] = []
        waiting = self._waiting
        p = self.num_threads
        pos = self._next
        scanned = 0
        target = min(limit, self._count)
        while len(granted) < target and scanned < p:
            if waiting[pos]:
                waiting[pos] = False
                granted.append(pos)
            pos = (pos + 1) % p
            scanned += 1
        self._count -= len(granted)
        self._next = pos
        return granted

    def drain_plan(self, limit: int, horizon: int) -> _RoundRobinDrainPlan:
        return _RoundRobinDrainPlan(self, horizon)


class FRFCFSArbitration(ArbitrationPolicy):
    """First-Ready FCFS: the discipline of real DRAM controllers [49].

    Among waiting requests, those hitting a bank's open row ("ready")
    are granted first, oldest ready first; when nothing is ready, plain
    FCFS order applies. In the HBM+DRAM model every transfer still
    costs one tick — FR-FCFS matters here purely as a *reordering* of
    the queue, letting the row-locality heuristic real hardware uses be
    compared against FIFO and the priority schemes (section 1.3).
    """

    name = "fr_fcfs"

    def __init__(
        self,
        num_threads: int,
        geometry: "DramGeometry | None" = None,
    ) -> None:
        super().__init__(num_threads)
        from .dram import BankState, DramGeometry

        self.geometry = geometry if geometry is not None else DramGeometry()
        self._banks = BankState(self.geometry)
        self._queue: deque[tuple[int, int]] = deque()  # (thread, page)

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, thread: int, page: int | None = None) -> None:
        if page is None:
            raise ValueError("fr_fcfs requires the requested page on enqueue")
        self._queue.append((thread, page))

    def select(self, limit: int) -> list[int]:
        granted: list[int] = []
        queue, banks = self._queue, self._banks
        is_row_hit = banks.is_row_hit
        while queue and len(granted) < limit:
            chosen = None
            for idx, (_, page) in enumerate(queue):
                if is_row_hit(page):
                    chosen = idx
                    break
            if chosen is None:
                chosen = 0  # no ready request: oldest wins
            thread, page = queue[chosen]
            del queue[chosen]
            banks.access(page)
            granted.append(thread)
        return granted

    def drain_plan(self, limit: int, horizon: int) -> _FrfcfsDrainPlan:
        return _FrfcfsDrainPlan(self, horizon)


class BlacklistingArbitration(ArbitrationPolicy):
    """The Blacklisting memory scheduler (Subramanian et al.).

    FCFS, with one twist: a per-scheduler streak counter tracks how
    many *consecutive* grants went to the same thread. A thread whose
    streak reaches ``blacklist_threshold`` is blacklisted; blacklisted
    threads are deprioritized (served only when no non-blacklisted
    request is waiting, oldest first within each class) until the
    blacklist is cleared, which happens every
    ``blacklist_clear_interval`` ticks. The scheme approximates
    application-aware fairness without maintaining a per-thread
    ranking. Ties are broken FCFS within each class, and same-tick
    arrivals enqueue in core-id order like FIFO.
    """

    name = "blacklist"

    def __init__(
        self,
        num_threads: int,
        blacklist_threshold: int = 4,
        blacklist_clear_interval: int = 1000,
    ) -> None:
        super().__init__(num_threads)
        if blacklist_threshold < 1:
            raise ValueError(
                f"blacklist_threshold must be >= 1, got {blacklist_threshold}"
            )
        if blacklist_clear_interval < 1:
            raise ValueError(
                "blacklist_clear_interval must be >= 1, got "
                f"{blacklist_clear_interval}"
            )
        self.blacklist_threshold = blacklist_threshold
        self.blacklist_clear_interval = blacklist_clear_interval
        self._queue: deque[int] = deque()
        self._blacklisted = np.zeros(num_threads, dtype=bool)
        self._streak_thread = -1
        self._streak = 0

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, thread: int, page: int | None = None) -> None:
        self._queue.append(thread)

    def begin_tick(self, tick: int) -> None:
        if tick % self.blacklist_clear_interval == 0:
            self._clear()

    def _clear(self) -> None:
        self._blacklisted[:] = False
        self._streak_thread = -1
        self._streak = 0

    def select(self, limit: int) -> list[int]:
        granted = _blacklist_grant(self._queue, self._blacklisted, limit)
        self._streak_thread, self._streak = _blacklist_note_serves(
            granted,
            self._blacklisted,
            self._streak_thread,
            self._streak,
            self.blacklist_threshold,
        )
        return granted

    def skip_idle_ticks(self, start: int, end: int) -> bool:
        # begin_tick only ever clears state, and no serves happen in an
        # idle window, so one clear stands in for every boundary
        # strictly inside (start, end).
        interval = self.blacklist_clear_interval
        first = (start // interval + 1) * interval
        if first < end:
            self._clear()
        return True

    def drain_plan(self, limit: int, horizon: int) -> _BlacklistDrainPlan:
        return _BlacklistDrainPlan(self, horizon)


class DynamicPriorityQueueArbitration(ArbitrationPolicy):
    """The Dynamic Priority Queue SDRAM arbiter (Shah et al.).

    Every requestor occupies a priority slot (front = highest). Each
    selection grants the waiting requestors in slot order; a granted
    requestor drops to the lowest slots while every non-granted
    requestor implicitly promotes past it. Because a requestor that
    jumped behind a waiting thread cannot get ahead of it again before
    that thread is served, at most ``p - 1`` distinct requestors are
    ever served ahead of a waiting request — the analytic worst-case
    per-request latency bound checked by
    :func:`repro.theory.check_latency_bound`.
    """

    name = "dpq"

    def __init__(self, num_threads: int) -> None:
        super().__init__(num_threads)
        self._order = list(range(num_threads))
        self._waiting = np.zeros(num_threads, dtype=bool)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def enqueue(self, thread: int, page: int | None = None) -> None:
        if not self._waiting[thread]:
            self._waiting[thread] = True
            self._count += 1

    def priorities(self) -> np.ndarray:
        ranks = np.empty(self.num_threads, dtype=np.int64)
        ranks[self._order] = np.arange(self.num_threads, dtype=np.int64)
        return ranks

    def select(self, limit: int) -> list[int]:
        granted = _dpq_grant(
            self._order, self._waiting, min(limit, self._count)
        )
        self._count -= len(granted)
        return granted

    def drain_plan(self, limit: int, horizon: int) -> _DpqDrainPlan:
        return _DpqDrainPlan(self, horizon)


_ARBITRATION_CLASSES: dict[str, type[ArbitrationPolicy]] = {
    cls.name: cls
    for cls in (
        FIFOArbitration,
        PriorityArbitration,
        DynamicPriorityArbitration,
        CyclePriorityArbitration,
        CycleReversePriorityArbitration,
        InterleavePriorityArbitration,
        RandomArbitration,
        RoundRobinArbitration,
        FRFCFSArbitration,
        BlacklistingArbitration,
        DynamicPriorityQueueArbitration,
    )
}


def register_arbitration_policy(cls: type[ArbitrationPolicy]) -> type[ArbitrationPolicy]:
    """Register a custom arbitration policy under ``cls.name``.

    Usable as a class decorator; the policy becomes constructible by
    name via :func:`make_arbitration_policy` and therefore usable in
    :class:`~repro.core.config.SimulationConfig`. The constructor must
    accept ``(num_threads)``; keyword parameters named ``remap_period``,
    ``rng``, ``geometry``, ``blacklist_threshold``, or
    ``blacklist_clear_interval`` are forwarded when present. Set
    ``requires_remap_period = True`` on the class if construction is
    meaningless without the paper's T — the factory then rejects
    ``remap_period=None`` with a clear error instead of failing deep in
    your constructor.
    """
    if not cls.name:
        raise ValueError("policy class must set a non-empty `name`")
    if cls.name in _ARBITRATION_CLASSES and _ARBITRATION_CLASSES[cls.name] is not cls:
        raise ValueError(f"arbitration policy {cls.name!r} already registered")
    _ARBITRATION_CLASSES[cls.name] = cls
    return cls


def arbitration_policy_names() -> tuple[str, ...]:
    """Registered arbitration policy names (built-in + custom)."""
    return tuple(sorted(_ARBITRATION_CLASSES))


def make_arbitration_policy(
    name: str,
    num_threads: int,
    remap_period: int | None = None,
    rng: np.random.Generator | None = None,
    dram_geometry=None,
    blacklist_threshold: int | None = None,
    blacklist_clear_interval: int | None = None,
) -> ArbitrationPolicy:
    """Instantiate an arbitration policy by registry name.

    ``remap_period`` applies to the remapping priority schemes; ``rng``
    to the stochastic ones; ``dram_geometry`` to FR-FCFS; the blacklist
    knobs to the Blacklisting scheduler (``None`` keeps the policy's
    own defaults). Parameters a policy's constructor does not declare
    are omitted. Policies whose class sets ``requires_remap_period``
    (built-in or registered) are rejected up front when
    ``remap_period`` is missing.
    """
    try:
        cls = _ARBITRATION_CLASSES[name]
    except KeyError:
        raise ValueError(
            f"unknown arbitration policy {name!r}; expected one of "
            f"{arbitration_policy_names()}"
        ) from None
    if cls.requires_remap_period and remap_period is None:
        raise ValueError(f"{name} requires remap_period (the paper's T)")
    import inspect

    params = inspect.signature(cls).parameters
    kwargs = {}
    if "remap_period" in params:
        kwargs["remap_period"] = remap_period
    if "rng" in params:
        kwargs["rng"] = rng
    if "geometry" in params:
        kwargs["geometry"] = dram_geometry
    if "blacklist_threshold" in params and blacklist_threshold is not None:
        kwargs["blacklist_threshold"] = blacklist_threshold
    if (
        "blacklist_clear_interval" in params
        and blacklist_clear_interval is not None
    ):
        kwargs["blacklist_clear_interval"] = blacklist_clear_interval
    return cls(num_threads, **kwargs)
