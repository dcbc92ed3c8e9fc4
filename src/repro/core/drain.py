"""Quiescent-interval fast-forward: bulk-drain planning for the reference engine.

Miss-bound stretches dominate the paper's adversarial workloads: every
live core is blocked on DRAM and the far channels drain the request
queue at ``q`` grants per tick. A tick-level simulator spends O(p) work
per tick re-discovering that nothing changed; this module computes the
entire drain in one step so the reference engine can jump the clock.

The drain is *exact*, not approximate, because a miss-bound interval is
deterministic once three facts are pinned down at its entry tick:

1. **Guaranteed-miss windows.** For each live core, scan its upcoming
   references and count the prefix where every reference (a) was not
   resident at interval entry and (b) does not repeat an earlier
   reference of the same window. Disjoint traces (the model's
   Property 1, which callers must guarantee) mean no other core can
   fetch or re-fetch these pages, and evictions never make a page
   resident — so each window reference is certainly a miss when its
   turn comes, independent of anything else that happens inside the
   interval. The first reference past the window is *uncertain* (it was
   resident at entry, repeats a window page, or lies past the scan
   cap): the interval must end before that reference is classified.
2. **The grant pipeline.** Under ``protect_pending`` a granted page is
   protected until served, so a grant at tick ``tau`` is always served
   at ``tau + 1`` and the core (if continuing on a window miss)
   re-enqueues at ``tau + 2``. Entry hits are served at the entry tick
   and re-enqueue one tick later. :func:`plan_drain` replays exactly
   this recurrence against a copy of the arbitration policy (a
   :class:`~repro.core.arbitration.DrainPlan`, which runs the copy's
   own ``select``, ``enqueue`` and ``begin_tick``), so the grant order
   is the policy's own.
3. **Eviction feasibility.** Per tick, the victims needed
   (``deficit``) must come from resident pages that are not protected;
   the protected-and-resident pages at tick ``tau`` are exactly last
   tick's grants (plus the entry hits at the entry tick). The planner
   caps the interval at the first tick this fails, which is also where
   the per-tick engine would start fetching short — outside the
   fast-forward's exact regime.

The interval additionally ends at the policy's plan horizon, at
``max_ticks``, at any core's *deadline* (two ticks after its last
in-window grant, when its uncertain reference would be classified), or
when the queue runs dry. Plans are not capped at remap or blacklist
clearing boundaries: the plan's ``tick_hook`` runs the copy's
``begin_tick`` on every planned tick (Dynamic Priority draws from a
clone of the policy's generator), so the planner carries grant order
exactly across any number of boundaries. Address-aware policies
(FR-FCFS) plan too: the planner feeds each re-enqueue the core's next
requested page from ``page_streams``. Probe
samples falling inside a skipped interval are reconstructed
tick-for-tick by
:func:`repro.obs.probe.materialize_interval_samples` from the
schedule's closed-form histories, so probe series are bit-identical to
the per-tick engines' output.
"""

from __future__ import annotations

import os
from collections import deque
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .arbitration import DrainPlan

__all__ = [
    "MIN_FF_TICKS",
    "WINDOW_CAP",
    "BACKOFF_MIN",
    "BACKOFF_MAX",
    "UNBOUNDED",
    "fast_forward_enabled",
    "set_fast_forward",
    "traces_disjoint",
    "DrainSchedule",
    "FFState",
    "plan_drain",
    "record_ff_engagement",
    "response_times",
    "apply_serve_metrics",
]

#: shortest interval worth committing; below this the fixed cost of
#: building and applying a schedule exceeds the per-tick loop it saves.
MIN_FF_TICKS = 8

#: per-core guaranteed-miss scan bound per attempt. Purely a work
#: limiter: a window cut short by the cap behaves like any other
#: uncertain reference (the interval ends before it is classified) and
#: the next attempt continues from the new position.
WINDOW_CAP = 4096

#: failed-attempt backoff (ticks), doubling from MIN to MAX. A failed
#: attempt costs one window scan, so retrying every tick would negate
#: the win on hit-bound phases.
BACKOFF_MIN = 64
BACKOFF_MAX = 4096

#: horizon stand-in when neither max_ticks nor a remap boundary applies
UNBOUNDED = 1 << 62

_ff_override: bool | None = None


def fast_forward_enabled() -> bool:
    """Whether engines may attempt interval fast-forwarding.

    Resolution order: :func:`set_fast_forward` override, then the
    ``REPRO_FAST_FORWARD`` environment variable, then on. Results are
    bit-identical either way; the knob exists for benchmarking and for
    differential tests that pin the per-tick path.
    """
    if _ff_override is not None:
        return _ff_override
    env = os.environ.get("REPRO_FAST_FORWARD")
    if env is not None:
        return env.strip().lower() not in ("0", "false", "off", "no", "")
    return True


def set_fast_forward(enabled: bool | None) -> bool | None:
    """Force fast-forward on/off process-wide; returns the previous override.

    ``None`` removes the override, restoring env-var/default resolution.
    """
    global _ff_override
    previous = _ff_override
    _ff_override = None if enabled is None else bool(enabled)
    return previous


class FFState:
    """Per-run fast-forward engagement bookkeeping.

    Tracks, separately for the guaranteed-miss and guaranteed-hit
    provers, how many attempts were made and how many committed an
    interval, plus whether each prover is still worth attempting
    (``plan_ok`` flips off when the policy declines to produce a drain
    plan, ``hit_ok`` when it cannot skip idle ticks — both permanent
    for the run). :func:`record_ff_engagement` exports the totals as
    per-policy counters.
    """

    __slots__ = (
        "plan_ok",
        "hit_ok",
        "attempts_miss",
        "commits_miss",
        "attempts_hit",
        "commits_hit",
    )

    def __init__(self) -> None:
        self.plan_ok = True
        self.hit_ok = True
        self.attempts_miss = 0
        self.commits_miss = 0
        self.attempts_hit = 0
        self.commits_hit = 0

    @property
    def eligible(self) -> bool:
        """False once neither prover can ever engage again this run."""
        return self.plan_ok or self.hit_ok


def record_ff_engagement(policy_name: str, state: FFState) -> None:
    """Export a run's FF attempt/decline totals to the metrics registry.

    ``repro_ff_plan_attempts{policy=,window=hit|miss}`` counts prover
    attempts; ``repro_ff_plan_declines`` counts the attempts that did
    not commit an interval (plan refused, window too short, or plan
    infeasible). No-op when no metrics registry is active.
    """
    from ..obs.metrics import active_registry

    registry = active_registry()
    if registry is None:
        return
    attempts = registry.counter(
        "repro_ff_plan_attempts",
        "fast-forward prover attempts by policy and window kind",
    )
    declines = registry.counter(
        "repro_ff_plan_declines",
        "fast-forward prover attempts that did not commit an interval",
    )
    for window, n_attempts, n_commits in (
        ("miss", state.attempts_miss, state.commits_miss),
        ("hit", state.attempts_hit, state.commits_hit),
    ):
        if n_attempts:
            attempts.inc(n_attempts, policy=policy_name, window=window)
        dropped = n_attempts - n_commits
        if dropped:
            declines.inc(dropped, policy=policy_name, window=window)


def traces_disjoint(traces: list[np.ndarray]) -> bool:
    """Do the per-core traces touch pairwise-disjoint page sets?

    The reference engine tolerates shared pages, but the fast-forward's
    guaranteed-miss windows do not (another core could fetch a window
    page mid-interval), so it gates on this check.
    """
    non_empty = [t for t in traces if len(t)]
    if len(non_empty) <= 1:
        return True
    per_thread = sum(len(np.unique(t)) for t in non_empty)
    total = len(np.unique(np.concatenate(non_empty)))
    return per_thread == total


class DrainSchedule:
    """The exact outcome of one fast-forwarded interval ``[start, end)``.

    Serve events are tick-major with core ids ascending within a tick
    (the paper's "for each r*_i" serve order); grant events are in the
    arbitration policy's own grant order. The per-tick histories carry
    end-of-tick values, exactly what a probe sampled on that tick reads.
    """

    __slots__ = (
        "start",
        "end",
        "plan",
        "serve_threads",
        "serve_ticks",
        "grant_threads",
        "grant_ticks",
        "grants_per_tick",
        "evicts_per_tick",
        "queue_per_tick",
        "resident_per_tick",
        "final_queue_len",
        "final_resident",
        "total_evictions",
    )

    def __init__(self, start: int, end: int, plan: "DrainPlan") -> None:
        self.start = start
        self.end = end
        self.plan = plan
        self.serve_threads: list[int] = []
        self.serve_ticks: list[int] = []
        self.grant_threads: list[int] = []
        self.grant_ticks: list[int] = []
        self.grants_per_tick: list[int] = []
        self.evicts_per_tick: list[int] = []
        self.queue_per_tick: list[int] = []
        self.resident_per_tick: list[int] = []
        self.final_queue_len = 0
        self.final_resident = 0
        self.total_evictions = 0


def _bulk_steady_segment(
    plan,
    sched: DrainSchedule,
    arrivals: "dict[int, list[int]]",
    tau: int,
    end: int,
    q: int,
    capacity: int,
    R: int,
    prot: int,
    grant_avail: "dict[int, int]",
) -> "tuple[int, int, int, int, int] | bool":
    """Vectorize a settled stretch of a FIFO drain; falsy to tick on.

    Once a FIFO drain is in its pipeline steady state, the grant stream
    is closed-form: let ``P`` be the pending order (queue after this
    tick's arrivals, then next tick's already-registered arrivals — at
    any planner tick that is *every* active core, since a granted core
    is back in the queue two ticks later). Each granted q-chunk
    re-enqueues sorted, so with ``k = len(P)`` divisible by ``q`` the
    stream is ``P`` followed by tiles of ``round1`` (= P's q-chunks,
    each sorted) — chunk-sorting is idempotent from the second round
    on. Grant ``j`` lands on tick ``tau + j // q`` as long as the queue
    never runs dry, which ``k >= 2q`` guarantees (exactly ``2q`` cores
    are in flight at any moment).

    The segment covers ``n_rounds`` whole rounds (one grant per core
    per round), chosen so that no core exhausts its window inside (no
    deadlines), the re-entry tick stays two short of ``end``, and every
    tick's eviction deficit is feasible — everything else falls back to
    the per-tick planner, which re-derives state from the queue and
    arrival batches this function leaves behind. Returns the new loop
    state ``(tau, qlen, prot, R, evicted)``.

    Returns None when fewer than two rounds fit before a core's window
    runs out or before ``end``: both limits only tighten while the same
    cores stay in the pipeline, so the caller need not try again until
    one leaves it. Returns False when the segment does not fit for a
    reason that may pass on a later tick.
    """
    arr = arrivals.get(tau)
    a1_list = arrivals.get(tau + 1)
    a1 = len(a1_list) if a1_list else 0
    p0_len = len(plan) + (len(arr) if arr else 0)
    k = p0_len + a1
    if k < 2 * q or k % q or p0_len < q:
        return False
    P = plan.snapshot()
    if arr:
        P.extend(arr)
    if a1_list:
        P.extend(a1_list)
    min_avail = min(grant_avail[i] for i in P)
    n_rounds = min_avail - 1  # leave one grant: no deadline can fire inside
    cap_rounds = ((end - 2 - tau) * q) // k
    if cap_rounds < n_rounds:
        n_rounds = cap_rounds
    if n_rounds < 2:
        return None
    ticks = n_rounds * k // q
    idx = np.arange(ticks, dtype=np.int64)
    r_after = np.minimum(R + q * (idx + 1), capacity)
    r_before = np.empty(ticks, dtype=np.int64)
    r_before[0] = R
    r_before[1:] = r_after[:-1]
    deficits = q - (r_after - r_before)
    prot_arr = np.full(ticks, q, dtype=np.int64)
    prot_arr[0] = prot
    feasible = deficits <= r_before - prot_arr
    if not feasible.all():
        # Trim to whole rounds strictly before the first infeasible
        # tick; the per-tick planner then re-hits it and ends there.
        first_bad = int(np.argmin(feasible))
        n_rounds = (first_bad * q) // k
        if n_rounds < 2:
            return False
        ticks = n_rounds * k // q
        r_after = r_after[:ticks]
        deficits = deficits[:ticks]

    P_arr = np.asarray(P, dtype=np.int64)
    round1 = P_arr.reshape(-1, q).copy()
    round1.sort(axis=1)
    round1 = round1.ravel()
    grants_stream = (
        np.concatenate([P_arr, np.tile(round1, n_rounds - 1)])
        if n_rounds > 1
        else P_arr
    )

    arrivals.pop(tau, None)
    arrivals.pop(tau + 1, None)
    sched.grant_threads.extend(grants_stream.tolist())
    sched.grant_ticks.extend(np.repeat(np.arange(tau, tau + ticks), q).tolist())
    sched.serve_threads.extend(np.tile(round1, n_rounds).tolist())
    sched.serve_ticks.extend(
        np.repeat(np.arange(tau + 1, tau + 1 + ticks), q).tolist()
    )
    sched.grants_per_tick.extend([q] * ticks)
    sched.evicts_per_tick.extend(deficits.tolist())
    q_hist = np.full(ticks, k - 2 * q, dtype=np.int64)
    q_hist[0] = k - a1 - q
    sched.queue_per_tick.extend(q_hist.tolist())
    sched.resident_per_tick.extend(r_after.tolist())
    for i in P:
        grant_avail[i] -= n_rounds

    # Hand the per-tick planner the exact post-segment pipeline state:
    # the queue holds the next k - 2q stream positions, the two granted
    # chunks still in flight become the next two arrival batches.
    tail = k - 2 * q
    plan.replace(round1[:tail].tolist())
    new_tau = tau + ticks
    arrivals[new_tau] = round1[tail : tail + q].tolist()
    arrivals[new_tau + 1] = round1[tail + q :].tolist()
    return new_tau, tail, q, int(r_after[-1]), int(deficits.sum())


def plan_drain(
    plan: "DrainPlan",
    *,
    start: int,
    channels: int,
    capacity: int,
    resident0: int,
    queue0: int,
    h_threads: list[int],
    b_threads: list[int],
    grant_avail: dict[int, int],
    completes: dict[int, bool],
    page_streams: "dict[int, object] | None" = None,
) -> DrainSchedule | None:
    """Simulate the whole drain against a copy of the policy.

    ``h_threads`` / ``b_threads`` are the entry tick's ready cores whose
    current reference is resident / missing (both sorted by core id);
    cores already queued at entry are implicit in ``plan``'s copy.
    ``grant_avail`` maps every live core to the number of grants its
    guaranteed-miss window allows (mutated in place); ``completes``
    flags cores whose window reaches the end of their trace.

    When the plan's policy sets ``needs_pages`` (address-aware
    policies), ``page_streams`` must map every live core to its
    upcoming reference stream starting at the core's *current*
    reference; the planner feeds each re-enqueue the right page off
    that stream. When the plan has a ``tick_hook`` (policies with a
    ``begin_tick``), the planner invokes it once per planned tick after
    the first, exactly where the live loop runs ``begin_tick``.

    Returns ``None`` when the interval is shorter than
    :data:`MIN_FF_TICKS` (callers then fall back to per-tick execution
    and back off). The caller must treat ``plan`` and ``grant_avail``
    as consumed either way.
    """
    needs_pages = plan.needs_pages
    if needs_pages and page_streams is None:
        return None
    hook = plan.tick_hook
    end = plan.horizon
    if end - start < MIN_FF_TICKS:
        return None

    # Pending queue arrivals, keyed by arrival tick. Entry misses
    # enqueue at the entry tick; entry hits are served at the entry
    # tick and re-enqueue (their window guarantees a miss) one tick
    # later. An entry hit with an exhausted window that does not
    # complete hits its deadline immediately.
    arrivals: dict[int, list[int]] = {}
    if b_threads:
        arrivals[start] = list(b_threads)
    for i in h_threads:
        if grant_avail[i] > 0:
            arrivals.setdefault(start + 1, []).append(i)
        elif not completes[i]:
            end = start + 1
    if end - start < MIN_FF_TICKS:
        return None

    sched = DrainSchedule(start, end, plan)
    serve_threads = sched.serve_threads
    serve_ticks = sched.serve_ticks
    grant_threads = sched.grant_threads
    grant_ticks = sched.grant_ticks
    g_hist = sched.grants_per_tick
    d_hist = sched.evicts_per_tick
    q_hist = sched.queue_per_tick
    r_hist = sched.resident_per_tick

    if h_threads:
        serve_threads.extend(h_threads)
        serve_ticks.extend([start] * len(h_threads))

    R = resident0
    qlen = queue0
    prot = len(h_threads)  # resident pages eviction must not touch
    total_evicted = 0
    q = channels
    supports_bulk = plan.supports_bulk
    try_bulk = supports_bulk
    next_idx: dict[int, int] = dict.fromkeys(b_threads, 0) if needs_pages else {}
    tau = start
    while tau < end:
        if try_bulk and end - tau >= 2 * MIN_FF_TICKS:
            bulk = _bulk_steady_segment(
                plan, sched, arrivals, tau, end, q, capacity, R, prot,
                grant_avail,
            )
            if bulk is None:
                # too few rounds fit: wait for a core to leave
                try_bulk = False
            elif bulk:
                tau, qlen, prot, R, evicted = bulk
                total_evicted += evicted
                continue
        arr = arrivals.pop(tau, None)
        qlen_eff = qlen + (len(arr) if arr else 0)
        if qlen_eff == 0 and not arrivals:
            # Queue dry and nothing in flight beyond last tick's
            # grants: the drain is over. Keep tick tau inside the
            # interval only if it still serves last tick's grants —
            # and then record its (idle) history row so the per-tick
            # histories span the whole interval (its begin_tick is
            # elided with it, so replay any remap hook first).
            if g_hist and g_hist[-1]:
                if hook is not None:
                    hook(tau)
                end = tau + 1
                g_hist.append(0)
                d_hist.append(0)
                q_hist.append(qlen)
                r_hist.append(R)
            else:
                end = tau
            break
        will = qlen_eff if qlen_eff < q else q
        deficit = 0
        if will:
            free = capacity - R
            deficit = will - free
            if deficit < 0:
                deficit = 0
            elif deficit > R - prot:
                # Eviction would need a protected page: the per-tick
                # engine would fetch short here, which is outside the
                # deterministic drain regime. End before this tick
                # (which therefore keeps its live begin_tick: no hook).
                end = tau
                break
        if hook is not None and tau > start:
            # The live loop runs begin_tick(tau) before enqueuing this
            # tick's arrivals and granting; tick `start`'s already ran.
            hook(tau)
        if arr:
            if needs_pages:
                pages: list[int] = []
                for i in arr:
                    # A core's first push re-requests stream[0] only if
                    # it entered as a queued/entry miss; entry hits and
                    # re-arrivals already consumed earlier references.
                    idx = next_idx.get(i, 1)
                    pages.append(int(page_streams[i][idx]))
                    next_idx[i] = idx + 1
                plan.push(arr, pages)
            else:
                plan.push(arr)
        qlen = qlen_eff
        if will:
            granted = plan.pop(will)
            ng = len(granted)
            if ng != will:
                # Defensive: a drain plan that disagrees with its
                # policy's queue length cannot be committed safely.
                return None
            R += ng - deficit
            qlen -= ng
            total_evicted += deficit
            grant_threads.extend(granted)
            grant_ticks.extend([tau] * ng)
            batch = sorted(granted)
            serve_tick = tau + 1
            if serve_tick < end:
                # end only ever shrinks to >= tau + 2 below, so a
                # serve recorded here stays inside the interval.
                serve_threads.extend(batch)
                serve_ticks.extend([serve_tick] * len(batch))
            rearrive = tau + 2
            nxt: list[int] | None = None
            for i in batch:
                left = grant_avail[i] - 1
                grant_avail[i] = left
                if left > 0:
                    if nxt is None:
                        nxt = []
                    nxt.append(i)
                else:
                    # the core leaves the pipeline: bulk rounds may fit
                    try_bulk = supports_bulk
                    if not completes[i] and rearrive < end:
                        # Deadline: this core's next reference after the
                        # granted one is uncertain and must be
                        # classified by the per-tick engine.
                        end = rearrive
            if nxt and rearrive < end:
                arrivals.setdefault(rearrive, []).extend(nxt)
            g_hist.append(ng)
        else:
            g_hist.append(0)
            prot = 0
            d_hist.append(0)
            q_hist.append(qlen)
            r_hist.append(R)
            tau += 1
            continue
        prot = ng
        d_hist.append(deficit)
        q_hist.append(qlen)
        r_hist.append(R)
        tau += 1

    if end - start < MIN_FF_TICKS:
        return None
    # Serves recorded for a tick the eviction cap later excluded.
    while serve_ticks and serve_ticks[-1] >= end:
        serve_ticks.pop()
        serve_threads.pop()
    sched.end = end
    sched.final_queue_len = qlen
    sched.final_resident = R
    sched.total_evictions = total_evicted
    return sched


def response_times(
    serve_threads: np.ndarray,
    serve_ticks: np.ndarray,
    entry_request_tick: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-serve response times for a schedule's serve events.

    Returns ``(order, threads_sorted, ticks_sorted, w_sorted)`` where
    ``order`` is the stable thread-major permutation of the
    chronological inputs. A core's first serve in the interval answers
    the request it entered with (``w = tick - entry_request_tick + 1``);
    each later serve answers the request issued one tick after the
    previous serve, so ``w`` is the consecutive serve-tick difference.
    """
    order = np.argsort(serve_threads, kind="stable")
    th = serve_threads[order]
    tk = serve_ticks[order]
    w = np.empty(len(th), dtype=np.int64)
    if len(th):
        first = np.empty(len(th), dtype=bool)
        first[0] = True
        first[1:] = th[1:] != th[:-1]
        w[first] = tk[first] - entry_request_tick[th[first]] + 1
        diffs = tk[1:] - tk[:-1]
        rest = ~first[1:]
        w[1:][rest] = diffs[rest]
    return order, th, tk, w


def apply_serve_metrics(
    histograms: list[dict[int, int]],
    response_logs: list[list[int]] | None,
    threads_sorted: np.ndarray,
    w_sorted: np.ndarray,
    num_threads: int,
) -> None:
    """Merge an interval's serves into per-thread histogram dicts.

    ``threads_sorted`` / ``w_sorted`` come from :func:`response_times`
    (thread-major, chronological within a thread), which is exactly the
    append order the reference engine's response logs use.
    """
    if not len(threads_sorted):
        return
    max_w = int(w_sorted.max())
    keys = threads_sorted * (max_w + 1) + w_sorted
    unique_keys, counts = np.unique(keys, return_counts=True)
    for key, count in zip(unique_keys.tolist(), counts.tolist()):
        thread, w = divmod(key, max_w + 1)
        hist = histograms[thread]
        hist[w] = hist.get(w, 0) + count
    if response_logs is not None:
        bounds = np.searchsorted(threads_sorted, np.arange(num_threads + 1))
        for i in range(num_threads):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                response_logs[i].extend(w_sorted[lo:hi].tolist())
