"""The HBM+DRAM model simulator (paper sections 2 and 3.1).

The simulator executes the paper's five-step tick verbatim:

1. If ``t`` is a multiple of the remap period ``T``, remap priorities.
2. For each current request ``r*_i`` not resident in HBM, add it to the
   DRAM request queue (each core has at most one outstanding request).
3. If there are more queued requests than empty HBM slots, evict up to
   ``q`` pages by the replacement policy.
4. For each current request resident in HBM, serve it to its core.
5. Retrieve up to ``q`` queued pages from DRAM into HBM (the far
   channels), removing them from the queue.

A core that is served its request at tick ``t`` issues its next request
at tick ``t + 1``; a core whose request is queued does nothing until the
page arrives. Response time of a serve at tick ``t`` for a request
issued at tick ``t0`` is ``t - t0 + 1``, so hits cost exactly 1 tick and
misses at least 2 (section 4).

Implementation notes
--------------------
* Steps 2 and 4 are split into a *classify* pass and a *serve* pass with
  eviction in between, exactly preserving the paper's ordering: an
  eviction at step 3 can remove a page that step 2 saw resident, in
  which case step 4 does not serve it and the core retries next tick.
* Only unblocked cores do per-tick work. Cores waiting on DRAM wake
  when their page is fetched, so total work is proportional to the
  total number of page references plus fetches — the floor for a
  faithful tick-level simulator (see the profiling-first guidance in
  the project's performance notes).
* The engine is tolerant of non-disjoint traces (pages shared between
  cores) even though the model's Property 1 assumes disjointness: a
  fetch of an already-resident page becomes a no-op and the waiting
  core is woken. With shared pages the ``protect_pending`` bookkeeping
  is best-effort (a set, not a refcount).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from . import drain
from .arbitration import make_arbitration_policy
from .config import SimulationConfig
from .dram import DramGeometry
from .metrics import MetricsCollector, SimulationResult
from .replacement import BeladyPolicy, make_replacement_policy

__all__ = [
    "ENGINE_SEMANTICS_VERSION",
    "Simulator",
    "SimulationLimitError",
    "run_simulation",
]

#: Version tag for the tick semantics every engine implements (the
#: five-step tick above plus the tie-breaking rules in docs/MODEL.md).
#: Persistent result caches key on it: bump whenever a change alters
#: *any* simulator output for *any* (workload, config), so stale cached
#: metrics can never be replayed as current ones. Pure speedups that
#: keep results bit-identical must NOT bump it.
ENGINE_SEMANTICS_VERSION = 1

_EMPTY: frozenset[int] = frozenset()


class SimulationLimitError(RuntimeError):
    """Raised when a run exceeds ``SimulationConfig.max_ticks``."""


def _next_use_indices(trace: np.ndarray) -> np.ndarray:
    """For each position j, the next position j' > j with the same page.

    Positions with no later occurrence get ``-1``. Used only by the
    Belady replacement baseline.
    """
    n = len(trace)
    nxt = np.full(n, -1, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for j in range(n - 1, -1, -1):
        page = int(trace[j])
        nxt[j] = last_seen.get(page, -1)
        last_seen[page] = j
    return nxt


def _attempt_fast_forward(
    ffstate,
    arb,
    t,
    p,
    q,
    capacity,
    traces,
    lengths,
    pos,
    current,
    request_tick,
    ready,
    residency,
    protected,
    track_protected,
    queue_len,
    fetches,
    evictions,
    done_count,
    makespan,
    metrics,
    histograms,
    response_logs,
    probes,
    probe_stride,
    ff_horizon,
):
    """One quiescent-interval fast-forward attempt at tick ``t``.

    Plans the whole queue drain (see :mod:`repro.core.drain`), and on
    success applies it in bulk — serves, response times, completions,
    evictions in exact LRU victim order, fetched-page inserts, probe
    samples — mutating the engine's state containers in place. When the
    entry tick is instead fully hit-quiescent (empty queue, every ready
    reference resident) it dispatches to the guaranteed-hit prover
    :func:`_attempt_hit_fast_forward`. ``ffstate`` (a
    :class:`repro.core.drain.FFState`) tracks prover availability and
    attempt/commit counts. Returns the updated scalars ``(t, ready,
    queue_len, fetches, evictions, done_count, makespan)``, or ``None``
    when no interval could be committed (the caller backs off and ticks
    normally).
    """
    # Entry classification: ready cores whose current reference is
    # resident serve this tick (H); the rest enqueue this tick (B).
    h_list: list[int] = []
    b_list: list[int] = []
    for i in ready:
        if current[i] in residency:
            h_list.append(i)
        else:
            b_list.append(i)

    if queue_len == 0 and not b_list:
        if not ffstate.hit_ok or not h_list:
            return None
        ffstate.attempts_hit += 1
        result = _attempt_hit_fast_forward(
            arb, t, q, traces, lengths, pos, current, request_tick,
            h_list, residency, protected, track_protected, fetches,
            evictions, done_count, makespan, metrics, histograms,
            response_logs, probes, probe_stride, ff_horizon, ffstate,
        )
        if result is not None:
            ffstate.commits_hit += 1
        return result

    if not ffstate.plan_ok:
        return None
    ffstate.attempts_miss += 1
    plan = arb.drain_plan(ff_horizon)
    if plan is None:
        ffstate.plan_ok = False
        return None
    h_set = set(h_list)

    # Guaranteed-miss windows: per live core, the prefix of upcoming
    # references that are certain misses (non-resident at entry, no
    # repeats within the window). The scan is capped for work-bounding
    # and by the plan's own horizon (cross-remap plans stretch to
    # max_ticks).
    scan_cap = drain.WINDOW_CAP
    if plan.horizon < drain.UNBOUNDED:
        span = plan.horizon - t
        if span < scan_cap:
            scan_cap = span if span > 1 else 1
    needs_pages = plan.needs_pages
    streams: dict[int, list[int]] = {}
    avail: dict[int, int] = {}
    completes: dict[int, bool] = {}
    for i in range(p):
        cur = current[i]
        if cur is None:
            continue
        trace = traces[i]
        length = lengths[i]
        start_pos = pos[i]
        seen = {cur}
        j = start_pos + 1
        j_max = start_pos + scan_cap
        if j_max > length:
            j_max = length
        while j < j_max:
            page = trace[j]
            if page in residency or page in seen:
                break
            seen.add(page)
            j += 1
        window = j - start_pos
        completes[i] = j >= length
        # An H core's current serve is not a grant; everything else in
        # the window (and a non-H core's whole window) needs a channel.
        avail[i] = window - 1 if i in h_set else window
        if needs_pages:
            streams[i] = trace[start_pos:j]

    sched = drain.plan_drain(
        plan,
        start=t,
        channels=q,
        capacity=capacity,
        resident0=len(residency),
        queue0=queue_len,
        h_threads=h_list,
        b_threads=b_list,
        grant_avail=avail,
        completes=completes,
        page_streams=streams if needs_pages else None,
    )
    if sched is None:
        return None
    end = sched.end

    # ---- read-only derivations (no state touched yet) ----------------
    n_h = len(h_list)
    h_pages = [current[i] for i in h_list]
    next_idx = list(pos)
    serve_pages: list[int] = []
    for i in sched.serve_threads:
        serve_pages.append(traces[i][next_idx[i]])
        next_idx[i] += 1

    total_evict = sched.total_evictions
    resident0 = len(residency)
    n_entry_victims = total_evict if total_evict < resident0 else resident0
    m_fetched_victims = total_evict - n_entry_victims
    if m_fetched_victims > len(serve_pages) - n_h:
        return None  # planner drift; unreachable by construction

    # Exact LRU victim order across the interval: entry-resident non-H
    # pages front-to-back (their relative order survives per-tick
    # protected stashing), then the entry hits in serve (core) order,
    # then interval-fetched pages in serve order. Eviction feasibility
    # in the plan guarantees per-tick eviction never needed a protected
    # page, so consuming this sequence reproduces it exactly.
    evict_list: list[int] = []
    if n_entry_victims:
        h_page_set = set(h_pages)
        for page in residency:
            if page in h_page_set:
                continue
            evict_list.append(page)
            if len(evict_list) == n_entry_victims:
                break
        if len(evict_list) < n_entry_victims:
            for page in h_pages:
                evict_list.append(page)
                if len(evict_list) == n_entry_victims:
                    break

    grant_ticks = sched.grant_ticks
    g_idx = len(grant_ticks)
    while g_idx > 0 and grant_ticks[g_idx - 1] == end - 1:
        g_idx -= 1
    inflight_threads = sched.grant_threads[g_idx:]

    serve_ticks_list = sched.serve_ticks
    s_idx = len(serve_ticks_list)
    while s_idx > 0 and serve_ticks_list[s_idx - 1] == end - 1:
        s_idx -= 1

    serve_threads_np = np.asarray(sched.serve_threads, dtype=np.int64)
    serve_ticks_np = np.asarray(sched.serve_ticks, dtype=np.int64)
    entry_rt = np.asarray(request_tick, dtype=np.int64)
    _, th_sorted, tk_sorted, w_sorted = drain.response_times(
        serve_threads_np, serve_ticks_np, entry_rt
    )
    if probes:
        entry_live = np.array([c is not None for c in current], dtype=bool)
        probe_rt = entry_rt.copy()
    fetches0 = fetches
    evictions0 = evictions

    # ---- commit -------------------------------------------------------
    plan.commit()
    drain.apply_serve_metrics(histograms, response_logs, th_sorted, w_sorted, p)

    counts = np.bincount(serve_threads_np, minlength=p)
    bounds = np.searchsorted(th_sorted, np.arange(p + 1))
    completion_tick: dict[int, int] = {}
    for i in np.flatnonzero(counts).tolist():
        served = int(counts[i])
        last_serve = int(tk_sorted[bounds[i + 1] - 1])
        j = pos[i] + served
        if j >= lengths[i]:
            ct = last_serve + 1
            metrics.record_completion(i, ct)
            done_count += 1
            if ct > makespan:
                makespan = ct
            completion_tick[i] = last_serve
            current[i] = None
            pos[i] = j - 1
        else:
            pos[i] = j
            current[i] = traces[i][j]
            request_tick[i] = last_serve + 1

    for page in evict_list:
        del residency[page]
    if n_h:
        evicted = set(evict_list)
        for page in h_pages:
            if page not in evicted:
                residency.move_to_end(page)
    fetched_pages = serve_pages[n_h:]
    for page in fetched_pages[m_fetched_victims:]:
        residency[page] = None
    inflight_pages = [current[i] for i in inflight_threads]
    for page in inflight_pages:
        residency[page] = None

    queue_len = sched.final_queue_len
    fetches += len(sched.grant_threads)
    evictions += total_evict

    if track_protected:
        protected.clear()
        for cur in current:
            if cur is not None:
                protected.add(cur)

    new_ready = [i for i in sched.serve_threads[s_idx:] if current[i] is not None]
    new_ready.extend(inflight_threads)
    new_ready.sort()

    if probes:
        from ..obs.probe import materialize_interval_samples

        materialize_interval_samples(
            probes,
            start=t,
            end=end,
            stride=probe_stride,
            channels=q,
            fetches0=fetches0,
            evictions0=evictions0,
            grants_per_tick=sched.grants_per_tick,
            evicts_per_tick=sched.evicts_per_tick,
            queue_per_tick=sched.queue_per_tick,
            resident_per_tick=sched.resident_per_tick,
            serve_threads=sched.serve_threads,
            serve_ticks=sched.serve_ticks,
            grant_threads=sched.grant_threads,
            grant_ticks=sched.grant_ticks,
            request_tick=probe_rt,
            live=entry_live,
            completion_tick=completion_tick,
        )

    ffstate.commits_miss += 1
    return end, new_ready, queue_len, fetches, evictions, done_count, makespan


def _attempt_hit_fast_forward(
    arb,
    t,
    q,
    traces,
    lengths,
    pos,
    current,
    request_tick,
    h_list,
    residency,
    protected,
    track_protected,
    fetches,
    evictions,
    done_count,
    makespan,
    metrics,
    histograms,
    response_logs,
    probes,
    probe_stride,
    ff_horizon,
    ffstate,
):
    """Bulk-retire a guaranteed-*hit* stretch starting at tick ``t``.

    Preconditions (established by the caller): the request queue is
    empty and every live core's current reference is resident. No fetch
    can then happen until some core reaches a non-resident reference,
    and without fetches there are no evictions — residency membership
    is frozen and each core serves one reference per tick while its
    *hit run* (maximal prefix of resident upcoming references) lasts.
    The interval ends one tick before the first non-completing core
    would classify a non-resident reference.

    The bulk apply replays per-tick effects exactly: response times are
    ``t - request_tick + 1`` for a core's first serve and 1 afterwards,
    the LRU order after the interval is "untouched pages first, then
    touched pages by last touch" (one ``move_to_end`` sweep), and the
    policy replays its elided ``begin_tick`` effects through
    :meth:`~repro.core.arbitration.ArbitrationPolicy.skip_idle_ticks`
    (refusal permanently disables this prover via ``ffstate.hit_ok``).
    Returns the same scalar tuple as :func:`_attempt_fast_forward` or
    ``None``.
    """
    cap = drain.WINDOW_CAP
    if ff_horizon < drain.UNBOUNDED:
        span = ff_horizon - t
        if span < cap:
            cap = span
    if cap < drain.MIN_FF_TICKS:
        return None

    # Per-core hit runs. The scan cost is proportional to the run (it
    # stops at the first non-resident reference), so failures are cheap
    # and long scans always pay for themselves in elided ticks.
    runs: dict[int, int] = {}
    comp: dict[int, bool] = {}
    for i in h_list:
        trace = traces[i]
        length = lengths[i]
        start_pos = pos[i]
        j = start_pos
        j_max = start_pos + cap
        if j_max > length:
            j_max = length
        while j < j_max and trace[j] in residency:
            j += 1
        runs[i] = j - start_pos
        comp[i] = j >= length
    noncomp = [runs[i] for i in h_list if not comp[i]]
    k = min(noncomp) if noncomp else max(runs.values())
    if k < drain.MIN_FF_TICKS:
        return None
    end = t + k

    # ---- read-only derivations (no state touched yet) ----------------
    s = {i: k if lengths[i] - pos[i] > k else lengths[i] - pos[i] for i in h_list}
    serve_pages_chrono: list[int] = []
    serve_threads: list[int] = []
    serve_ticks: list[int] = []
    for off in range(k):
        tau = t + off
        for i in h_list:
            if s[i] > off:
                serve_threads.append(i)
                serve_ticks.append(tau)
                serve_pages_chrono.append(traces[i][pos[i] + off])
    if probes:
        entry_live = np.array([c is not None for c in current], dtype=bool)
        probe_rt = np.asarray(request_tick, dtype=np.int64).copy()
    resident0 = len(residency)

    # ---- commit -------------------------------------------------------
    # The policy goes first: it either replays every elided begin_tick
    # (remaps) or refuses, in which case nothing has been mutated yet
    # and the per-tick loop takes over for good.
    if not arb.skip_idle_ticks(t, end):
        ffstate.hit_ok = False
        return None

    # LRU order after the interval: untouched pages keep their relative
    # order at the front; touched pages follow, ordered by *last* touch.
    # One move_to_end sweep in last-touch order reproduces the per-tick
    # touch sequence's final order exactly.
    last_order = list(dict.fromkeys(reversed(serve_pages_chrono)))
    for page in reversed(last_order):
        residency.move_to_end(page)

    completion_tick: dict[int, int] = {}
    new_ready: list[int] = []
    for i in h_list:
        si = s[i]
        hist = histograms[i]
        w0 = t - request_tick[i] + 1
        hist[w0] = hist.get(w0, 0) + 1
        if si > 1:
            hist[1] = hist.get(1, 0) + si - 1
        if response_logs is not None:
            response_logs[i].append(w0)
            if si > 1:
                response_logs[i].extend([1] * (si - 1))
        j = pos[i] + si
        if j >= lengths[i]:
            ct = t + si
            metrics.record_completion(i, ct)
            done_count += 1
            if ct > makespan:
                makespan = ct
            completion_tick[i] = t + si - 1
            current[i] = None
            pos[i] = j - 1
        else:
            pos[i] = j
            current[i] = traces[i][j]
            request_tick[i] = end
            new_ready.append(i)

    if track_protected:
        protected.clear()
        for cur in current:
            if cur is not None:
                protected.add(cur)

    if probes:
        from ..obs.probe import materialize_interval_samples

        materialize_interval_samples(
            probes,
            start=t,
            end=end,
            stride=probe_stride,
            channels=q,
            fetches0=fetches,
            evictions0=evictions,
            grants_per_tick=[0] * k,
            evicts_per_tick=[0] * k,
            queue_per_tick=[0] * k,
            resident_per_tick=[resident0] * k,
            serve_threads=serve_threads,
            serve_ticks=serve_ticks,
            grant_threads=[],
            grant_ticks=[],
            request_tick=probe_rt,
            live=entry_live,
            completion_tick=completion_tick,
        )

    return end, new_ready, 0, fetches, evictions, done_count, makespan


class Simulator:
    """One-shot simulator for a workload under a :class:`SimulationConfig`.

    Parameters
    ----------
    traces:
        One page-reference sequence per core (anything accepted by
        ``np.asarray`` with an integer dtype). Pages are opaque ids;
        use :class:`repro.traces.Workload` to namespace per-core pages
        disjointly as the model requires.
    config:
        Model and policy parameters.
    """

    def __init__(
        self,
        traces: Sequence[np.ndarray | Sequence[int]],
        config: SimulationConfig,
    ) -> None:
        if len(traces) == 0:
            raise ValueError("workload must contain at least one trace")
        self.config = config
        self.traces = [
            np.ascontiguousarray(np.asarray(t, dtype=np.int64)) for t in traces
        ]
        self.num_threads = len(self.traces)

    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return its metrics."""
        start = time.perf_counter()
        cfg = self.config
        p = self.num_threads
        q = cfg.channels
        rng = np.random.default_rng(cfg.seed)

        policy = make_replacement_policy(cfg.replacement, cfg.hbm_slots, rng=rng)
        arb = make_arbitration_policy(
            cfg.arbitration,
            p,
            remap_period=cfg.remap_period,
            rng=rng,
            dram_geometry=DramGeometry(cfg.dram_banks, cfg.dram_row_pages),
            blacklist_threshold=cfg.blacklist_threshold,
            blacklist_clear_interval=cfg.blacklist_clear_interval,
        )
        metrics = MetricsCollector(p, record_responses=cfg.record_responses)

        # Residency membership is the hottest check in the loop; policies
        # expose their page -> * mapping so the engine can use a raw
        # ``in dict`` test instead of a Python-level __contains__ call.
        residency = policy.residency

        belady = policy if isinstance(policy, BeladyPolicy) else None
        next_use = (
            [_next_use_indices(t) for t in self.traces] if belady is not None else None
        )

        # Python-int trace copies: iterating numpy scalars costs a boxing
        # per element; tolist() pays it once up front.
        traces = [t.tolist() for t in self.traces]
        lengths = [len(t) for t in traces]

        track_protected = cfg.protect_pending
        protected: set[int] | frozenset[int] = set() if track_protected else _EMPTY

        current: list[int | None] = [None] * p
        request_tick = [0] * p
        pos = [0] * p
        ready: list[int] = []
        done_count = 0
        for i in range(p):
            if lengths[i] == 0:
                metrics.record_completion(i, 0)
                done_count += 1
            else:
                current[i] = traces[i][0]
                ready.append(i)
                if track_protected:
                    protected.add(traces[i][0])  # type: ignore[union-attr]

        timeline: list[tuple[int, int, int, int]] | None = (
            [] if cfg.collect_timeline else None
        )
        timeline_stride = cfg.timeline_stride
        max_ticks = cfg.max_ticks

        # Observability: probes are sampled every probe_stride ticks.
        # With no probes attached this costs one falsy check per tick
        # (the import and the run hooks never execute).
        probes = cfg.probes
        probe_stride = cfg.probe_stride
        if probes:
            from ..obs.probe import ProbeSample

            for probe in probes:
                probe.on_run_start(p, cfg)

        # Hot-loop bindings: every name below is read once per tick (or
        # once per served request), so local variables and C-level bound
        # methods replace attribute chains and Python-level dispatch.
        arb_begin_tick = arb.begin_tick
        arb_enqueue = arb.enqueue
        arb_select = arb.select
        policy_touch = policy.touch_fast  # None when touches are no-ops
        policy_evict = policy.evict
        policy_insert = policy.insert
        histograms = metrics.histograms
        response_logs = metrics.response_logs
        capacity = policy.capacity

        # The engine tracks the queue length itself (each core has at
        # most one outstanding request), saving a len() call per tick.
        queue_len = 0

        # Quiescent-interval fast-forward (repro.core.drain): exact only
        # under LRU + protect_pending with disjoint traces and no
        # Belady/timeline wiring. Trace disjointness is checked lazily
        # at the first attempt; a policy without a drain plan disables
        # it for the run. Results are bit-identical either way.
        ff_state = drain.FFState()
        ff_eligible = (
            drain.fast_forward_enabled()
            and cfg.replacement == "lru"
            and track_protected
            and belady is None
            and timeline is None
        )
        ff_checked_disjoint = not ff_eligible
        ff_next_try = 0
        ff_backoff = drain.BACKOFF_MIN
        ff_horizon = (max_ticks + 1) if max_ticks is not None else drain.UNBOUNDED
        ff_intervals = 0
        ff_elided = 0
        ff_wall = 0.0

        t = 0
        makespan = 0
        evictions = 0
        fetches = 0
        while done_count < p:
            # -- step 1: remap hook -------------------------------------
            arb_begin_tick(t)

            if ff_eligible and t >= ff_next_try:
                _ff_t0 = time.perf_counter()
                if not ff_checked_disjoint:
                    ff_checked_disjoint = True
                    if not drain.traces_disjoint(self.traces):
                        ff_eligible = False
                if ff_eligible:
                    ff = _attempt_fast_forward(
                        ff_state, arb, t, p, q, capacity, traces,
                        lengths, pos, current, request_tick, ready,
                        residency, protected, track_protected,
                        queue_len, fetches, evictions, done_count,
                        makespan, metrics, histograms, response_logs,
                        probes, probe_stride, ff_horizon,
                    )
                    if ff is None:
                        if not ff_state.eligible:
                            ff_eligible = False
                        else:
                            ff_next_try = t + ff_backoff
                            ff_backoff = min(ff_backoff * 2, drain.BACKOFF_MAX)
                    else:
                        ff_backoff = drain.BACKOFF_MIN
                        ff_intervals += 1
                        ff_elided += ff[0] - t
                        (t, ready, queue_len, fetches, evictions,
                         done_count, makespan) = ff
                        ff_wall += time.perf_counter() - _ff_t0
                        if max_ticks is not None and t > max_ticks:
                            raise SimulationLimitError(
                                f"simulation exceeded max_ticks={max_ticks} "
                                f"({done_count}/{p} threads complete)"
                            )
                        continue
                ff_wall += time.perf_counter() - _ff_t0

            # -- step 2 (classify + enqueue misses) ----------------------
            # ``ready`` is kept sorted by core id, so classification,
            # same-tick FIFO arrivals, LRU touches, and serves all follow
            # the paper's "for each r*_i" core order deterministically.
            hits: list[int] = []
            misses: list[int] = []
            for i in ready:
                if current[i] in residency:
                    hits.append(i)
                else:
                    misses.append(i)
            if misses:
                for i in misses:
                    arb_enqueue(i, current[i])
                queue_len += len(misses)

            # -- step 3: evict to make room for this tick's fetches ------
            will_fetch = queue_len if queue_len < q else q
            if will_fetch:
                deficit = will_fetch - (capacity - len(residency))
                while deficit > 0:
                    victim = policy_evict(protected)
                    if victim is None:
                        break  # everything protected; fetch less this tick
                    evictions += 1
                    deficit -= 1
                if deficit > 0:
                    will_fetch -= deficit

            # -- step 4: serve resident requests -------------------------
            new_ready: list[int] = []
            for i in hits:
                page = current[i]
                if page not in residency:
                    # Evicted at step 3 between classify and serve; the
                    # core retries (and will enqueue) next tick.
                    new_ready.append(i)
                    continue
                if policy_touch is not None:
                    policy_touch(page)
                w = t - request_tick[i] + 1
                hist = histograms[i]
                hist[w] = hist.get(w, 0) + 1
                if response_logs is not None:
                    response_logs[i].append(w)
                j = pos[i] + 1
                if belady is not None:
                    nxt = next_use[i][pos[i]]  # type: ignore[index]
                    belady.set_future(page, None if nxt < 0 else int(nxt) - pos[i])
                if j >= lengths[i]:
                    metrics.record_completion(i, t + 1)
                    done_count += 1
                    makespan = t + 1
                    current[i] = None
                    if track_protected:
                        protected.discard(page)  # type: ignore[union-attr]
                else:
                    pos[i] = j
                    nxt_page = traces[i][j]
                    current[i] = nxt_page
                    request_tick[i] = t + 1
                    if track_protected and nxt_page != page:
                        protected.discard(page)  # type: ignore[union-attr]
                        protected.add(nxt_page)  # type: ignore[union-attr]
                    new_ready.append(i)

            # -- step 5: fetch up to q queued pages over the far channels
            if will_fetch:
                granted = arb_select(will_fetch)
                queue_len -= len(granted)
                for i in granted:
                    page = current[i]
                    if page not in residency:  # no-op for shared pages
                        policy_insert(page)
                        fetches += 1
                    new_ready.append(i)

            # Restore core-id order: new_ready is a sorted subsequence of
            # the previous ready list plus up to q granted cores, so this
            # near-sorted Timsort pass is effectively linear.
            new_ready.sort()
            ready = new_ready
            if timeline is not None and t % timeline_stride == 0:
                occupancy = len(residency)
                timeline.append((t, queue_len, occupancy, len(ready)))
            if probes and t % probe_stride == 0:
                ready_set = set(ready)
                blocked = np.zeros(p, dtype=bool)
                stall_age = np.zeros(p, dtype=np.int64)
                for i in range(p):
                    if current[i] is not None and i not in ready_set:
                        blocked[i] = True
                        stall_age[i] = t - request_tick[i] + 1
                sample = ProbeSample(
                    tick=t,
                    hbm_occupancy=len(residency),
                    queue_depth=queue_len,
                    ready_threads=len(ready),
                    channels_busy=len(granted) if will_fetch else 0,
                    channels_total=q,
                    fetches=fetches,
                    evictions=evictions,
                    blocked=blocked,
                    stall_age=stall_age,
                )
                for probe in probes:
                    probe.on_sample(sample)
            t += 1
            if max_ticks is not None and t > max_ticks:
                raise SimulationLimitError(
                    f"simulation exceeded max_ticks={max_ticks} "
                    f"({done_count}/{p} threads complete)"
                )
        metrics.evictions = evictions
        metrics.fetches = fetches

        if ff_wall:
            from ..obs.metrics import record_phase

            record_phase("fast_forward", ff_wall)
        drain.record_ff_engagement(cfg.arbitration, ff_state)
        remap_count = getattr(arb, "remap_count", 0)
        wall = time.perf_counter() - start
        result = metrics.finalize(
            makespan=makespan,
            ticks=t,
            remap_count=remap_count,
            config=cfg,
            wall_time_s=wall,
            timeline=(
                np.asarray(timeline, dtype=np.int64) if timeline is not None else None
            ),
            ff_intervals=ff_intervals,
            ff_elided_ticks=ff_elided,
        )
        for probe in probes:
            probe.on_run_end(result)
        return result


def run_simulation(
    traces: Sequence[np.ndarray | Sequence[int]],
    config: SimulationConfig | None = None,
    **config_kwargs,
) -> SimulationResult:
    """Convenience wrapper: build a config (or use the given one) and run.

    >>> run_simulation([[0, 1, 0, 1]], hbm_slots=2).makespan
    6
    """
    if config is None:
        config = SimulationConfig(**config_kwargs)
    elif config_kwargs:
        config = config.replace(**config_kwargs)
    return Simulator(traces, config).run()
