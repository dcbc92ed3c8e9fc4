"""Batched lockstep engine: many simulation jobs per NumPy step.

Sweeps (paper section 1.2's grids) run thousands of near-identical
simulations whose per-tick work is a handful of small numpy kernels —
at the core counts this reproduction simulates, dispatch overhead
dominates the actual array arithmetic. :class:`BatchSimulator` stacks B
independent jobs ("lanes") into one struct-of-arrays state and drives
them in lockstep: each global step performs the classify/serve phases
as single array operations over the concatenation of every stepping
lane's cores, so the fixed numpy dispatch cost is paid once per step
instead of once per lane per tick.

Layout. Lane b contributes ``p_b`` cores and a lane-local page universe
of size ``U_b``; cores and universes are concatenated, with
``core_start``/``uni_start`` prefix offsets mapping lane-local ids to
global rows. Per-core state (``pos``, ``current``, ``request_tick``,
the ready mask) and per-page state (``resident``, ``last_stamp``,
``owner``) are flat arrays over those concatenations; traces keep
*lane-local* page ids so any lane's state is a contiguous slice.

Every active lane ticks every global step (the engine does not
fast-forward; that lives in the reference engine only), so one clock
serves all lanes. Divergence is handled by masking and per-lane
retirement:

* per-lane policy objects, eviction heaps, and metric collectors keep
  every stateful branch (remap boundaries, RNG draws, LRU order)
  bit-identical to a solo run;
* a lane retires the moment its last core completes, running the fast
  engine's end-of-run aggregation on its own serve buffers.

Bit-identical discipline: for every supported lane,
:func:`simulate_batch` returns *exactly* the
:class:`~repro.core.metrics.SimulationResult` — metrics, response
logs, probe sample series — that ``simulate(..., engine="fast")``
would produce for that job alone, and the reference engine's result
but for its fast-forward counters (``ff_intervals`` and
``ff_elided_ticks`` read 0 here). ``ENGINE_SEMANTICS_VERSION`` does not
change; ``tests/test_batchengine.py`` enforces this differentially
across every arbitration policy and trace family.

Eligibility is the fast path's scope plus passive probes: LRU +
``protect_pending``, no timeline, disjoint compact traces, and only
:class:`~repro.obs.TimelineProbe` observers (callback probes could see
lanes' samples interleaved mid-run, so they force the solo path).
Ineligible items fall back to :func:`simulate` mid-batch with no result
change. Only ``engine="fast"`` forms lockstep lanes: under ``"auto"``
every item runs solo on the reference engine (the
:class:`BatchResults` that :func:`simulate_batch` returns names the
engine of every item).

:func:`simulate_batch` is a library and benchmark path: the sweep
harness runs every job on its own, because almost no experiment job
fits in HBM, the only regime where lockstep lanes pay (see the fit
census in ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Sequence

import numpy as np

from .arbitration import ArbitrationPolicy, make_arbitration_policy
from .config import SimulationConfig
from .dram import DramGeometry
from .engine import SimulationLimitError
from .fastengine import (
    _attest_arrays,
    _attestation_ok,
    _check_engine,
    _choose,
    _config_supported,
    _normalize_traces,
    _record_run_metrics,
    simulate,
)
from .metrics import MetricsCollector

__all__ = [
    "BatchSimulator",
    "batch_supported",
    "simulate_batch",
]


def _probes_passive(probes: Sequence[Any]) -> bool:
    """Only pure-collector probes may observe a batch lane natively."""
    if not probes:
        return True
    from ..obs.probe import TimelineProbe

    return all(isinstance(probe, TimelineProbe) for probe in probes)


def batch_supported(config: SimulationConfig, attestation: Any = None) -> bool:
    """Can a job with this config run as a native batch lane?

    Config-level eligibility is the fast path's scope (LRU,
    ``protect_pending``, no timeline) plus passive probes. When an
    ``attestation`` is given the trace-layout requirement (disjoint
    compact page ids) is checked too; without one the caller defers that
    check to dispatch time, where :func:`simulate_batch` falls back per
    item.
    """
    if not _config_supported(config):
        return False
    if not _probes_passive(config.probes):
        return False
    return attestation is None or _attestation_ok(attestation)


class BatchSimulator:
    """Locksteps B supported jobs over shared struct-of-arrays state.

    Construct with ``[(traces, config), ...]`` lane tuples (optionally
    parallel ``attestations``); every lane must be batch-eligible or
    ``ValueError`` is raised — use :func:`simulate_batch` to dispatch
    with automatic fallback. :meth:`run` returns one entry per lane, in
    order: a :class:`~repro.core.metrics.SimulationResult`, or the
    exception (e.g. :class:`~repro.core.engine.SimulationLimitError`)
    that lane's solo run would have raised.
    """

    def __init__(
        self,
        lanes: Sequence[tuple[Sequence[Any], SimulationConfig]],
        attestations: Sequence[Any] | None = None,
    ) -> None:
        if not lanes:
            raise ValueError("batch must contain at least one lane")
        self.lanes: list[tuple[list[np.ndarray], SimulationConfig]] = []
        for k, (traces, config) in enumerate(lanes):
            arrays = [
                np.ascontiguousarray(np.asarray(t, dtype=np.int64)) for t in traces
            ]
            attestation = attestations[k] if attestations is not None else None
            if attestation is None:
                attestation = _attest_arrays(arrays)
            if not arrays or not batch_supported(config, attestation):
                raise ValueError(
                    f"lane {k} is outside the batch path (needs LRU, "
                    "protect_pending, disjoint compact traces, no timeline, "
                    "passive probes); use simulate_batch() to auto-fallback"
                )
            self.lanes.append((arrays, config))

    def run(self) -> list[Any]:  # noqa: C901 - one hot loop by design
        start = time.perf_counter()
        B = len(self.lanes)
        results: list[Any] = [None] * B

        # ---- static layout: cores and page universes, concatenated ----
        p = np.array([len(arrays) for arrays, _ in self.lanes], dtype=np.int64)
        core_start = np.zeros(B, dtype=np.int64)
        np.cumsum(p[:-1], out=core_start[1:])
        P = int(p.sum())
        lane_of_core = np.repeat(np.arange(B, dtype=np.int64), p)

        lengths = np.concatenate(
            [
                np.array([len(t) for t in arrays], dtype=np.int64)
                for arrays, _ in self.lanes
            ]
        )
        offsets = np.zeros(P, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        chunks = [t for arrays, _ in self.lanes for t in arrays if len(t)]
        big_trace = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )

        universes = np.empty(B, dtype=np.int64)
        for b, (arrays, _) in enumerate(self.lanes):
            non_empty = [t for t in arrays if len(t)]
            universes[b] = (
                max(int(t.max()) for t in non_empty) + 1 if non_empty else 1
            )
        uni_start = np.zeros(B, dtype=np.int64)
        np.cumsum(universes[:-1], out=uni_start[1:])
        resident = np.zeros(int(universes.sum()), dtype=bool)
        last_stamp = np.zeros(len(resident), dtype=np.int64)
        owner = np.zeros(len(resident), dtype=np.int64)  # lane-local core ids
        for b, (arrays, _) in enumerate(self.lanes):
            u0 = int(uni_start[b])
            for i, t in enumerate(arrays):
                if len(t):
                    owner[u0 + np.unique(t)] = i
        uni_start_core = uni_start[lane_of_core]

        # ---- per-core dynamic state (lane-local page ids) -------------
        pos = np.zeros(P, dtype=np.int64)
        current = np.full(P, -1, dtype=np.int64)
        request_tick = np.zeros(P, dtype=np.int64)
        ready_mask = np.zeros(P, dtype=bool)

        # ---- per-lane counters and stateful objects -------------------
        # Per-lane scalars live in plain Python lists: the hot loop reads
        # them once per lane per tick, and a list index is several times
        # cheaper than extracting a numpy scalar.
        p_l = p.tolist()
        cs_l = core_start.tolist()
        us_l = uni_start.tolist()
        q_l = [cfg.channels for _, cfg in self.lanes]
        cap_l = [cfg.hbm_slots for _, cfg in self.lanes]
        ss_l = [p_l[b] + q_l[b] + 1 for b in range(B)]
        stride_core = np.asarray(ss_l, dtype=np.int64)[lane_of_core]
        queue_l = [0] * B
        fetch_l = [0] * B
        evic_l = [0] * B
        rescnt_l = [0] * B
        done_l = [0] * B
        mksp_l = [0] * B
        max_ticks = [cfg.max_ticks for _, cfg in self.lanes]
        any_max_ticks = any(mt is not None for mt in max_ticks)

        arbs: list[Any] = []
        begin_live: list[bool] = []
        metrics: list[MetricsCollector] = []
        heaps: list[list[tuple[int, int]]] = []
        # One global serve log shared by every lane: per step the serve
        # phase appends (lane ids, lane-local threads, responses) once,
        # and histogram/response aggregation is deferred to the epilogue
        # — the hot loop never slices or copies per-lane buffers.
        log_lane: list[np.ndarray] = []
        log_thr: list[np.ndarray] = []
        log_w: list[np.ndarray] = []
        probes_by_lane: list[tuple[Any, ...]] = []
        probe_strides: list[int] = []

        for b, (arrays, cfg) in enumerate(self.lanes):
            p_b = p_l[b]
            rng = np.random.default_rng(cfg.seed)
            arb = make_arbitration_policy(
                cfg.arbitration,
                p_b,
                remap_period=cfg.remap_period,
                rng=rng,
                dram_geometry=DramGeometry(cfg.dram_banks, cfg.dram_row_pages),
                blacklist_threshold=cfg.blacklist_threshold,
                blacklist_clear_interval=cfg.blacklist_clear_interval,
            )
            arbs.append(arb)
            begin_live.append(
                type(arb).begin_tick is not ArbitrationPolicy.begin_tick
            )
            metrics.append(
                MetricsCollector(p_b, record_responses=cfg.record_responses)
            )
            heaps.append([])
            probes_by_lane.append(cfg.probes)
            probe_strides.append(cfg.probe_stride)
            for probe in cfg.probes:
                probe.on_run_start(p_b, cfg)
            g0 = cs_l[b]
            alive = lengths[g0 : g0 + p_b] > 0
            for i in np.flatnonzero(~alive):
                metrics[b].record_completion(int(i), 0)
            done_l[b] = int((~alive).sum())
            gi = g0 + np.flatnonzero(alive)
            current[gi] = big_trace[offsets[gi]]
            ready_mask[gi] = True

        probe_lanes = [b for b in range(B) if probes_by_lane[b]]
        if probe_lanes:
            from ..obs.probe import ProbeSample

        active_lanes = list(range(B))
        # the tick every lane stopped at (its tick count); (ticks,
        # makespan) per retired lane — aggregation and finalize run
        # once, after the loop
        stopped_at = [0] * B
        retire_info: list[tuple[int, int] | None] = [None] * B
        # every active lane steps every global step, so one clock serves
        # them all
        t = 0

        def evict_one(b: int) -> bool:
            """Pop lane b's true LRU unprotected page; False if all protected."""
            heap = heaps[b]
            u0 = us_l[b]
            g0 = cs_l[b]
            stash: list[tuple[int, int]] = []
            victim_found = False
            while heap:
                s, page = heapq.heappop(heap)
                gp = u0 + page
                if not resident[gp]:
                    continue  # entry for an evicted (possibly refetched) page
                true_stamp = int(last_stamp[gp])
                if s != true_stamp:
                    heapq.heappush(heap, (true_stamp, page))
                    continue
                if current[g0 + int(owner[gp])] == page:
                    stash.append((s, page))
                    continue
                resident[gp] = False
                rescnt_l[b] -= 1
                evic_l[b] += 1
                victim_found = True
                break
            for entry in stash:
                heapq.heappush(heap, entry)
            return victim_found

        def _stop(b: int) -> None:
            """Take lane b out of the lockstep state at the current tick."""
            active_lanes.remove(b)
            g0 = cs_l[b]
            ready_mask[g0 : g0 + p_l[b]] = False
            stopped_at[b] = t
            if probes_by_lane[b]:
                probe_lanes.remove(b)

        def _retire(b: int) -> None:
            """Lane b completed: snapshot counters, defer aggregation."""
            _stop(b)
            retire_info[b] = (t, mksp_l[b])

        def _abort(b: int, exc: Exception) -> None:
            """Lane b failed (e.g. max_ticks): record the solo-path error."""
            _stop(b)
            results[b] = exc

        for b in range(B):
            if done_l[b] == p_l[b]:
                _retire(b)

        prologue_live = any(begin_live)
        arange_b1 = np.arange(B + 1, dtype=np.int64)
        arange_p = np.arange(P, dtype=np.int64)

        # ---- the lockstep loop ---------------------------------------
        # Each iteration advances every active lane by one tick. Phase
        # order within the tick is exactly the fast engine's: classify
        # -> enqueue misses -> evict/cap fetch -> serve hits -> grant
        # fetches -> sample probes.
        while active_lanes:
            if prologue_live:
                for b in active_lanes:
                    if begin_live[b]:
                        arbs[b].begin_tick(t)

            # classify: one gather over every lane's ready cores
            act = np.flatnonzero(ready_mask)
            if len(act):
                pages_act = current[act]
                flags = resident[pages_act + uni_start_core[act]]
                hit_g = act[flags]
                if len(hit_g) != len(act):
                    miss_g = act[~flags]
                    miss_pages = pages_act[~flags]
                    for g, pg, b in zip(
                        miss_g.tolist(),
                        miss_pages.tolist(),
                        lane_of_core[miss_g].tolist(),
                    ):
                        arbs[b].enqueue(g - cs_l[b], pg)
                        queue_l[b] += 1
            else:
                hit_g = act

            # evict to make room, capping each lane's fetch grant
            will_fetch = [0] * B
            for b in active_lanes:
                ql = queue_l[b]
                if not ql:
                    continue
                qb = q_l[b]
                wf = ql if ql < qb else qb
                deficit = wf - (cap_l[b] - rescnt_l[b])
                while deficit > 0 and evict_one(b):
                    deficit -= 1
                if deficit > 0:
                    wf -= deficit
                will_fetch[b] = wf

            # serve hits: stamps/responses for all lanes in one pass
            maybe_done: list[int] = []
            if len(hit_g):
                lane_h = lane_of_core[hit_g]
                w = t - request_tick[hit_g] + 1
                bnds = np.searchsorted(lane_h, arange_b1)
                serve_idx = arange_p[: len(hit_g)] - np.repeat(
                    bnds[:-1], np.diff(bnds)
                )
                last_stamp[current[hit_g] + uni_start_core[hit_g]] = (
                    t * stride_core[hit_g] + serve_idx
                )
                log_lane.append(lane_h)
                log_thr.append(hit_g - core_start[lane_h])
                log_w.append(w)
                pos[hit_g] += 1
                done_m = pos[hit_g] >= lengths[hit_g]
                if done_m.any():
                    finished = hit_g[done_m]
                    for g, b in zip(
                        finished.tolist(), lane_of_core[finished].tolist()
                    ):
                        metrics[b].record_completion(g - cs_l[b], t + 1)
                        done_l[b] += 1
                        mksp_l[b] = t + 1
                        if done_l[b] == p_l[b]:
                            maybe_done.append(b)
                    current[finished] = -1
                    cont = hit_g[~done_m]
                else:
                    cont = hit_g
                current[cont] = big_trace[offsets[cont] + pos[cont]]
                request_tick[cont] = t + 1
            else:
                cont = hit_g

            ready_mask[act] = False
            ready_mask[cont] = True

            # grant fetches per lane (policy order, insert stamps)
            gc = [0] * B if probe_lanes else None
            for b in active_lanes:
                wf = will_fetch[b]
                if not wf:
                    continue
                granted = arbs[b].select(wf)
                g0 = cs_l[b]
                u0 = us_l[b]
                base = t * ss_l[b] + p_l[b]
                heap = heaps[b]
                for gdx, i in enumerate(granted):
                    page = int(current[g0 + i])
                    gp = u0 + page
                    resident[gp] = True
                    stamp = base + gdx
                    last_stamp[gp] = stamp
                    heapq.heappush(heap, (stamp, page))
                    ready_mask[g0 + i] = True
                n = len(granted)
                rescnt_l[b] += n
                fetch_l[b] += n
                queue_l[b] -= n
                if gc is not None:
                    gc[b] = n

            if probe_lanes:
                for b in probe_lanes:
                    if t % probe_strides[b]:
                        continue
                    g0 = cs_l[b]
                    g1 = g0 + p_l[b]
                    lane_ready = ready_mask[g0:g1]
                    blocked = (current[g0:g1] >= 0) & ~lane_ready
                    stall_age = np.where(
                        blocked, t + 1 - request_tick[g0:g1], 0
                    ).astype(np.int64)
                    sample = ProbeSample(
                        tick=t,
                        hbm_occupancy=rescnt_l[b],
                        queue_depth=queue_l[b],
                        ready_threads=int(lane_ready.sum()),
                        channels_busy=gc[b] if will_fetch[b] else 0,
                        channels_total=q_l[b],
                        fetches=fetch_l[b],
                        evictions=evic_l[b],
                        blocked=blocked,
                        stall_age=stall_age,
                    )
                    for probe in probes_by_lane[b]:
                        probe.on_sample(sample)

            t += 1
            if any_max_ticks:
                over = [
                    b
                    for b in active_lanes
                    if max_ticks[b] is not None and t > max_ticks[b]
                ]
                for b in over:
                    _abort(b, SimulationLimitError(
                        f"simulation exceeded max_ticks={max_ticks[b]} "
                        f"({done_l[b]}/{p_l[b]} threads complete)"
                    ))
            for b in maybe_done:
                if results[b] is None and retire_info[b] is None:
                    _retire(b)

        # ---- deferred aggregation: histograms, logs, finalize ---------
        # One stable sort by lane splits the shared serve log back into
        # per-lane chronological slices; each retired lane then runs the
        # fast engine's end-of-run aggregation on its slice.
        if log_thr:
            all_lane = np.concatenate(log_lane)
            all_thr = np.concatenate(log_thr)
            all_w = np.concatenate(log_w)
            order = np.argsort(all_lane, kind="stable")
            lane_bnds = np.searchsorted(all_lane[order], arange_b1)
        for b in range(B):
            if retire_info[b] is None:
                continue  # aborted lane: results[b] already holds the error
            m = metrics[b]
            m.fetches = fetch_l[b]
            m.evictions = evic_l[b]
            if log_thr and lane_bnds[b + 1] > lane_bnds[b]:
                idx = order[lane_bnds[b] : lane_bnds[b + 1]]
                thr_b = all_thr[idx]
                w_b = all_w[idx]
                max_w = int(w_b.max())
                keys = thr_b * (max_w + 1) + w_b
                unique_keys, counts = np.unique(keys, return_counts=True)
                for key, count in zip(unique_keys.tolist(), counts.tolist()):
                    thread, w = divmod(key, max_w + 1)
                    hist = m.histograms[thread]
                    hist[w] = hist.get(w, 0) + count
                if m.response_logs is not None:
                    by_thread = np.argsort(thr_b, kind="stable")
                    sorted_w = w_b[by_thread]
                    thr_bnds = np.searchsorted(
                        thr_b[by_thread], np.arange(p_l[b] + 1)
                    )
                    for i in range(p_l[b]):
                        m.response_logs[i] = sorted_w[
                            thr_bnds[i] : thr_bnds[i + 1]
                        ]

        # Lanes share one wall clock, so each is charged the batch wall
        # in proportion to the ticks it stepped: per-lane times sum to
        # the batch wall, never to lanes x wall.
        wall = time.perf_counter() - start
        total_steps = sum(stopped_at)
        for b in range(B):
            info = retire_info[b]
            if info is None:
                continue
            ticks_b, makespan_b = info
            wall_b = (
                wall * stopped_at[b] / total_steps if total_steps else wall / B
            )
            result = metrics[b].finalize(
                makespan=makespan_b,
                ticks=ticks_b,
                remap_count=getattr(arbs[b], "remap_count", 0),
                config=self.lanes[b][1],
                wall_time_s=wall_b,
            )
            for probe in probes_by_lane[b]:
                probe.on_run_end(result)
            results[b] = result
        return results


def _plan_batch(
    items: Sequence[tuple[Any, SimulationConfig]], engine: str
) -> list[tuple[str | None, list[np.ndarray], Any]]:
    """(engine label, arrays, attestation) per item: the dispatch rule of
    :func:`simulate` per item, with eligible fast-path items whose probes
    are passive turned into ``"batch"`` lanes (see :class:`BatchResults`)."""
    plan: list[tuple[str | None, list[np.ndarray], Any]] = []
    native: list[int] = []
    for traces, config in items:
        arrays, attestation = _normalize_traces(traces)
        chosen, attestation = _choose(arrays, attestation, config, engine)
        if chosen == "fast" and _probes_passive(config.probes):
            native.append(len(plan))
            chosen = "batch"
        plan.append((chosen, arrays, attestation))
    if len(native) == 1:
        # a lone lane gains nothing from lockstep overhead
        _, arrays, attestation = plan[native[-1]]
        plan[native[-1]] = ("fast", arrays, attestation)
    return plan


class BatchResults(list):
    """:func:`simulate_batch`'s per-item results, in input order.

    ``engines[i]`` names the engine item ``i`` ran on, taken from the
    plan that was executed: ``"batch"`` for a lockstep lane, ``"fast"``
    or ``"reference"`` for a solo run (the dispatch rule of
    :func:`repro.core.simulate`), ``None`` where dispatch raises
    (``engine="fast"`` on an ineligible item).
    """

    def __init__(self, results: list[Any], engines: list[str | None]) -> None:
        super().__init__(results)
        self.engines = engines


def simulate_batch(
    items: Sequence[tuple[Any, SimulationConfig]],
    engine: str = "auto",
    return_exceptions: bool = False,
) -> BatchResults:
    """Simulate many ``(traces, config)`` jobs, batching eligible ones.

    Every item produces exactly what ``simulate(traces, config,
    engine=engine)`` would — the same :class:`SimulationResult` bit for
    bit, or the same exception. Items the dispatch rule sends to the
    fast path (``engine="fast"``) and whose probes are passive run in
    one lockstep state; the rest (every item under ``"auto"`` and
    ``"reference"``, ineligible ones, a lone eligible item) run solo
    through :func:`simulate`. Results are returned in input order, as a
    :class:`BatchResults` list whose ``engines`` names the engine of
    each item.

    ``traces`` per item is a :class:`repro.traces.Workload` (preferred —
    its attestation makes eligibility O(1)) or a raw trace sequence.
    With ``return_exceptions=True`` a failing item's exception is
    returned in its slot instead of raised, so one bad lane cannot
    discard its batchmates' finished results.
    """
    items = list(items)
    engine = _check_engine(engine)
    results: list[Any] = [None] * len(items)
    plan = _plan_batch(items, engine)
    native: list[tuple[int, list[np.ndarray], Any, SimulationConfig]] = []
    for idx, ((traces, config), (label, arrays, attestation)) in enumerate(
        zip(items, plan)
    ):
        if label == "batch":
            native.append((idx, arrays, attestation, config))
            continue
        try:
            results[idx] = simulate(traces, config, engine=engine)
        except Exception as exc:
            if not return_exceptions:
                raise
            results[idx] = exc
    if native:
        sim = BatchSimulator(
            [(arrays, config) for _, arrays, _, config in native],
            attestations=[attestation for _, _, attestation, _ in native],
        )
        for (idx, _, _, _), outcome in zip(native, sim.run()):
            if isinstance(outcome, Exception) and not return_exceptions:
                raise outcome
            results[idx] = outcome
            if not isinstance(outcome, Exception):
                # per-lane accounting mirrors simulate()'s, so campaign
                # metrics are sampled identically across dispatch paths
                _record_run_metrics("batch", outcome)
    return BatchResults(results, [label for label, _, _ in plan])
