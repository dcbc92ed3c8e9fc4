"""Vectorized simulator (independent implementation of the model).

:class:`FastSimulator` produces **bit-identical results** to
:class:`repro.core.engine.Simulator` (enforced by the differential
tests in ``tests/test_fastengine.py`` and ``tests/test_drain.py``)
while executing the per-tick classify/serve work with numpy when many
cores are unblocked at once: dense page-state arrays, a timestamp-LRU
with a lazily-refreshed eviction heap, and bulk metrics aggregation
replace the reference engine's per-core dict/list operations.

It ticks every tick: quiescent-interval fast-forward
(:mod:`repro.core.drain`) lives in the reference engine only, so
``ff_intervals`` and ``ff_elided_ticks`` always read 0 here. That makes
this engine a *third*, structurally different, FF-free implementation
of the model semantics for differential testing (reference engine with
fast-forward / naive test-suite reference / this). :func:`simulate`
runs it only when asked for with ``engine="fast"``; ``"auto"`` runs the
reference engine, which is as fast or faster on every job the
experiments build (the fit census in ``docs/PERFORMANCE.md``).

Scope restrictions (``engine="fast"`` raises outside them):

* LRU replacement (the paper's policy) — implemented here as lazy
  timestamp LRU: touches are vector writes to a ``last_stamp`` array
  and the eviction heap refreshes stale entries on pop, instead of an
  OrderedDict move per hit;
* ``protect_pending=True`` (the default) — protection is what
  guarantees a classified hit cannot be evicted between the classify
  and serve phases, which the vector path exploits;
* disjoint traces with compact page ids (what
  :class:`repro.traces.Workload` produces) — page state lives in dense
  arrays indexed by page id, and the protected-page test becomes
  ``current[owner[page]] == page``;
* no Belady wiring, no timeline collection (``config.probes`` *are*
  supported — samples are emitted from the vectorized state under the
  same per-tick condition as the reference engine, so the two engines'
  probe series are identical on shared sample ticks).

``record_responses=True`` *is* supported: the chronological serve
buffers the engine keeps anyway hold exactly the per-thread response
sequences (a core has at most one serve per tick, so restricting the
chronological log to one thread reproduces the reference engine's
per-thread append order).

Dispatch cost: :func:`simulate` accepts either raw arrays or a
:class:`repro.traces.Workload`. A workload carries a
:class:`~repro.traces.base.PageAttestation` certified at construction,
so eligibility is an O(1) attribute check; raw arrays fall back to a
full O(n log n) disjointness scan. Callers on hot paths should pass the
workload object.

Why stamps reproduce the reference exactly: the reference engine
serves hits in core-id order within a tick and inserts fetched pages
afterwards, so its LRU recency order is exactly (tick, phase, core
order). Stamps ``t * (p + q + 1) + serve_index`` for touches and
``t * (p + q + 1) + p + grant_index`` for inserts encode the same total
order, and the eviction heap pops its minimum.
"""

from __future__ import annotations

import heapq
import time
from typing import Sequence

import numpy as np

from .arbitration import make_arbitration_policy
from .config import SimulationConfig
from .dram import DramGeometry
from .engine import SimulationLimitError, Simulator
from .metrics import MetricsCollector, SimulationResult

__all__ = [
    "ENGINE_CHOICES",
    "VECTOR_THRESHOLD",
    "FastSimulator",
    "resolve_engine",
    "set_vector_threshold",
    "simulate",
    "vector_threshold",
]

#: the scalar/vector crossover: below this many READY cores a tick is
#: processed scalar, above it with numpy. :func:`set_vector_threshold`
#: overrides it (tests pin one path, benchmarks measure both).
VECTOR_THRESHOLD = 24

_vector_threshold_override: int | None = None


def vector_threshold() -> int:
    """The ready-set width at which ticks switch to the vector path:
    the :func:`set_vector_threshold` override, else
    :data:`VECTOR_THRESHOLD`."""
    if _vector_threshold_override is not None:
        return _vector_threshold_override
    return VECTOR_THRESHOLD


def set_vector_threshold(n: int | None) -> int | None:
    """Force the scalar/vector crossover; returns the previous override.

    ``None`` removes the override, restoring :data:`VECTOR_THRESHOLD`.
    Used by differential tests to pin one path and by benchmarks to
    measure both. An invalid value (non-integer, non-positive) warns
    once and clears the override — the knob is purely performance, so
    misuse must never change or abort a run.
    """
    global _vector_threshold_override
    previous = _vector_threshold_override
    if n is None:
        _vector_threshold_override = None
        return previous
    try:
        value = int(n)
    except (TypeError, ValueError):
        value = 0
    if value < 1:
        from ..obs.log import get_logger, warn_once

        warn_once(
            get_logger("core"),
            "vector-threshold-set",
            "ignoring invalid vector threshold %r "
            "(expected an integer >= 1); override cleared",
            n,
        )
        _vector_threshold_override = None
        return previous
    _vector_threshold_override = value
    return previous

#: dense page-state arrays must stay sane
MAX_DENSE_PAGE = 50_000_000

#: valid values for the ``engine`` argument of :func:`simulate`
ENGINE_CHOICES = ("auto", "reference", "fast")


class _ArrayAttestation:
    """Attestation-shaped result of scanning raw trace arrays.

    Duck-type compatible with :class:`repro.traces.base.PageAttestation`
    (which lives in the traces layer; core does not import it).
    """

    __slots__ = ("disjoint", "min_page", "max_page")

    def __init__(self, disjoint: bool, min_page: int, max_page: int) -> None:
        self.disjoint = disjoint
        self.min_page = min_page
        self.max_page = max_page


def _attest_arrays(traces: list[np.ndarray]) -> _ArrayAttestation:
    """The expensive raw-array fallback: scan for disjointness/bounds."""
    non_empty = [t for t in traces if len(t)]
    if not non_empty:
        return _ArrayAttestation(True, 0, -1)
    max_page = max(int(t.max()) for t in non_empty)
    min_page = min(int(t.min()) for t in non_empty)
    if min_page < 0 or max_page > MAX_DENSE_PAGE:
        return _ArrayAttestation(False, min_page, max_page)
    per_thread = sum(len(np.unique(t)) for t in non_empty)
    total = len(np.unique(np.concatenate(non_empty)))
    return _ArrayAttestation(per_thread == total, min_page, max_page)


def _config_supported(config: SimulationConfig) -> bool:
    return (
        config.replacement == "lru"
        and config.protect_pending
        and not config.collect_timeline
    )


def _attestation_ok(attestation) -> bool:
    return (
        attestation.disjoint
        and attestation.min_page >= 0
        and attestation.max_page <= MAX_DENSE_PAGE
    )


def _supports(
    config: SimulationConfig,
    traces: list[np.ndarray],
    attestation=None,
) -> bool:
    """Can the fast path run this configuration faithfully?"""
    if not _config_supported(config):
        return False
    if attestation is None:
        attestation = _attest_arrays(traces)
    return _attestation_ok(attestation)


class FastSimulator:
    """Drop-in replacement for :class:`Simulator` on supported configs.

    Raises ``ValueError`` at construction when the configuration falls
    outside the fast path's scope; :func:`simulate` runs any
    configuration on the reference engine.
    """

    def __init__(
        self,
        traces: Sequence[np.ndarray | Sequence[int]],
        config: SimulationConfig,
        attestation=None,
    ) -> None:
        """``attestation`` (an object with ``disjoint``/``min_page``/
        ``max_page``, e.g. :class:`repro.traces.base.PageAttestation`)
        vouches for the trace layout and skips the O(n log n) scan."""
        if len(traces) == 0:
            raise ValueError("workload must contain at least one trace")
        self.config = config
        self.traces = [
            np.ascontiguousarray(np.asarray(t, dtype=np.int64)) for t in traces
        ]
        if not _supports(config, self.traces, attestation):
            raise ValueError(
                "configuration outside the fast path (needs LRU, "
                "protect_pending, disjoint compact traces, no timeline); "
                "use repro.core.fastengine.simulate() to auto-fallback"
            )
        self.num_threads = len(self.traces)

    def run(self) -> SimulationResult:  # noqa: C901 - one hot loop by design
        start = time.perf_counter()
        cfg = self.config
        p = self.num_threads
        q = cfg.channels
        rng = np.random.default_rng(cfg.seed)
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

        lengths = np.array([len(t) for t in self.traces], dtype=np.int64)
        offsets = np.zeros(p, dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        big_trace = (
            np.concatenate([t for t in self.traces])
            if lengths.sum()
            else np.empty(0, dtype=np.int64)
        )

        universe = int(big_trace.max()) + 1 if len(big_trace) else 1
        resident = np.zeros(universe, dtype=bool)
        last_stamp = np.zeros(universe, dtype=np.int64)
        owner = np.zeros(universe, dtype=np.int64)
        for i, t in enumerate(self.traces):
            if len(t):
                owner[np.unique(t)] = i

        stamp_stride = p + q + 1
        heap: list[tuple[int, int]] = []

        pos = np.zeros(p, dtype=np.int64)
        current = np.full(p, -1, dtype=np.int64)
        request_tick = np.zeros(p, dtype=np.int64)
        alive = lengths > 0
        for i in np.flatnonzero(~alive):
            metrics.record_completion(int(i), 0)
        current[alive] = big_trace[offsets[alive]]
        ready = np.flatnonzero(alive).astype(np.int64)
        done_count = int((~alive).sum())

        # chronological serve buffers; per-thread histograms built at end
        served_threads: list[np.ndarray] = []
        served_w: list[np.ndarray] = []

        capacity = cfg.hbm_slots
        resident_count = 0
        queue_len = 0
        fetches = 0
        evictions = 0
        max_ticks = cfg.max_ticks

        arb_begin_tick = arb.begin_tick
        arb_enqueue = arb.enqueue
        arb_select = arb.select

        # Observability: identical sampling condition to the reference
        # engine, so probe series agree tick for tick; samples are built
        # from the dense arrays instead of per-core dicts.
        probes = cfg.probes
        probe_stride = cfg.probe_stride
        if probes:
            from ..obs.probe import ProbeSample

            for probe in probes:
                probe.on_run_start(p, cfg)

        def evict_one(tick_base: int) -> bool:
            """Pop the true LRU unprotected page; False if all protected."""
            nonlocal resident_count, evictions
            stash: list[tuple[int, int]] = []
            victim_found = False
            while heap:
                s, page = heapq.heappop(heap)
                if not resident[page]:
                    continue  # entry for an evicted (possibly refetched) page
                true_stamp = int(last_stamp[page])
                if s != true_stamp:
                    heapq.heappush(heap, (true_stamp, page))
                    continue
                if current[owner[page]] == page:
                    stash.append((s, page))
                    continue
                resident[page] = False
                resident_count -= 1
                evictions += 1
                victim_found = True
                break
            for entry in stash:
                heapq.heappush(heap, entry)
            return victim_found

        vt = vector_threshold()
        t = 0
        makespan = 0
        while done_count < p:
            arb_begin_tick(t)

            n_ready = len(ready)
            base = t * stamp_stride

            if n_ready >= vt:
                # ---- vector tick -------------------------------------
                pages = current[ready]
                flags = resident[pages]
                hit_threads = ready[flags]
                if not flags.all():
                    miss_threads = ready[~flags]
                    miss_pages = pages[~flags]
                    for i, pg in zip(miss_threads.tolist(), miss_pages.tolist()):
                        arb_enqueue(i, pg)
                    queue_len += len(miss_threads)

                will_fetch = queue_len if queue_len < q else q
                if will_fetch:
                    deficit = will_fetch - (capacity - resident_count)
                    while deficit > 0 and evict_one(base):
                        deficit -= 1
                    if deficit > 0:
                        will_fetch -= deficit

                if len(hit_threads):
                    hit_pages = pages[flags]
                    w = t - request_tick[hit_threads] + 1
                    served_threads.append(hit_threads.copy())
                    served_w.append(w)
                    last_stamp[hit_pages] = base + np.arange(len(hit_pages))
                    pos[hit_threads] += 1
                    done_mask = pos[hit_threads] >= lengths[hit_threads]
                    if done_mask.any():
                        finished = hit_threads[done_mask]
                        for i in finished.tolist():
                            metrics.record_completion(i, t + 1)
                        done_count += len(finished)
                        makespan = t + 1
                        current[finished] = -1
                        cont = hit_threads[~done_mask]
                    else:
                        cont = hit_threads
                    current[cont] = big_trace[offsets[cont] + pos[cont]]
                    request_tick[cont] = t + 1
                else:
                    cont = hit_threads  # empty

                if will_fetch:
                    granted = arb_select(will_fetch)
                    for g, i in enumerate(granted):
                        page = int(current[i])
                        resident[page] = True
                        resident_count += 1
                        stamp = base + p + g
                        last_stamp[page] = stamp
                        heapq.heappush(heap, (stamp, page))
                        fetches += 1
                    queue_len -= len(granted)
                    new_ready = np.concatenate(
                        [cont, np.asarray(granted, dtype=np.int64)]
                    )
                    new_ready.sort()
                    ready = new_ready
                else:
                    ready = cont
            else:
                # ---- scalar tick (same semantics, python loop) -------
                hits: list[int] = []
                serve_order = 0
                for i in ready.tolist():
                    page = int(current[i])
                    if resident[page]:
                        hits.append(i)
                    else:
                        arb_enqueue(i, page)
                        queue_len += 1

                will_fetch = queue_len if queue_len < q else q
                if will_fetch:
                    deficit = will_fetch - (capacity - resident_count)
                    while deficit > 0 and evict_one(base):
                        deficit -= 1
                    if deficit > 0:
                        will_fetch -= deficit

                cont_list: list[int] = []
                if hits:
                    hit_w = np.empty(len(hits), dtype=np.int64)
                    for i in hits:
                        page = int(current[i])
                        last_stamp[page] = base + serve_order
                        hit_w[serve_order] = t - int(request_tick[i]) + 1
                        serve_order += 1
                        j = int(pos[i]) + 1
                        if j >= lengths[i]:
                            metrics.record_completion(i, t + 1)
                            done_count += 1
                            makespan = t + 1
                            current[i] = -1
                        else:
                            pos[i] = j
                            current[i] = big_trace[offsets[i] + j]
                            request_tick[i] = t + 1
                            cont_list.append(i)
                    served_threads.append(np.asarray(hits, dtype=np.int64))
                    served_w.append(hit_w)

                if will_fetch:
                    granted = arb_select(will_fetch)
                    for g, i in enumerate(granted):
                        page = int(current[i])
                        resident[page] = True
                        resident_count += 1
                        stamp = base + p + g
                        last_stamp[page] = stamp
                        heapq.heappush(heap, (stamp, page))
                        fetches += 1
                    queue_len -= len(granted)
                    cont_list.extend(granted)
                    cont_list.sort()
                ready = np.asarray(cont_list, dtype=np.int64)

            if probes and t % probe_stride == 0:
                ready_mask = np.zeros(p, dtype=bool)
                ready_mask[ready] = True
                blocked = (current >= 0) & ~ready_mask
                stall_age = np.where(
                    blocked, t + 1 - request_tick, 0
                ).astype(np.int64)
                sample = ProbeSample(
                    tick=t,
                    hbm_occupancy=resident_count,
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

        # ---- aggregate the chronological serve log into histograms ----
        metrics.fetches = fetches
        metrics.evictions = evictions
        if served_threads:
            all_threads = np.concatenate(served_threads)
            all_w = np.concatenate(served_w)
            max_w = int(all_w.max())
            keys = all_threads * (max_w + 1) + all_w
            unique_keys, counts = np.unique(keys, return_counts=True)
            for key, count in zip(unique_keys.tolist(), counts.tolist()):
                thread, w = divmod(key, max_w + 1)
                hist = metrics.histograms[thread]
                hist[w] = hist.get(w, 0) + count
            if metrics.response_logs is not None:
                # A core is served at most once per tick, so slicing the
                # chronological log by thread yields each thread's
                # responses in exactly the reference engine's append
                # order (tick order, one entry per serve).
                order = np.argsort(all_threads, kind="stable")
                sorted_w = all_w[order]
                bounds = np.searchsorted(
                    all_threads[order], np.arange(p + 1)
                )
                for i in range(p):
                    metrics.response_logs[i] = sorted_w[bounds[i] : bounds[i + 1]]
        remap_count = getattr(arb, "remap_count", 0)
        result = metrics.finalize(
            makespan=makespan,
            ticks=t,
            remap_count=remap_count,
            config=cfg,
            wall_time_s=time.perf_counter() - start,
        )
        for probe in probes:
            probe.on_run_end(result)
        return result


def _normalize_traces(traces):
    """(arrays, attestation-or-None) for a Workload or raw sequence."""
    attestation = getattr(traces, "attestation", None)
    if attestation is not None:
        return traces.traces, attestation
    arrays = [
        np.ascontiguousarray(np.asarray(t, dtype=np.int64)) for t in traces
    ]
    return arrays, None


def _choose(arrays, attestation, config: SimulationConfig, engine: str):
    """The dispatch rule: ('fast'|'reference'|None, attestation).

    ``engine`` is an already validated :data:`ENGINE_CHOICES` entry.
    ``"auto"`` and ``"reference"`` run the reference engine, the only
    engine that fast-forwards. ``"fast"`` takes the fast path wherever
    it is eligible and yields ``None`` elsewhere, where dispatch raises.
    """
    if engine != "fast":
        return "reference", attestation
    if _config_supported(config) and len(arrays):
        if attestation is None:
            attestation = _attest_arrays(arrays)
        if _attestation_ok(attestation):
            return "fast", attestation
    return None, attestation


def _check_engine(engine: str) -> str:
    """``engine``, validated against :data:`ENGINE_CHOICES`."""
    if engine not in ENGINE_CHOICES:
        raise ValueError(f"engine must be one of {ENGINE_CHOICES}, got {engine!r}")
    return engine


def _resolve(arrays, attestation, config: SimulationConfig, engine: str):
    """Pick the engine for these inputs: ('fast'|'reference', attestation)."""
    chosen, attestation = _choose(arrays, attestation, config, _check_engine(engine))
    if chosen is None:
        raise ValueError(
            "engine='fast' requested but the configuration is outside the "
            "fast path (needs LRU, protect_pending, disjoint compact "
            "traces, no timeline)"
        )
    return chosen, attestation


def resolve_engine(traces, config: SimulationConfig, engine: str = "auto") -> str:
    """The engine :func:`simulate` would use: ``"fast"`` or ``"reference"``.

    Raises exactly when :func:`simulate` would (unknown engine name, or
    ``engine="fast"`` on an ineligible configuration). Used by run
    manifests to record the engine that actually executes.
    """
    arrays, attestation = _normalize_traces(traces)
    return _resolve(arrays, attestation, config, engine)[0]


def _record_run_metrics(engine_name: str, result: SimulationResult) -> None:
    """Engine-level campaign metrics for one finished run.

    Called with the same counters and the same ``simulate`` phase
    observation by every dispatch path — :func:`simulate` and the batch
    engine's per-lane accounting — so all engines are sampled
    identically. A single ``is None`` check when no registry is active.
    """
    from ..obs.metrics import active_registry, record_phase

    registry = active_registry()
    if registry is None:
        return
    record_phase("simulate", result.wall_time_s)
    registry.counter(
        "repro_engine_runs_total", "simulation runs by engine"
    ).inc(1, engine=engine_name)
    if result.ff_intervals:
        registry.counter(
            "repro_ff_intervals_total", "quiescent intervals fast-forwarded"
        ).inc(result.ff_intervals)
        registry.counter(
            "repro_ff_elided_ticks_total",
            "simulated ticks elided by fast-forward",
        ).inc(result.ff_elided_ticks)


def simulate(
    traces,
    config: SimulationConfig,
    engine: str = "auto",
    manifest_path=None,
) -> SimulationResult:
    """Run one job on the engine the dispatch rule picks.

    Parameters
    ----------
    traces:
        A :class:`repro.traces.Workload` (preferred — its build-time
        :class:`~repro.traces.base.PageAttestation` makes eligibility an
        O(1) check) or a sequence of per-core page arrays (scanned on
        every call).
    config:
        Model and policy parameters.
    engine:
        ``"auto"`` and ``"reference"`` run the reference engine, the
        one that fast-forwards. ``"fast"`` runs the vectorized,
        FF-free engine, raising ``ValueError`` when the configuration
        is outside its scope (LRU, ``protect_pending``, no timeline,
        disjoint compact traces). Results are bit-identical either way.
    manifest_path:
        When given, write a :class:`repro.obs.RunManifest` JSON there
        after the run: config, workload identity, resolved engine,
        semantics version, host info, and a wall-time breakdown.
    """
    t0 = time.perf_counter()
    arrays, attestation = _normalize_traces(traces)
    chosen, attestation = _resolve(arrays, attestation, config, engine)
    dispatch_s = time.perf_counter() - t0
    if chosen == "fast":
        result = FastSimulator(arrays, config, attestation=attestation).run()
    else:
        result = Simulator(arrays, config).run()
    _record_run_metrics(chosen, result)
    if manifest_path is not None:
        from ..obs.manifest import RunManifest

        RunManifest.build(
            config=config,
            engine=chosen,
            traces=traces,
            timings={
                "dispatch_s": dispatch_s,
                "run_s": result.wall_time_s,
                "total_s": time.perf_counter() - t0,
            },
            result=result,
        ).write(manifest_path)
    return result
