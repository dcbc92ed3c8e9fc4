"""Span ledger: time the public boundary of each layer from outside.

The benchmark never edits the program. Instead, a :class:`Tracer`
replaces a layer's public entry points (module functions, wherever they
are bound, and class methods) with wrappers that record one span per
call: name, start, end and the enclosing span. A layer's *self time* is
its spans' durations minus the part covered by their child spans, so
the self times of all layers add up to the root spans — the campaign's
wall time — with nothing counted twice.

Counts that the layers do not return (fast-forward intervals, prover
attempts) are read from the program's own ``repro.obs.metrics``
registry, installed as the active sink for the traced pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

#: layers the ledger attributes time to, in report order
LAYERS = (
    "experiments",
    "sweep",
    "store",
    "traces",
    "engine",
    "drain",
    "theory",
    "directmapped",
)


def layer_of(span_name: str) -> str:
    """``"engine.batch"`` -> ``"engine"``."""
    return span_name.split(".", 1)[0]


def self_times(spans: Iterable[tuple[str, float, float, int | None]]) -> dict[str, float]:
    """Per-span-name self time: duration minus the direct children's.

    ``spans`` holds ``(name, start, end, parent_index)`` tuples in
    creation order (a parent precedes its children). Spans of one
    thread nest properly, so subtracting each direct child's full
    duration removes exactly the interval the children cover, and the
    self times of every span sum to the total duration of the roots.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for idx, (name, start, end, _parent) in enumerate(spans):
        out[name] += (end - start) - covered[idx]
    return dict(out)


def layer_self_times(spans) -> dict[str, float]:
    """:func:`self_times` summed per layer (every layer in :data:`LAYERS`)."""
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in self_times(spans).items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + seconds
    return out


def root_seconds(spans) -> float:
    """Total duration of the spans that have no parent."""
    return sum(end - start for _name, start, end, parent in spans if parent is None)


class Tracer:
    """Records spans around wrapped callables; single-threaded by design.

    The benchmark runs every campaign with ``processes=1``, so all
    layer calls happen on the main thread and a plain stack gives each
    span its parent.
    """

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, creation order
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def parent_layer(self) -> str | None:
        """Layer of the innermost open span (``None`` at top level)."""
        if not self._stack:
            return None
        return layer_of(self.spans[self._stack[-1]][0])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        after: Callable[["Tracer", str | None, tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as span ``name``; ``after(tracer, parent_layer,
        args, kwargs, result)`` runs once the call has returned."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = tracer.parent_layer()
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(tracer, parent, args, kwargs, result)
            return result

        return wrapper

    def accumulate(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        """``fn`` timed into ``counts[key]`` without opening a span (for
        boundaries hit per tick, where a span list would dominate memory)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[key] += time.perf_counter() - start

        return wrapper

    # -- patching -------------------------------------------------------

    def patch_method(self, cls: type, attr: str, wrapper_factory) -> None:
        """Replace ``cls.attr`` (own or inherited) with a wrapper."""
        original = cls.__dict__.get(attr, None)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, wrapper_factory(getattr(cls, attr)))

    def patch_function(self, module: Any, attr: str, wrapper_factory) -> None:
        """Replace function ``module.attr`` in every loaded ``repro``
        module that bound it by name (``from x import f`` copies)."""
        original = getattr(module, attr)
        wrapper = wrapper_factory(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()


# -- hooks that turn call results into counts ----------------------------


def _count_engine_result(tracer: Tracer, parent: str | None, args, kwargs, result) -> None:
    """Outermost engine call: sum simulated ticks over its results."""
    if parent == "engine":
        return
    results = result if isinstance(result, list) else [result]
    for item in results:
        ticks = getattr(item, "ticks", None)
        if ticks is not None:
            tracer.counts["engine.ticks"] += ticks


def _count_batch(tracer: Tracer, parent: str | None, args, kwargs, result) -> None:
    _count_engine_result(tracer, parent, args, kwargs, result)
    if parent != "engine":
        tracer.counts["sweep.batches"] += 1
        tracer.counts["sweep.lanes"] += len(result)


def _count_store_read(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["store.reads"] += len(args[1])  # get_many(self, keys)
    tracer.counts["store.hits"] += len(result)


def _count_store_write(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["store.writes"] += 1


def _count_build(tracer: Tracer, parent, args, kwargs, result) -> None:
    tracer.counts["traces.builds"] += 1


def _count_sweep(tracer: Tracer, parent, args, kwargs, result) -> None:
    stats = getattr(args[0], "last_campaign", None)
    if stats is not None:
        tracer.counts["sweep.jobs_fresh"] += stats.simulated
        tracer.counts["sweep.jobs_cached"] += stats.cache_hits


def install(tracer: Tracer) -> None:
    """Wrap the public boundary of every layer the ledger reports.

    Imports the program first so that every ``from x import f`` copy of
    a wrapped function exists and gets patched too.
    """
    import repro.analysis.sweep as sweep
    import repro.core.batchengine as batchengine
    import repro.core.directmapped as directmapped
    import repro.core.drain as drain
    import repro.core.engine as engine
    import repro.core.fastengine as fastengine
    import repro.experiments  # noqa: F401 — binds every experiment module
    import repro.experiments.base as base
    import repro.store.dirstore as dirstore
    import repro.theory as theory
    import repro.traces as traces

    def span(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    tracer.patch_method(base.Campaign, "run", span("experiments.campaign"))
    tracer.patch_method(sweep.SweepRunner, "run", span("sweep", _count_sweep))
    store = dirstore.DirectoryStore
    tracer.patch_method(store, "get_many", span("store.read", _count_store_read))
    for attr in ("load_checkpoint", "done_keys"):
        tracer.patch_method(store, attr, span("store.read"))
    for attr in ("put", "mark_done", "save_checkpoint"):
        tracer.patch_method(store, attr, span("store.write", _count_store_write))
    tracer.patch_method(sweep.WorkloadSpec, "build", span("traces"))
    tracer.patch_function(traces, "make_workload", span("traces.make", _count_build))
    tracer.patch_function(
        batchengine, "simulate_batch", span("engine.batch", _count_batch)
    )
    tracer.patch_function(
        fastengine, "simulate", span("engine.solo", _count_engine_result)
    )
    for cls in (engine.Simulator, fastengine.FastSimulator, batchengine.BatchSimulator):
        tracer.patch_method(cls, "run", span("engine.run", _count_engine_result))
    tracer.patch_function(
        drain, "plan_drain", lambda fn: tracer.accumulate(fn, "drain.plan_s")
    )
    for module, layer in ((theory, "theory"), (directmapped, "directmapped")):
        for attr in module.__all__:
            value = getattr(module, attr)
            if callable(value) and not isinstance(value, type):
                tracer.patch_function(module, attr, span(layer))


# -- program-side counts from the repro.obs.metrics registry -------------


def registry_counts(registry) -> dict[str, float]:
    """Fast-forward and engine-run totals the program exported."""
    families = registry.families()
    out = {
        "drain.ff_s": 0.0,
        "drain.intervals": 0.0,
        "drain.elided_ticks": 0.0,
        "drain.attempts.hit": 0.0,
        "drain.attempts.miss": 0.0,
        "drain.declines.hit": 0.0,
        "drain.declines.miss": 0.0,
        "engine.runs.batch": 0.0,
        "engine.runs.fast": 0.0,
        "engine.runs.reference": 0.0,
    }
    phases = families.get("repro_phase_seconds")
    if phases is not None:
        out["drain.ff_s"] = phases.cell(phase="fast_forward")["sum"]
    for family, key in (
        ("repro_ff_intervals_total", "drain.intervals"),
        ("repro_ff_elided_ticks_total", "drain.elided_ticks"),
    ):
        if family in families:
            out[key] = sum(families[family].series().values())
    for family, prefix, label in (
        ("repro_ff_plan_attempts", "drain.attempts.", "window"),
        ("repro_ff_plan_declines", "drain.declines.", "window"),
        ("repro_engine_runs_total", "engine.runs.", "engine"),
    ):
        if family not in families:
            continue
        for labels, value in families[family].series().items():
            key = prefix + dict(labels)[label]
            out[key] = out.get(key, 0.0) + value
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def pass_ledger(tracer: Tracer, registry, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (cold or warm).

    Self times come from the spans; the drain layer's share is the
    fast-forward time the engines report (``drain.ff_s``), which lies
    inside engine spans, so it moves from engine to drain and the
    layers still sum to the pass wall time.
    """
    spans = [tuple(s) for s in tracer.spans]
    layers = layer_self_times(spans)
    reg = registry_counts(registry)
    counts = tracer.counts
    ff_s = reg["drain.ff_s"]
    named = self_times(spans)
    # inclusive time of the outermost engine calls, split by entry point
    engine_batch = engine_solo = 0.0
    for name, start, end, parent in spans:
        if layer_of(name) != "engine" or (
            parent is not None and layer_of(spans[parent][0]) == "engine"
        ):
            continue
        if name == "engine.batch":
            engine_batch += end - start
        else:
            engine_solo += end - start
    layers["drain"] = ff_s
    layers["engine"] -= ff_s
    attributed = sum(layers.values())
    ticks = counts.get("engine.ticks", 0.0)
    elided = reg["drain.elided_ticks"]
    attempts = reg["drain.attempts.hit"] + reg["drain.attempts.miss"]
    declines = reg["drain.declines.hit"] + reg["drain.declines.miss"]
    probes = counts.get("store.reads", 0.0)
    out = {
        "wall_s": wall_s,
        "traces.build_s": layers["traces"],
        "traces.builds": counts.get("traces.builds", 0.0),
        "store.read_s": named.get("store.read", 0.0),
        "store.reads": probes,
        "store.hit_ratio": ratio(counts.get("store.hits", 0.0), probes),
        "store.write_s": named.get("store.write", 0.0),
        "store.writes": counts.get("store.writes", 0.0),
        "sweep.self_s": layers["sweep"],
        "sweep.batches": counts.get("sweep.batches", 0.0),
        "sweep.lanes_per_batch": ratio(
            counts.get("sweep.lanes", 0.0), counts.get("sweep.batches", 0.0)
        ),
        "sweep.jobs_fresh": counts.get("sweep.jobs_fresh", 0.0),
        "sweep.jobs_cached": counts.get("sweep.jobs_cached", 0.0),
        "engine.batch_s": engine_batch,
        "engine.solo_s": engine_solo,
        "engine.runs.batch": reg["engine.runs.batch"],
        "engine.runs.fast": reg["engine.runs.fast"],
        "engine.runs.reference": reg["engine.runs.reference"],
        "engine.ticks": ticks,
        "engine.tick_loop_s": layers["engine"],
        "engine.ns_per_tick": 1e9 * ratio(layers["engine"], ticks - elided),
        "drain.ff_s": ff_s,
        "drain.plan_s": counts.get("drain.plan_s", 0.0),
        "drain.intervals": reg["drain.intervals"],
        "drain.elided_ticks": elided,
        "drain.elided_frac": ratio(elided, ticks),
        "drain.attempts.hit": reg["drain.attempts.hit"],
        "drain.attempts.miss": reg["drain.attempts.miss"],
        "drain.declines.hit": reg["drain.declines.hit"],
        "drain.declines.miss": reg["drain.declines.miss"],
        "drain.accept_ratio": ratio(attempts - declines, attempts),
        "drain.us_per_elided_tick": 1e6 * ratio(ff_s, elided),
        "experiments.self_s": layers["experiments"],
        "theory.s": layers["theory"],
        "directmapped.s": layers["directmapped"],
        "trace.unattributed_s": wall_s - attributed,
    }
    return out
