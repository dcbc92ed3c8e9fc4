"""Campaign benchmark: cold single-process campaigns, timed from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload theory_ff --seed 0 --seconds 55 --trace 0

Every pass runs in a fresh interpreter (``campaign.py``) with
``processes=1``, default knobs and every ``REPRO_*`` variable removed
from the environment. A cold pass starts from an empty store and
workload cache; a warm pass reruns the same experiments against the
store a cold pass filled, as a repeated CLI call would.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``. After
one untimed warm-up pass it runs as many cold passes as fit in
``--seconds`` (a few dozen, on the benchmark's workloads) and reports
medians over them: ``setup_s``, ``peak_rss_mb``, and ``wall_norm_s``,
each pass's wall time scaled by the speed of the host at that moment.
That speed is read from a fixed :class:`Reference` kernel timed between
passes: a pass that took ``w`` seconds while the kernel took ``k``
reads ``w * REFERENCE_S / k``. ``refs_per_norm_s`` is the simulated
references over ``wall_norm_s``. The raw walls (fastest, median,
slowest) are printed above the result line.

``--trace 1`` prints the per-layer metrics instead. It runs
``TRACE_REPEATS`` interleaved triples of cold passes (untraced, traced
with the span ledger of ``ledger.py``, and untraced with
``REPRO_FAST_FORWARD=0``), then on the store of the fastest traced pass
``TRACE_REPEATS`` untraced warm passes (``replay_s``, interpreter start
to last output, fastest) and one traced warm pass (``replay.*``). The
layer metrics are the fastest traced pass's ledger; the fastest traced
and FF-off walls against the fastest untraced one give
``trace.overhead_frac`` and ``drain.net_s``.

Correctness: every pass must reproduce the reference outputs. At seed
0 the reference is ``tests/data/characterization_smoke.json``; at a
seed pinned in ``pins.json`` it is the pinned digests, and the traced
passes must also reproduce the pinned simulated counts exactly; at any
other seed it is the run's first pass, and the traced passes must agree
on the counts among themselves. A mismatching experiment counts
all its jobs as failed, the result line reads ``"correct": false`` and
the exit code is 1. The last line of standard output is the JSON
result; the exit code is 2, with no result, when the program or the
snapshot is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from campaign import WORKLOADS, canonical, output_digest  # noqa: E402

SNAPSHOT = ROOT / "tests" / "data" / "characterization_smoke.json"
PINS = HERE / "pins.json"
WORK_ROOT = ROOT / ".perfbench_run"

#: hard cap on timed cold passes per untraced run
MAX_PASSES = 200
#: passes of each kind in a traced run
TRACE_REPEATS = 3
#: normalized walls read as seconds on a host where the reference kernel
#: takes this long (on a shared 2-vCPU VM it took 22 to 35 ms)
REFERENCE_S = 0.030
#: reference kernels timed between two passes; the fastest counts
REFERENCE_REPEATS = 5
#: every child must finish before this many seconds into the run
RUN_DEADLINE_S = 170.0
#: simulated counts a traced run must reproduce exactly for a pinned seed
COUNT_KEYS = (
    "engine.ticks",
    "drain.intervals",
    "drain.elided_ticks",
    "drain.attempts.hit",
    "drain.attempts.miss",
    "drain.declines.hit",
    "drain.declines.miss",
)
#: the ledger's residual may be at most this share of the traced wall
LEDGER_EPS = 0.01
#: warm-pass ledger entries reported as ``replay.<name>``
REPLAY_KEYS = (
    "wall_s",
    "store.read_s",
    "store.hit_ratio",
    "sweep.self_s",
    "traces.build_s",
    "experiments.self_s",
    "theory.s",
    "directmapped.s",
    "trace.unattributed_s",
)


class BenchError(RuntimeError):
    """The benchmark could not run (missing program, child crashed)."""


def child_env(fast_forward: bool = True) -> dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob.

    Numeric libraries are held to one thread so a campaign uses one
    core, as ``processes=1`` promises.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    if not fast_forward:
        env["REPRO_FAST_FORWARD"] = "0"
    return env


class Runner:
    """Starts campaign children inside one scratch directory."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self._n = 0

    def fresh_cache(self) -> Path:
        self._n += 1
        return self.workdir / f"cache{self._n}"

    def child(
        self,
        workload: str,
        seed: int,
        cache: Path,
        trace: bool = False,
        replay: bool = False,
        fast_forward: bool = True,
    ) -> dict:
        self._n += 1
        out = self.workdir / f"result{self._n}.json"
        cmd = [
            sys.executable,
            str(HERE / "campaign.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--cache-dir",
            str(cache),
            "--out",
            str(out),
        ]
        if trace:
            cmd.append("--trace")
        if replay:
            cmd.append("--replay")
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed before a child could start")
        cmd += ["--spawned-at", repr(time.time())]
        started = time.monotonic()
        proc = subprocess.Popen(cmd, env=child_env(fast_forward), cwd=ROOT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"campaign child exceeded the run deadline: {cmd}")
        if code != 0 or not out.exists():
            raise BenchError(f"campaign child failed with exit code {code}: {cmd}")
        result = json.loads(out.read_text(encoding="utf-8"))
        result["elapsed_s"] = time.monotonic() - started
        return result


# -- correctness ----------------------------------------------------------


def load_pins() -> dict:
    if PINS.exists():
        return json.loads(PINS.read_text(encoding="utf-8"))
    return {}


def reference_digests(workload: str, seed: int) -> dict[str, str] | None:
    """Expected digest per experiment, or ``None`` when nothing is pinned.

    Seed 0 is checked against the characterization snapshot, which the
    repository's tests also pin.
    """
    if seed == 0:
        snapshot = json.loads(SNAPSHOT.read_text(encoding="utf-8"))
        return {
            e: output_digest(
                canonical({"rows": snapshot[e]["rows"], "checks": snapshot[e]["checks"]})
            )
            for e in WORKLOADS[workload]
        }
    pinned = load_pins().get(workload, {}).get(str(seed))
    return dict(pinned["digests"]) if pinned else None


def digests(child: dict) -> dict[str, str]:
    return {e: s["digest"] for e, s in child["experiments"].items()}


def check_child(child: dict, expected: dict[str, str], notes: list[str]) -> tuple[int, int]:
    """(attempted, failed) jobs of one pass, per the correctness gate."""
    attempted = failed = 0
    for experiment_id, summary in child["experiments"].items():
        attempted += summary["jobs"]
        failed += summary["failed"]
        if expected.get(experiment_id) != summary["digest"]:
            kind = "warm" if "replay_s" in child else "cold"
            notes.append(f"MISMATCH {experiment_id}: {kind} pass output differs from the reference")
            failed += summary["jobs"]
    return attempted, failed


# -- the two kinds of run -------------------------------------------------


def cold_pass(runner: Runner, workload: str, seed: int) -> dict:
    """One cold pass on a store and workload cache of its own."""
    cache = runner.fresh_cache()
    try:
        return runner.child(workload, seed, cache)
    finally:
        shutil.rmtree(cache, ignore_errors=True)


class Reference:
    """A fixed kernel the benchmark times between passes, to read how
    fast the host is at that moment.

    Other tenants of a shared host slow the simulator by up to half,
    for minutes at a time, and slow this kernel with it: a pure-Python
    loop of integer and dict work like the tick loop's, then a numpy
    sort and cumulative sum over 16 MB like the engines' array work. In
    ten runs per workload on a shared 2-vCPU VM, the quartile distance
    of the runs' median raw walls was 18 and 29% of their median, and
    7 and 9% for ``wall_norm_s``.
    """

    def __init__(self) -> None:
        import numpy

        self.array = numpy.random.default_rng(0).random(2_000_000)

    def _kernel(self) -> None:
        acc, table, log = 0, {}, []
        for i in range(60_000):
            acc = (acc * 31 + i) & 0xFFFFF
            table[acc & 1023] = table.get(acc & 511, 0) + 1
            if acc & 7 == 0:
                log.append(acc)
        self.array[:500_000].copy().sort()
        self.array.cumsum()

    def seconds(self) -> float:
        """Fastest of ``REFERENCE_REPEATS`` timed kernels."""
        best = float("inf")
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            self._kernel()
            best = min(best, time.perf_counter() - start)
        return best


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float, notes) -> tuple[dict, list]:
    reference = Reference()
    # the first pass pays one-off costs (bytecode compilation, a cold
    # page cache) that later CLI calls do not; it is checked, not timed
    warmup = cold_pass(runner, workload, seed)
    colds: list[dict] = []
    kernel = [reference.seconds()]
    spent: list[float] = []
    started = time.monotonic()
    while not colds or (
        len(colds) < MAX_PASSES
        and time.monotonic() - started + statistics.median(spent) <= seconds
    ):
        t0 = time.monotonic()
        colds.append(cold_pass(runner, workload, seed))
        kernel.append(reference.seconds())
        spent.append(time.monotonic() - t0)
    # each pass against the mean of the kernel times just before and after it
    norm = [
        c["wall_s"] * REFERENCE_S / ((kernel[i] + kernel[i + 1]) / 2)
        for i, c in enumerate(colds)
    ]
    walls = sorted(c["wall_s"] for c in colds)
    notes.append(
        f"{len(colds)} timed cold passes after one warm-up: wall_s fastest "
        f"{walls[0]:.4f}, median {statistics.median(walls):.4f}, slowest "
        f"{walls[-1]:.4f}; reference kernel median "
        f"{statistics.median(kernel) * 1e3:.2f} ms; vector thresholds "
        + " ".join(sorted({str(c["setup.vector_threshold"]) for c in colds}))
    )
    wall_norm = statistics.median(norm)
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in colds),
        "wall_norm_s": wall_norm,
        "refs_per_norm_s": colds[0]["refs"] / wall_norm,
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in colds),
    }
    return metrics, [warmup] + colds


def per_layer(runner: Runner, workload: str, seed: int, notes) -> tuple[dict, list]:
    untraced: list[dict] = []
    traced: list[dict] = []
    ff_off: list[dict] = []
    caches: list[Path] = []
    # interleaved, so a host that drifts slower or faster during the
    # set biases no kind of pass against the others
    for _ in range(TRACE_REPEATS):
        untraced.append(cold_pass(runner, workload, seed))
        caches.append(runner.fresh_cache())
        traced.append(runner.child(workload, seed, caches[-1], trace=True))
        ff_off.append(runner.child(workload, seed, runner.fresh_cache(), fast_forward=False))
    best = min(range(TRACE_REPEATS), key=lambda i: traced[i]["wall_s"])
    cache = caches[best]
    replays = [
        runner.child(workload, seed, cache, replay=True) for _ in range(TRACE_REPEATS)
    ]
    warm = runner.child(workload, seed, cache, trace=True, replay=True)
    untraced_wall = min(c["wall_s"] for c in untraced)
    cold_ledger, warm_ledger = traced[best]["ledger"], warm["ledger"]
    metrics = {k: v for k, v in cold_ledger.items() if k != "wall_s"}
    metrics["experiments.checks"] = traced[best]["checks"]
    for key in REPLAY_KEYS:
        metrics[f"replay.{key}"] = warm_ledger[key]
    for key in ("import_s", "calibrate_s", "store_open_s", "vector_threshold"):
        metrics[f"setup.{key}"] = traced[best][f"setup.{key}"]
    metrics["replay_s"] = min(r["replay_s"] for r in replays)
    metrics["trace.wall_s"] = traced[best]["wall_s"]
    metrics["trace.overhead_frac"] = traced[best]["wall_s"] / untraced_wall - 1.0
    metrics["drain.net_s"] = min(c["wall_s"] for c in ff_off) - untraced_wall
    for other in traced:
        for key in COUNT_KEYS:
            if other["ledger"][key] != cold_ledger[key]:
                notes.append(
                    f"COUNT {key}: traced passes of one seed disagree "
                    f"({other['ledger'][key]:.0f} vs {cold_ledger[key]:.0f})"
                )
    for name, led in (("cold", cold_ledger), ("warm", warm_ledger)):
        if abs(led["trace.unattributed_s"]) > LEDGER_EPS * led["wall_s"]:
            notes.append(
                f"LEDGER {name} pass: layers sum to "
                f"{led['wall_s'] - led['trace.unattributed_s']:.4f}s of "
                f"{led['wall_s']:.4f}s wall (more than {LEDGER_EPS:.0%} apart)"
            )
    pinned = load_pins().get(workload, {}).get(str(seed))
    if pinned is not None:
        for key in COUNT_KEYS:
            if pinned["counts"][key] != cold_ledger[key]:
                notes.append(
                    f"COUNT {key}: {cold_ledger[key]:.0f} differs from the pinned "
                    f"{pinned['counts'][key]:.0f}"
                )
    else:
        notes.append(f"seed {seed}: no pinned counts; counts checked between traced passes only")
    return metrics, untraced + traced + ff_off + replays + [warm]


def spec_metrics(section: str, values: dict) -> dict:
    """Values for every metric BENCHMARK.json declares in ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec[section]
    }


def preflight() -> None:
    """Refuse to run without the program or the reference snapshot."""
    needed = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "repro" / "__init__.py",
        ROOT / "tests" / "characterization_util.py",
        SNAPSHOT,
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError("run from a repository checkout; missing: " + ", ".join(missing))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cold-campaign benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    notes: list[str] = []
    try:
        preflight()
        workdir = WORK_ROOT / f"run-{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runner = Runner(workdir, time.monotonic() + RUN_DEADLINE_S)
        try:
            if args.trace:
                values, children = per_layer(runner, args.workload, args.seed, notes)
                section = "per_layer"
            else:
                values, children = end_to_end(
                    runner, args.workload, args.seed, args.seconds, notes
                )
                section = "end_to_end"
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run still uses it
        metrics = spec_metrics(section, values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    expected = reference_digests(args.workload, args.seed)
    if expected is None:
        notes.append(
            f"seed {args.seed}: no pinned digests; every pass must match the first"
        )
        expected = digests(children[0])
    attempted = failed = 0
    for child in children:
        a, f = check_child(child, expected, notes)
        attempted += a
        failed += f
    correct = failed == 0 and not any(n.startswith(("LEDGER", "COUNT")) for n in notes)
    for note in notes:
        print(note)
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} jobs)")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
