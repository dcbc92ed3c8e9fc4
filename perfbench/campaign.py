"""One campaign pass in a fresh interpreter (the benchmark's child).

``run.py`` starts this script once per measured pass, with every
``REPRO_*`` variable removed from the environment, so each pass pays
interpreter start, ``import repro`` and the vector-threshold
calibration like a CLI call does. It writes one JSON document to
``--out``:

* set-up timings: ``setup_s`` runs from the parent's spawn timestamp to
  the moment the campaign could start;
* a cold pass (default) starts from an empty store and workload cache
  in ``--cache-dir`` and reports ``wall_s`` from the first experiment
  call to the last output, the simulated references, and peak RSS;
* a warm pass (``--replay``) reruns the same experiments against the
  store a cold pass left in ``--cache-dir`` and reports ``replay_s``,
  from the spawn timestamp to the last output;
* both report a digest of every experiment's rows and checks, and with
  ``--trace`` the per-layer ledger of the pass (see ``ledger.py``).

Run directly only for debugging::

    python3 perfbench/campaign.py --workload theory_ff --seed 0 \\
        --cache-dir .perfbench_run/debug --spawned-at "$(date +%s.%N)" \\
        --out .perfbench_run/debug.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: workload -> registry experiment ids run in one campaign, in order.
#: BENCHMARK.json runs the first two, whose cold passes take a second or
#: two, so a run times dozens of them. The others take 8 to 60 s a pass,
#: too few per run to be steady on a shared host (see baseline.json),
#: but can be run by hand.
WORKLOADS: dict[str, tuple[str, ...]] = {
    "theory_ff": (
        "thm2",
        "lemma1",
        "response_bound",
        "ablation_channels",
        "ablation_replacement",
        "ablation_fr_fcfs",
        "fig3",
    ),
    "tickloop_mix": ("ablation_shared", "ablation_asymmetric"),
    "spgemm_missbound": ("fig2a",),
    "sort_missbound": ("fig2b",),
    "zoo_tickloop": ("zoo",),
    "theory_mix": (
        "thm1_3",
        "thm2",
        "lemma1",
        "response_bound",
        "ablation_channels",
        "ablation_asymmetric",
        "ablation_replacement",
        "ablation_shared",
        "ablation_fr_fcfs",
        "fig3",
    ),
}


def _setup(cache_dir: Path, spawned_at: float) -> dict:
    """Import the program, calibrate, open the store: what a CLI call pays."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import repro
    import repro.experiments  # noqa: F401 — the registry the CLI loads

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from {src}")
    t1 = time.perf_counter()
    from repro.core import vector_threshold

    threshold = vector_threshold()
    t2 = time.perf_counter()
    from repro.store.dirstore import DirectoryStore

    len(DirectoryStore(cache_dir / "results"))
    t3 = time.perf_counter()
    return {
        "setup_s": time.time() - spawned_at,
        "setup.import_s": t1 - t0,
        "setup.calibrate_s": t2 - t1,
        "setup.store_open_s": t3 - t2,
        "setup.vector_threshold": threshold,
    }


def _jsonify():
    """The characterization snapshot's own value normalizer."""
    path = ROOT / "tests" / "characterization_util.py"
    spec = importlib.util.spec_from_file_location("characterization_util", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.jsonify


def output_digest(canonical_text: str) -> str:
    return hashlib.sha256(canonical_text.encode("utf-8")).hexdigest()


def canonical(rows_and_checks: dict) -> str:
    """Key-sorted JSON of ``{"rows": ..., "checks": ...}``; floats keep
    every digit (``repr``), so equal text means bit-equal values."""
    return json.dumps(rows_and_checks, sort_keys=True)


def _run_pass(experiments, cache_dir: Path, seed: int, tracer=None) -> tuple[float, list]:
    from repro.experiments import run_experiment

    outputs = []
    start = time.perf_counter()
    for experiment_id in experiments:
        with tracer.span("experiments") if tracer else nullcontext():
            outputs.append(
                run_experiment(
                    experiment_id,
                    scale="smoke",
                    processes=1,
                    cache_dir=cache_dir,
                    seed=seed,
                )
            )
    return time.perf_counter() - start, outputs


def _summarize(outputs) -> dict:
    """Digest, job count and failed-record count per experiment."""
    jsonify = _jsonify()
    summary = {}
    for out in outputs:
        stats = out.campaign
        summary[out.experiment_id] = {
            "digest": output_digest(
                canonical({"rows": jsonify(out.rows), "checks": jsonify(out.checks)})
            ),
            # a local (analytic) experiment is one job with no records
            "jobs": max(1, stats.total_jobs if stats is not None else 0),
            "failed": stats.failed if stats is not None else 0,
        }
    return summary


def _fresh_refs(cache_dir: Path) -> int:
    """References simulated by the cold pass: ``total_requests`` summed
    over the records it stored (one per distinct fresh job)."""
    total = 0
    for path in sorted((cache_dir / "results").glob("*.json")):
        total += json.loads(path.read_text(encoding="utf-8"))["total_requests"]
    return total


def run_pass(
    workload: str, seed: int, cache_dir: Path, trace: bool, replay: bool, spawned_at: float
) -> dict:
    experiments = WORKLOADS[workload]
    result: dict = {}
    if trace:
        import ledger
        from repro.obs.metrics import MetricsRegistry, set_active_registry

        tracer = ledger.Tracer()
        ledger.install(tracer)
        registry = MetricsRegistry()
        set_active_registry(registry)
        seconds, outputs = _run_pass(experiments, cache_dir, seed, tracer)
        set_active_registry(None)
        result["ledger"] = ledger.pass_ledger(tracer, registry, seconds)
    else:
        seconds, outputs = _run_pass(experiments, cache_dir, seed)
    if replay:
        # what a user waits for when rerunning against a filled store:
        # interpreter start and set-up included, since a warm pass alone
        # takes milliseconds on single-experiment workloads
        result["replay_s"] = time.time() - spawned_at
    else:
        result["wall_s"] = seconds
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        result["refs"] = _fresh_refs(cache_dir)
    result["experiments"] = _summarize(outputs)
    result["checks"] = sum(len(out.checks) for out in outputs)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cache-dir", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--replay", action="store_true", help="warm pass over a filled store"
    )
    args = parser.parse_args(argv)
    if args.replay and not (args.cache_dir / "results").is_dir():
        parser.error(f"--replay needs a store filled by a cold pass in {args.cache_dir}")
    args.cache_dir.mkdir(parents=True, exist_ok=True)
    result = _setup(args.cache_dir, args.spawned_at)
    result.update(
        run_pass(
            args.workload,
            args.seed,
            args.cache_dir,
            args.trace,
            args.replay,
            args.spawned_at,
        )
    )
    args.out.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
