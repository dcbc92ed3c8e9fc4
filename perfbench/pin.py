"""Pin reference outputs and simulated counts for more seeds.

For each seed, runs one traced cold campaign of the workload and stores
in ``pins.json`` the digest of every experiment's rows and checks plus
the counts a traced run must reproduce exactly (``run.COUNT_KEYS``).
Seed 0 is pinned only if it matches the characterization snapshot.
Re-pin only when a change is meant to alter outputs or counts::

    python3 perfbench/pin.py --workload theory_ff --seeds 0 1 2 3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run
from campaign import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run.preflight()
    workdir = run.WORK_ROOT / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    pins = run.load_pins()
    try:
        for seed in args.seeds:
            runner = run.Runner(workdir, time.monotonic() + 600.0)
            child = runner.child(args.workload, seed, runner.fresh_cache(), trace=True)
            digests = run.digests(child)
            if seed == 0 and digests != run.reference_digests(args.workload, 0):
                print("seed 0 differs from the characterization snapshot; not pinned")
                return 1
            pins.setdefault(args.workload, {})[str(seed)] = {
                "digests": digests,
                "counts": {k: child["ledger"][k] for k in run.COUNT_KEYS},
            }
            run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            print(f"pinned {args.workload} seed {seed} ({child['wall_s']:.1f}s traced)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
