"""Capture smoke-scale characterization snapshots for every experiment.

Writes ``tests/data/characterization_smoke.json`` mapping experiment id
to its ``rows`` and ``checks`` at scale="smoke", seed=0. The snapshot is
the contract the campaign-pipeline migration must preserve:
``tests/test_characterization.py`` re-runs every registry experiment and
asserts bit-identical rows and checks against this file.

Usage::

    PYTHONPATH=src python scripts/capture_characterization.py [CACHE_DIR]
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from characterization_util import SNAPSHOT_PATH, jsonify  # noqa: E402

from repro.analysis import SweepRunner  # noqa: E402
from repro.experiments import experiment_ids, run_experiments  # noqa: E402


def main() -> int:
    cache_dir = sys.argv[1] if len(sys.argv) > 1 else None
    snapshot: dict[str, dict] = {}
    ids = experiment_ids()
    outputs = run_experiments(
        ids, "smoke", 0, SweepRunner(processes=1, cache_dir=cache_dir)
    )
    for experiment_id in ids:
        start = time.perf_counter()
        out = next(outputs)
        snapshot[experiment_id] = {
            "rows": jsonify(out.rows),
            "checks": jsonify(out.checks),
        }
        print(
            f"{experiment_id}: {len(out.rows)} rows, "
            f"{len(out.checks)} checks ({time.perf_counter() - start:.2f}s)"
        )
    SNAPSHOT_PATH.parent.mkdir(parents=True, exist_ok=True)
    SNAPSHOT_PATH.write_text(
        json.dumps(snapshot, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {SNAPSHOT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
