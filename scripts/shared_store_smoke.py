#!/usr/bin/env python
"""Shared-store smoke test for sharded campaigns (CI and local).

Launches two concurrent ``repro run --shard`` subprocesses pointed at
one directory result store, then asserts the sharded-execution
contract end to end:

* both shards exit 0 while racing on the same store directory;
* their combined coverage is the full campaign — every job key is in
  the store and in the done frontier, none left behind;
* no job was simulated twice: the store holds exactly one entry per
  key and the per-shard ``simulated`` counts sum to the job count;
* a final unsharded pass over the shared store replays entirely from
  cache with metrics bit-identical to a single-process reference run.

Exit status 0 on success, 1 with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/shared_store_smoke.py
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis import SweepJob, SweepRunner, WorkloadSpec, run_sweep
from repro.core import SimulationConfig
from repro.obs import configure_logging
from repro.store import DirectoryStore, sweep_result_key

METRIC_FIELDS = (
    "makespan",
    "mean_response",
    "inconsistency",
    "max_response",
    "hit_rate",
    "total_requests",
    "hits",
    "fetches",
    "evictions",
)

#: the job list both shards and the reference run share; keep it in one
#: place so the subprocess snippet below cannot drift from the parent
JOB_SRC = """
from repro.analysis import SweepJob, WorkloadSpec
from repro.core import SimulationConfig

jobs = [
    SweepJob(
        WorkloadSpec.make("adversarial_cycle", threads=2, pages=16, repeats=4),
        SimulationConfig(hbm_slots=8 * (i + 1)),
        tag=f"job-{i}",
    )
    for i in range(6)
]
"""

SHARD_SRC = (
    JOB_SRC
    + """
import sys
from repro.analysis import SweepRunner

runner = SweepRunner(processes=1, store=sys.argv[1], shard=sys.argv[2])
records = runner.run(jobs, label="shared-smoke")
stats = runner.last_campaign
print(f"SHARD {sys.argv[2]}: {len(records)} records, "
      f"{stats.simulated} simulated, {stats.skipped} skipped")
print(f"SIMULATED={stats.simulated}")
"""
)


def build_jobs():
    namespace = {}
    exec(JOB_SRC, namespace)
    return namespace["jobs"]


def fail(message):
    print(f"SHARED STORE SMOKE FAILED: {message}", file=sys.stderr)
    return 1


def main():
    configure_logging(0)
    jobs = build_jobs()
    keys = {sweep_result_key(j.workload, j.config, j.payload) for j in jobs}

    print("== reference run (single process, no store) ==")
    baseline = run_sweep(jobs, processes=1)

    with tempfile.TemporaryDirectory() as tmp:
        uri = f"dir:{Path(tmp) / 'shared'}"
        print(f"== two concurrent shards -> {uri} ==")
        env = dict(os.environ)
        env.pop("REPRO_STORE", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", SHARD_SRC, uri, f"{i}/2"],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
            )
            for i in range(2)
        ]
        outputs = [p.communicate(timeout=300)[0] for p in procs]
        for proc, out in zip(procs, outputs):
            print(out, end="")
            if proc.returncode != 0:
                return fail(f"shard exited {proc.returncode}:\n{out}")

        simulated = sum(
            int(line.split("=", 1)[1])
            for out in outputs
            for line in out.splitlines()
            if line.startswith("SIMULATED=")
        )
        if simulated != len(jobs):
            return fail(
                f"duplicate or lost simulations: shards simulated "
                f"{simulated}, campaign has {len(jobs)} jobs"
            )

        store = DirectoryStore(uri.split(":", 1)[1])
        if len(store) != len(jobs):
            return fail(f"store holds {len(store)} entries, want {len(jobs)}")
        campaigns = store.list_campaigns()
        if len(campaigns) != 1:
            return fail(f"expected one campaign, found {campaigns}")
        done = store.done_keys(campaigns[0])
        if done != keys:
            return fail(
                f"frontier incomplete: {len(done)}/{len(keys)} keys done"
            )

        print("== final unsharded pass: must replay entirely from cache ==")
        final = SweepRunner(processes=1, store=uri)
        records = final.run(jobs, label="shared-smoke")
        stats = final.last_campaign
        print(stats.summary_table())
        if stats.simulated != 0:
            return fail(f"final pass re-simulated {stats.simulated} job(s)")
        if stats.cache_hits != len(jobs):
            return fail(f"final pass hit {stats.cache_hits}/{len(jobs)}")
        by_tag = {r.job.tag: r for r in records}
        for clean in baseline:
            record = by_tag.get(clean.job.tag)
            if record is None:
                return fail(f"record missing for tag {clean.job.tag!r}")
            for name in METRIC_FIELDS:
                got, want = getattr(record, name), getattr(clean, name)
                if got != want:
                    return fail(
                        f"tag={record.job.tag!r} {name}={got!r} != "
                        f"reference {want!r}"
                    )

    print(
        f"OK: 2 shards drained {len(jobs)} jobs into one directory store with "
        "no duplicates, full frontier coverage, and a bit-identical replay"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
