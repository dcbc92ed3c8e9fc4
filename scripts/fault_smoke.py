#!/usr/bin/env python
"""Fault-injection smoke test for the sweep harness (CI and local).

Runs one small campaign across a 2-worker process pool while the
deterministic fault-injection hook (``repro.analysis.faults``) SIGKILLs
the worker executing the job tagged ``victim`` on its first attempt,
then asserts the fault-tolerance contract end to end:

* the campaign completes — no record is lost;
* zero failed records: the killed job recovers via a pool rebuild;
* the recovery counters are visible in :class:`CampaignStats`;
* every record matches a fault-free reference run bit-for-bit.

Exit status 0 on success, 1 with a diagnostic on any violation.

Usage::

    PYTHONPATH=src python scripts/fault_smoke.py
"""

import sys

from repro.analysis import (
    SweepJob,
    SweepRunner,
    WorkloadSpec,
    run_sweep,
    set_fault_plan,
)
from repro.core import SimulationConfig
from repro.obs import configure_logging

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


def build_jobs():
    jobs = []
    for threads in (2, 4):
        spec = WorkloadSpec.make(
            "adversarial_cycle", threads=threads, pages=16, repeats=4
        )
        for arb in ("fifo", "priority"):
            tag = "victim" if (threads, arb) == (4, "priority") else f"ok-{threads}-{arb}"
            jobs.append(
                SweepJob(spec, SimulationConfig(hbm_slots=32, arbitration=arb), tag=tag)
            )
    return jobs


def fail(message):
    print(f"FAULT SMOKE FAILED: {message}", file=sys.stderr)
    return 1


def main():
    configure_logging(0)
    jobs = build_jobs()

    print("== reference run (no faults) ==")
    baseline = run_sweep(jobs, processes=1)

    print('== faulty run: REPRO_FAULT_INJECT="kill:victim:attempts=1", '
          "processes=2 ==")
    previous = set_fault_plan("kill:victim:attempts=1")
    try:
        runner = SweepRunner(processes=2, retries=1)
        records = runner.run(jobs)
    finally:
        set_fault_plan(previous)

    if len(records) != len(jobs):
        return fail(f"lost records: {len(records)}/{len(jobs)}")
    failed = [r for r in records if r.failed]
    if failed:
        return fail(
            "failed records: "
            + ", ".join(f"{r.job.tag}: {r.error.describe()}" for r in failed)
        )
    for record, clean in zip(records, baseline):
        for name in METRIC_FIELDS:
            got, want = getattr(record, name), getattr(clean, name)
            if got != want:
                return fail(
                    f"tag={record.job.tag!r} {name}={got!r} != fault-free {want!r}"
                )

    stats = runner.last_campaign
    print(stats.summary_table())
    if stats.pool_rebuilds < 1:
        return fail("worker was never killed: pool_rebuilds == 0")
    if stats.recovered < 1:
        return fail("no jobs recovered despite a pool rebuild")
    print(
        f"OK: {len(records)} records, 0 failed, "
        f"{stats.recovered} recovered across {stats.pool_rebuilds} pool "
        f"rebuild(s), all metrics bit-identical to the fault-free run"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
