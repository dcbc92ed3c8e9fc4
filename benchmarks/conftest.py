"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper table/figure (at smoke scale) via
``benchmark.pedantic(..., rounds=1)`` — these are multi-second
simulation campaigns, not microsecond kernels — and then asserts the
experiment's *shape checks* (who wins, where the crossover falls).
Engine micro-benchmarks (``test_bench_engine.py``) use normal
calibrated rounds.

Environment knobs:

* ``HBM_BENCH_SCALE`` — ``smoke`` (default) or ``paper``;
* ``HBM_BENCH_PROCESSES`` — worker processes for sweeps (default: all).
"""

from __future__ import annotations

import os

import pytest

from repro.experiments import run_experiment


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("HBM_BENCH_SCALE", "smoke")


@pytest.fixture(scope="session")
def processes() -> int | None:
    value = os.environ.get("HBM_BENCH_PROCESSES")
    return int(value) if value else None


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("workload-cache"))


@pytest.fixture()
def run_experiment_once(benchmark, scale, processes, cache_dir):
    """Run a registry experiment exactly once under the benchmark timer
    and assert every shape check passed."""

    def runner(experiment_id, **kwargs):
        out = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs=dict(
                scale=scale, processes=processes, cache_dir=cache_dir, **kwargs
            ),
            rounds=1,
            iterations=1,
        )
        assert out.all_checks_pass, (
            f"{out.experiment_id} failed shape checks: {out.failed_checks()}\n"
            f"{out.render()}"
        )
        return out

    return runner
