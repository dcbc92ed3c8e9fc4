"""Fixtures shared by the engine-dispatch tests."""

import pytest

from repro.obs.metrics import MetricsRegistry, set_active_registry


@pytest.fixture()
def registry():
    """A fresh metrics registry, active for the duration of the test."""
    reg = MetricsRegistry()
    previous = set_active_registry(reg)
    yield reg
    set_active_registry(previous)


@pytest.fixture()
def engine_runs(registry):
    """Callable: ``repro_engine_runs_total`` by engine label so far."""

    def counts():
        family = registry.families().get("repro_engine_runs_total")
        if family is None:
            return {}
        return {dict(k)["engine"]: v for k, v in family.series().items()}

    return counts
