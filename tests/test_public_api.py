"""Public API surface checks: exports exist, are documented, and stable."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.arbitration",
    "repro.core.config",
    "repro.core.directmapped",
    "repro.core.dram",
    "repro.core.engine",
    "repro.core.metrics",
    "repro.core.replacement",
    "repro.traces",
    "repro.traces.base",
    "repro.traces.instrument",
    "repro.traces.io",
    "repro.traces.sorting",
    "repro.traces.spgemm",
    "repro.traces.densemm",
    "repro.traces.adversarial",
    "repro.traces.synthetic",
    "repro.traces.shared",
    "repro.theory",
    "repro.theory.bounds",
    "repro.theory.adversary",
    "repro.theory.validation",
    "repro.machine",
    "repro.machine.hierarchy",
    "repro.machine.knl",
    "repro.machine.hybrid",
    "repro.machine.sapphire",
    "repro.machine.pointer_chase",
    "repro.machine.glups",
    "repro.analysis",
    "repro.analysis.sweep",
    "repro.analysis.faults",
    "repro.analysis.stats",
    "repro.analysis.tables",
    "repro.analysis.asciiplot",
    "repro.analysis.telemetry",
    "repro.analysis.benchtrend",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.experiments",
    "repro.experiments.registry",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_importable_with_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and len(module.__doc__.strip()) > 20, name


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_public_callables_documented(name):
    """Every function/class named in __all__ carries a docstring."""
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__doc__, f"{name}.{symbol} lacks a docstring"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_top_level_quickstart_names():
    import repro

    for name in ("SimulationConfig", "Simulator", "run_simulation",
                 "Workload", "make_workload", "SimulationResult"):
        assert hasattr(repro, name)


def test_import_leaves_asyncio_out():
    """No entry point is async, so importing the program and its CLI
    must not pay for ``asyncio``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, repro, repro.experiments, repro._cli; "
        "sys.exit('asyncio' in sys.modules)"
    )
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_store_api_has_one_import_path():
    """The result-store API is imported from ``repro.store`` only."""
    import repro.analysis
    import repro.store

    assert not set(repro.analysis.__all__) & set(repro.store.__all__)
