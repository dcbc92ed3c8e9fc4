"""The knob and API census in ``docs/ARCHITECTURE.md`` names exactly the
knobs the program has, so a new knob without a row, or a row left for a
deleted knob, fails here."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

from repro._cli import build_parser
from repro.analysis import CampaignTelemetry, SweepRunner, run_sweep

ROOT = Path(__file__).resolve().parent.parent
ENV_NAME = re.compile(r"(HBM_)?REPRO_[A-Z0-9_]+")
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.experiments",
    "repro.machine",
    "repro.obs",
    "repro.store",
    "repro.theory",
    "repro.traces",
)
PARAM_OWNERS = (SweepRunner, run_sweep, CampaignTelemetry)


def env_variables() -> set[tuple[str, str]]:
    """Every environment-variable string literal under ``src/repro``."""
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_NAME.fullmatch(node.value)
            ):
                found.add(("env", node.value))
    return found


def cli_options(
    parser: argparse.ArgumentParser | None = None, command: str = "repro"
) -> set[tuple[str, str]]:
    """``(command, option)`` for every option of every subcommand."""
    parser = parser if parser is not None else build_parser()
    found = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found |= cli_options(sub, f"{command} {name}")
        elif not isinstance(action, argparse._HelpAction):
            found |= {(command, option) for option in action.option_strings}
    return found


def setters() -> set[tuple[str, str]]:
    """``(package, name)`` for every ``set_*`` in a package ``__all__``."""
    return {
        (package, name)
        for package in PACKAGES
        for name in importlib.import_module(package).__all__
        if name.startswith("set_")
    }


def parameters() -> set[tuple[str, str]]:
    return {
        (owner.__name__, name)
        for owner in PARAM_OWNERS
        for name in inspect.signature(owner).parameters
    }


def census_rows() -> set[tuple[str, str]]:
    """The census table, one ``(surface, name)`` per name and surface;
    env rows use the surface ``env``."""
    text = (ROOT / "docs" / "ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text.split("## Knob and API census", 1)[1]
    rows = set()
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 4 or cells[0] not in ("env", "flag", "setter", "param"):
            continue
        names = re.findall(r"`([^`]+)`", cells[1])
        surfaces = re.findall(r"`([^`]+)`", cells[2]) or [cells[2]]
        rows |= {(surface, name) for surface in surfaces for name in names}
    return rows


class TestKnobCensus:
    def test_table_parses(self):
        rows = census_rows()
        assert ("env", "REPRO_STORE") in rows
        assert ("repro simulate", "--engine") in rows

    def test_table_matches_the_code(self):
        in_code = env_variables() | cli_options() | setters() | parameters()
        documented = census_rows()
        assert sorted(in_code - documented) == [], "knobs with no census row"
        assert sorted(documented - in_code) == [], "census rows for no knob"
