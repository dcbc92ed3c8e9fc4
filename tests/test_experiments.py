"""Tests for the experiment registry, output plumbing, and cheap experiments.

The heavyweight simulation experiments (fig2/fig3/fig4/fig5) run in the
benchmark suite; here we exercise the machinery plus the experiments
that complete in well under a second.
"""

import pytest

from repro.experiments import (
    EXPERIMENTS,
    Campaign,
    Composite,
    ExperimentOutput,
    experiment_ids,
    run_experiment,
)
from repro.experiments.base import require_scale


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        ids = experiment_ids()
        for required in (
            "fig2a",
            "fig2b",
            "fig3",
            "fig4a",
            "fig4b",
            "fig5a",
            "fig5b",
            "tab1",
            "tab2a",
            "tab2b",
            "fig6",
        ):
            assert required in ids

    def test_unknown_id_raises(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("nope")

    def test_descriptions_present(self):
        for _, (entry, description) in EXPERIMENTS.items():
            assert isinstance(entry, (Campaign, Composite))
            assert len(description) > 10

    def test_require_scale(self):
        assert require_scale("smoke") == "smoke"
        assert require_scale("paper") == "paper"
        with pytest.raises(ValueError):
            require_scale("huge")


class TestExperimentOutput:
    def test_render_and_checks(self):
        out = ExperimentOutput(
            experiment_id="x",
            title="T",
            scale="smoke",
            rows=[{"a": 1}],
            text="body",
            checks={"good": True, "bad": False},
        )
        assert not out.all_checks_pass
        assert out.failed_checks() == ["bad"]
        rendered = out.render()
        assert "[PASS] good" in rendered
        assert "[FAIL] bad" in rendered
        assert "x: T" in rendered


class TestCheapExperiments:
    def test_table2a_smoke(self):
        out = run_experiment("tab2a", scale="smoke")
        assert out.all_checks_pass, out.failed_checks()
        assert any(r["array_size"] == "16MiB" for r in out.rows)
        # flat HBM unallocatable past 8GiB -> '-' cells
        big = [r for r in out.rows if r["array_size"] in ("16GiB", "64GiB")]
        assert all(r["hbm_ns"] is None for r in big)

    def test_table2b_smoke(self):
        out = run_experiment("tab2b", scale="smoke")
        assert out.all_checks_pass, out.failed_checks()
        first = out.rows[0]
        assert first["hbm_mib_s"] > 4 * first["dram_mib_s"]

    def test_figure6_smoke(self):
        out = run_experiment("fig6", scale="smoke")
        assert out.all_checks_pass, out.failed_checks()
        assert "Figure 6a" in out.text
        assert "Figure 6b" in out.text

    def test_lemma1_smoke(self):
        out = run_experiment("lemma1", scale="smoke")
        assert out.all_checks_pass, out.failed_checks()
        assert {r["replacement"] for r in out.rows} == {"lru", "fifo"}

    def test_theorem4_smoke(self):
        out = run_experiment("thm4", scale="smoke")
        assert out.all_checks_pass, out.failed_checks()

    def test_experiments_deterministic_under_seed(self):
        a = run_experiment("tab2a", scale="smoke", seed=7)
        b = run_experiment("tab2a", scale="smoke", seed=7)
        assert a.rows == b.rows
