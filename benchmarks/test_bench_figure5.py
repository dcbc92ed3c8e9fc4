"""Benchmarks regenerating Figure 5 (inconsistency-makespan tradeoff)."""


def test_fig5a_spgemm(run_experiment_once):
    """Figure 5a: tradeoff cloud at a contended SpGEMM point."""
    out = run_experiment_once("fig5a")
    policies = {r["policy"] for r in out.rows}
    assert {"fifo", "priority"} <= policies
    assert any(p.startswith("dynamic") for p in policies)


def test_fig5b_sort(run_experiment_once):
    """Figure 5b: tradeoff cloud at a contended sort point."""
    run_experiment_once("fig5b")
