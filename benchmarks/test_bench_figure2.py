"""Benchmarks regenerating Figure 2 (FIFO vs static Priority)."""


def test_fig2a_spgemm(run_experiment_once):
    """Figure 2a: makespan ratio across thread counts, SpGEMM traces."""
    out = run_experiment_once("fig2a")
    # the paper's headline: Priority wins by a large factor at high p
    assert max(r["ratio"] for r in out.rows) > 1.5


def test_fig2b_sort(run_experiment_once):
    """Figure 2b: makespan ratio across thread counts, GNU-sort traces."""
    out = run_experiment_once("fig2b")
    assert max(r["ratio"] for r in out.rows) > 1.2
