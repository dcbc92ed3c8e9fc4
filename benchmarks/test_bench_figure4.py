"""Benchmarks regenerating Figure 4 (Dynamic Priority vs FIFO)."""


def test_fig4a_spgemm(run_experiment_once):
    """Figure 4a: Dynamic Priority never loses to FIFO on SpGEMM."""
    out = run_experiment_once("fig4a")
    assert min(r["ratio"] for r in out.rows) >= 0.97


def test_fig4b_sort(run_experiment_once):
    """Figure 4b: Dynamic Priority never loses to FIFO on GNU sort."""
    out = run_experiment_once("fig4b")
    assert min(r["ratio"] for r in out.rows) >= 0.97
