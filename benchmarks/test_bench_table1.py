"""Benchmark regenerating Table 1 (inconsistency / mean response time)."""


def test_table1_both_panels(run_experiment_once):
    """Table 1a+1b: FIFO and Priority sit at opposite fairness extremes."""
    out = run_experiment_once("tab1")
    # both panels present, all policies listed
    panels = {r["panel"] for r in out.rows}
    assert len(panels) == 2
    assert sum(r["queuing_policy"] == "fifo" for r in out.rows) == 2
