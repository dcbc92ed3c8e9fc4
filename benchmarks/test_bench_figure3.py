"""Benchmark regenerating Figure 3 (the FIFO catastrophe)."""


def test_fig3_adversarial_cycle(run_experiment_once):
    """Figure 3: FIFO's makespan grows linearly in p on Dataset 3."""
    out = run_experiment_once("fig3")
    slope, _, r2 = out.data["fit"]
    assert slope > 0 and r2 > 0.9
    # FIFO misses everything, exactly as the paper describes
    assert all(r["fifo_hit_rate"] < 0.005 for r in out.rows)
