"""Benchmarks validating the theoretical claims empirically."""


def test_theorem1_3_priority_competitive(run_experiment_once):
    """Priority stays within a small factor of the best-known schedule."""
    out = run_experiment_once("thm1_3")
    assert out.data["worst_vs_best"] < 1.5


def test_theorem2_fcfs_gap(run_experiment_once):
    """The FCFS adversary's gap grows linearly with p."""
    out = run_experiment_once("thm2")
    slope, _, r2 = out.data["fit"]
    assert slope > 0 and r2 > 0.9


def test_cycle_priority_response_bound(run_experiment_once):
    """Cycle Priority's response time obeys the p*T + 2 bound."""
    run_experiment_once("response_bound")
