"""Benchmarks for the paper's swept-but-unplotted ablation axes."""


def test_ablation_channels(run_experiment_once):
    """q in 1..10: bandwidth augmentation shrinks FIFO's deficit."""
    out = run_experiment_once("ablation_channels")
    assert out.rows[-1]["ratio"] < out.rows[0]["ratio"]


def test_ablation_permutation_schemes(run_experiment_once):
    """none / cycle / cycle-reverse / interleave / dynamic / random."""
    run_experiment_once("ablation_schemes")


def test_ablation_asymmetric_work(run_experiment_once):
    """Dynamic vs Cycle Priority under an unbalanced work distribution."""
    run_experiment_once("ablation_asymmetric")


def test_ablation_replacement_policies(run_experiment_once):
    """LRU-family vs Belady: misses are not makespan."""
    run_experiment_once("ablation_replacement")


def test_ablation_shared_pages(run_experiment_once):
    """Non-disjoint sequences (future work 6.1): sharing amortizes traffic."""
    run_experiment_once("ablation_shared")


def test_ablation_fr_fcfs(run_experiment_once):
    """FR-FCFS: real-controller reordering vs FIFO vs Priority."""
    out = run_experiment_once("ablation_fr_fcfs")
    assert out.rows[-1]["fr_fcfs_gap"] > 1.0
