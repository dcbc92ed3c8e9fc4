"""Benchmarks for the Lemma 1 / Theorem 4 direct-mapped machinery."""


def test_lemma1_transformation_overhead(run_experiment_once):
    """Lemma 1: O(1) expected overhead, flat in cache size."""
    out = run_experiment_once("lemma1")
    assert max(r["miss_overhead"] for r in out.rows) < 4.0


def test_theorem4_concurrent_insert(run_experiment_once):
    """Theorem 4: concurrent front-insert takes O(log x) steps."""
    run_experiment_once("thm4")
