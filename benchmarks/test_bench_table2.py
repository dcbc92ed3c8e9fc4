"""Benchmarks regenerating Table 2 and Figure 6 (KNL microbenchmarks)."""


def test_tab2a_latency(run_experiment_once):
    """Table 2a: pointer-chase latency per boot mode."""
    out = run_experiment_once("tab2a")
    first = out.rows[0]
    # Property 1: HBM ~24ns slower than DRAM
    assert 10 < first["hbm_ns"] - first["dram_ns"] < 45


def test_tab2b_glups(run_experiment_once):
    """Table 2b: GLUPS bandwidth per boot mode."""
    out = run_experiment_once("tab2b")
    first = out.rows[0]
    assert first["hbm_mib_s"] > 4 * first["dram_mib_s"]


def test_fig6_hierarchy_curves(run_experiment_once):
    """Figure 6: latency plateaus across the full hierarchy."""
    out = run_experiment_once("fig6")
    assert "Figure 6b" in out.text
