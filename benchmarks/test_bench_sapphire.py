"""Benchmark for the Sapphire Rapids projection extension."""


def test_sapphire_projection(run_experiment_once):
    """Section 5 microbenchmarks on the projected SPR machine."""
    out = run_experiment_once("sapphire")
    bw_rows = [r for r in out.rows if r["metric"] == "bandwidth_mib_s"]
    # ~3.68 TB/s HBM2e vs ~0.29 TB/s DDR5
    in_hbm = [r for r in bw_rows if r["HBM"] is not None]
    assert all(r["HBM"] > 8 * r["DRAM"] for r in in_hbm)
