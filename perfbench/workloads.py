"""The benchmark's workloads: a partition of `mvpp verify --suite all`.

Each of the checks in `mvpp.verify.SUITES` runs in exactly one workload,
so the three workloads' pass times add up to the time of the user's verdict
command.  Checks are grouped by the layer that does most of their work;
README.md in this directory records why each group was chosen.
"""

WORKLOADS = {
    # Few urns (at most 20) grown to n = 1e5: the O(n) per-step Python loop
    # of the `process` batch simulators over arrays of 16-20 entries, plus
    # the inline copy of that loop in `check_brw_d2_projections`.
    "verify-tall": (
        "check_rrt_profile",
        "check_rrt_depth_clt",
        "check_brw_normal",
        "check_brw_rademacher",
        "check_brw_pathwise_monotone",
        "check_brw_d2_projections",
        "check_stable_hill",
        "check_kappa3_depth",
    ),
    # The same batch layer the other way round: 2,000-10,000 replicas at
    # n <= 1000, so each step is a strided gather across a (reps, n+1) array
    # of up to 80 MB.  Memory-bound; it sets the benchmark's peak RSS.
    "verify-wide": (
        "check_coupling_two_sample",
        "check_tn_martingale_mean",
        "check_pbar_recursion",
        "check_forest_mass2",
        "check_forest_fractional",
    ),
    # The pure-Python reference paths: `trees` growth, one `RngStream` call
    # per draw, `mvpp_direct` with kernel `.sample`, and `oracle`
    # enumeration.  No batch simulator runs here.
    "verify-scalar": (
        "check_bst_depth_clt",
        "check_rrt_lca_pmf",
        "check_bst_lca_pmf",
        "check_dcolour_limit",
        "check_mminf_poisson",
        "check_rotation_bijection",
        "check_zn_identities",
        "check_coupling_exact",
        "check_kary_closed_form",
        "check_kdiscrete_leaf_counts",
    ),
}


def all_check_names() -> list:
    """Every check name of every workload, in workload order."""
    return [name for checks in WORKLOADS.values() for name in checks]


def metric_name(check_name: str) -> str:
    """Per-layer metric that holds one check's traced wall time."""
    return f"verify.check.{check_name.removeprefix('check_')}_s"
