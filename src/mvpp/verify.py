"""Named verification suites behind `mvpp verify` and the acceptance tests.

Each check is a pure function of a root seed returning a JSON-ready dict
{test_name, statistic, threshold, pass, ...extras}.  Seeds are pinned by the
caller; per-check streams are derived from (root_seed, check id), so suites
are deterministic, order-independent and safe to run in parallel.  Reports
deliberately carry no wall-clock fields so that two runs with one seed are
byte-identical.
"""

from __future__ import annotations

import math

import numpy as np

from . import oracle, stats
from .kernels import (
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    NormalIncrement,
    RademacherIncrement,
    leading_eigenpair,
    plan_brw,
    plan_ergodic,
    plan_stable,
    walk_kernel_normal,
    walk_kernel_rademacher,
    walk_kernel_stable,
)
from .measures import AtomicMeasure, expected_f_n, pbar_recursion, z_n
from .process import (
    HILL_BAND,
    batch_bmc_walk_labels,
    batch_bst_walk_leaf_colours,
    batch_direct_walk_colours,
    batch_exact_colour_samples,
    batch_kary_shift_leaf_labels,
    batch_rrt_depths,
    batch_rrt_walk_labels,
    batch_walk_pairs,
    mvpp_kdiscrete,
    verify_main_theorem,
)
from .randomness import derive_stream
from .trees import (
    build_planar,
    lca,
    lca_depths,
    left_depth,
    parent_depths,
    planar_shapes,
    rotation,
    rotation_inverse,
    rotation_parents,
    rrt_parents,
)

M0_POINT = AtomicMeasure([(0, 1.0)])


def _result(name, statistic, threshold, passed, **extra):
    out = {
        "test_name": name,
        "statistic": statistic,
        "threshold": threshold,
        "pass": bool(passed),
    }
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# trees suite
# ---------------------------------------------------------------------------


def check_rotation_bijection(root_seed: int) -> dict:
    """Exhaustive rotation checks on all planar trees with <= 8 nodes:
    round trip, depth transport, and ancestor-free LCA transport."""
    violations = 0
    trees = 0
    for n in range(2, 9):
        for shape in planar_shapes(n):
            t = build_planar(shape)
            b, mp = rotation(t)
            back, _ = rotation_inverse(b)
            if back.shape_key() != t.shape_key():
                violations += 1
            for u in range(1, t.n_nodes):
                if t.depth[u] != left_depth(b, mp[u]) + 1:
                    violations += 1
            for u in range(1, t.n_nodes):
                for v in range(1, t.n_nodes):
                    a = lca(t, u, v)
                    if a == u or a == v:
                        continue  # transport identity needs non-nested pairs
                    if t.depth[a] != left_depth(b, lca(b, mp[u], mp[v])):
                        violations += 1
            trees += 1
    return _result("rotation_bijection_depth_transport", violations, 0, violations == 0, trees=trees)


def _gaussian_ks(values, t: float) -> float:
    """KS distance to N(0,1) of the values rescaled by (v - t)/sqrt(t),
    scored on their histogram (each distinct value weighted by its count)."""
    vals, cnts = np.unique(values, return_counts=True)
    return stats.ks_statistic((vals - t) / math.sqrt(t), stats.STD_NORMAL, weights=cnts)


def check_rrt_profile(root_seed: int) -> dict:
    """Rescaled-profile KS at nested sizes for `seeds` independent runs."""
    seeds, n_top = 20, 100_000
    s = derive_stream(root_seed, 301)
    dep = batch_rrt_depths(n_top, seeds, s)
    grid = [n_top // 100, n_top // 10, n_top]
    ks = {n: [_gaussian_ks(dep[i, : n + 1], math.log(n)) for i in range(seeds)] for n in grid}
    medians = [float(np.median(ks[n])) for n in grid]
    n_pass = sum(1 for v in ks[n_top] if v <= 0.12)
    monotone = medians[1] <= medians[0] and medians[2] <= medians[1]
    passed = n_pass >= 18 and monotone
    return _result(
        "rrt_profile_gaussian",
        {"seeds_within_0.12": n_pass, "median_ks": medians},
        {"seeds_within_0.12": 18, "median_non_increasing": True},
        passed,
        ks_at_top=[round(v, 4) for v in ks[n_top]],
    )


def _depth_clt(name: str, depths, t: float) -> dict:
    """KS of (depth - t)/sqrt(t) against N(0,1), gated at 0.1; t is the leading
    term of the depth's mean and variance (log n for the recursive tree,
    2 log n for the binary one)."""
    ks = _gaussian_ks(depths, t)
    return _result(name, round(ks, 4), 0.1, ks <= 0.1)


def check_rrt_depth_clt(root_seed: int) -> dict:
    n = 100_000
    s = derive_stream(root_seed, 302)
    dep = batch_rrt_depths(n, 10, s)
    pool = [dep[i, s.integers(0, n + 1, 1000)] for i in range(10)]
    return _depth_clt("rrt_depth_clt", np.concatenate(pool), math.log(n))


def check_bst_depth_clt(root_seed: int) -> dict:
    n = 100_000
    pool = []
    for i in range(10):  # one tree at a time bounds the peak memory
        s = derive_stream(root_seed, 310 + i)
        dep = parent_depths(rotation_parents(rrt_parents(n, 1, s)))[0]
        pool.append(dep[s.integers(1, n + 1, 1000)] - 1)  # less the virtual root
    return _depth_clt("bst_depth_clt", np.concatenate(pool), 2 * math.log(n))


def _tv_threshold(pmf: dict, replicas: int) -> float:
    return 3 * 0.5 * sum(math.sqrt(p * (1 - p) / replicas) for p in pmf.values())


def _lca_pmf(name: str, ref: dict, n: int, par, lo: int, s) -> dict:
    """Simulated LCA-depth pmf of two uniform nodes among columns lo.. of each
    parent array in `par`, against the exhaustive small-n law `ref`; lo = 1
    skips a rotation image's virtual root, which adds 1 to every depth."""
    reps, n1 = par.shape
    u = s.integers(lo, n1, reps)
    v = s.integers(lo, n1, reps)
    d, cnt = np.unique(lca_depths(par, parent_depths(par), u, v) - lo, return_counts=True)
    tv = stats.total_variation(stats.counts_to_pmf(dict(zip(d.tolist(), cnt.tolist()))), ref)
    thr = _tv_threshold(ref, reps)
    return _result(name, round(tv, 5), round(thr, 5), tv <= thr, n=n)


def check_rrt_lca_pmf(root_seed: int) -> dict:
    n, replicas = 6, 100_000
    ref = oracle.exact_rrt_joint_depths(n).marginal(lambda o: o[2]).probs
    s = derive_stream(root_seed, 303)
    return _lca_pmf("rrt_lca_pmf_vs_oracle", ref, n, rrt_parents(n, replicas, s), 0, s)


def check_bst_lca_pmf(root_seed: int) -> dict:
    """The n-node free-slot binary tree is the rotation image of the recursive
    tree with n+1 nodes."""
    n, replicas = 6, 100_000
    ref = oracle.exact_bst_joint_depths(n)[0].marginal(lambda o: o[2]).probs
    s = derive_stream(root_seed, 304)
    return _lca_pmf("bst_lca_pmf_vs_oracle", ref, n, rotation_parents(rrt_parents(n, replicas, s)), 1, s)


# ---------------------------------------------------------------------------
# coupling suite
# ---------------------------------------------------------------------------


def check_coupling_exact(root_seed: int) -> dict:
    """Exact law equality of the three constructions at n <= 3."""
    m0 = AtomicMeasure([(0, 0.5), (1, 0.5)])
    kern = DColourKernel([[0.5, 0.5], [0.25, 0.75]])
    worst = 0.0
    for n in (1, 2, 3):
        laws = oracle.exact_coupling_law(m0, kern, n)
        worst = max(
            worst,
            laws["direct"].max_abs_diff(laws["rrt"]),
            laws["direct"].max_abs_diff(laws["bst"]),
        )
    return _result("coupling_exact_law_n3", worst, 1e-12, worst <= 1e-12)


def check_coupling_two_sample(root_seed: int) -> dict:
    """Exact colour samples from direct / recursive-tree / binary-tree urns
    must be indistinguishable (two-sample KS below the 1% critical value)."""
    n, reps = 1000, 10_000
    inc = RademacherIncrement()
    s = derive_stream(root_seed, 401)

    lab = batch_rrt_walk_labels(n, reps, inc, s)
    flags = np.zeros(lab.shape, dtype=bool)
    flags[:, 0] = True
    rrt = batch_exact_colour_samples(lab, flags, inc, s)

    col = batch_direct_walk_colours(n, reps, inc, s)
    col2 = np.concatenate([np.zeros((reps, 1)), col], axis=1)
    flags2 = np.zeros(col2.shape, dtype=bool)
    flags2[:, 0] = True
    direct = batch_exact_colour_samples(col2, flags2, inc, s)

    bcol, bflags = batch_bst_walk_leaf_colours(n, reps, inc, s)
    bst = batch_exact_colour_samples(bcol, bflags, inc, s)

    crit = stats.ks_two_sample_critical(0.01, reps, reps)
    pairs = {
        "direct_vs_rrt": stats.ks_two_sample(direct, rrt),
        "rrt_vs_bst": stats.ks_two_sample(rrt, bst),
        "direct_vs_bst": stats.ks_two_sample(direct, bst),
    }
    worst = max(pairs.values())
    return _result(
        "coupling_two_sample_ks",
        {k: round(v, 5) for k, v in pairs.items()},
        round(crit, 5),
        worst <= crit,
        n=n,
        replicas=reps,
    )


# ---------------------------------------------------------------------------
# martingale suite
# ---------------------------------------------------------------------------


def check_zn_identities(root_seed: int) -> dict:
    """Z_n(1) = 1 and Z_n(2) = n+1 (relative 1e-10) up to n = 1e6, plus the
    n^(x-1)/Gamma(x) asymptotic ratio at x = 1.5, n = 1e5."""
    worst = 0.0
    for n in (1, 10, 100, 1000, 10_000, 100_000, 1_000_000):
        worst = max(worst, abs(z_n(n, 1.0) - 1.0))
        worst = max(worst, abs(z_n(n, 2.0) - (n + 1)) / (n + 1))
    ratio = abs(z_n(100_000, 1.5)) * math.gamma(1.5) / math.sqrt(100_000)
    ratio_err = abs(ratio - 1.0)
    passed = worst <= 1e-10 and ratio_err <= 1e-3
    return _result(
        "zn_identities",
        {"identity_err": worst, "asymptotic_ratio_err": ratio_err},
        {"identity_err": 1e-10, "asymptotic_ratio_err": 1e-3},
        passed,
    )


def _bmc_rows(n: int, replicas: int, chunk: int, s, row_stat) -> np.ndarray:
    """row_stat of the labels of `replicas` Rademacher branching walks,
    grown `chunk` at a time to bound memory."""
    out = []
    for lo in range(0, replicas, chunk):
        out.append(row_stat(batch_bmc_walk_labels(n, min(chunk, replicas - lo), RademacherIncrement(), s)))
    return np.concatenate(out)


def check_tn_martingale_mean(root_seed: int) -> dict:
    """Monte Carlo mean of T_n(theta) within 3 standard errors of 1."""
    replicas = 10_000
    phi = lambda t: complex(np.cos(t))
    entries = []
    ok = True
    for i, n in enumerate((10, 100, 1000)):
        theta = 0.3 / math.sqrt(math.log(n))
        rows = lambda lab: np.exp(1j * theta * lab).mean(axis=1)
        f = _bmc_rows(n, replicas, 2000, derive_stream(root_seed, 501 + i), rows)
        t_vals = f / expected_f_n(n, theta, 0.0, phi)
        se_r = float(t_vals.real.std(ddof=1)) / math.sqrt(replicas)
        se_i = float(t_vals.imag.std(ddof=1)) / math.sqrt(replicas)
        dev_r = abs(float(t_vals.real.mean()) - 1.0)
        dev_i = abs(float(t_vals.imag.mean()))
        good = dev_r <= 3 * se_r and dev_i <= 3 * se_i
        ok = ok and good
        entries.append({"n": n, "re_dev": dev_r, "re_3se": 3 * se_r, "im_dev": dev_i, "im_3se": 3 * se_i})
    return _result("tn_martingale_mean", entries, "3 standard errors", ok, replicas=replicas)


def check_pbar_recursion(root_seed: int) -> dict:
    """Second-moment recursion against Monte Carlo E[fbar(z1) fbar(z2)]."""
    n, replicas = 100, 100_000
    z1, z2 = 0.2j, -0.2j
    pb = pbar_recursion(n, z1, z2, lambda z: np.cos(z)).real
    vals = _bmc_rows(
        n, replicas, 10_000, derive_stream(root_seed, 510),
        lambda lab: (np.exp(1j * z1 * lab).sum(axis=1) * np.exp(1j * z2 * lab).sum(axis=1)).real,
    )
    se = float(vals.std(ddof=1)) / math.sqrt(replicas)
    dev = abs(pb - float(vals.mean()))
    return _result(
        "pbar_recursion_vs_mc", {"dev": dev, "3se": 3 * se}, "3 standard errors", dev <= 3 * se, n=n
    )


# ---------------------------------------------------------------------------
# mvpp suite
# ---------------------------------------------------------------------------


def check_dcolour_limit(root_seed: int) -> dict:
    """Single-run composition against the Perron eigenpair."""
    n = 100_000
    kern = DColourKernel([[0.6, 0.4], [0.3, 0.7]])
    s = derive_stream(root_seed, 601)
    entry = verify_main_theorem(kern, plan_ergodic(None), M0_POINT, [n], 1, s)["results"][0]
    v1 = leading_eigenpair(kern.rows)[1]
    return _result(
        "dcolour_perron_limit", round(entry["l1"], 5), 0.05, entry["pass"], v1=[round(v, 6) for v in v1]
    )


def check_brw_normal(root_seed: int) -> dict:
    n, pairs = 100_000, 10_000
    s = derive_stream(root_seed, 602)
    entry = verify_main_theorem(walk_kernel_normal(), plan_brw(), M0_POINT, [n], pairs, s)["results"][0]
    return _result("brw_normal_increment_ks", round(entry["ks"], 4), 0.05, entry["pass"], n=n, pairs=pairs)


def check_brw_rademacher(root_seed: int) -> dict:
    """Fair-coin increments; the rescaled samples live on a unit lattice, so
    the sup distance to the Gaussian is floored near phi(0)/(2 sqrt(log n))
    (~0.059 at n = 1e5) regardless of the pair budget."""
    n, pairs = 100_000, 10_000
    s = derive_stream(root_seed, 603)
    entry = verify_main_theorem(walk_kernel_rademacher(), plan_brw(), M0_POINT, [n], pairs, s)["results"][0]
    floor = stats.normal_pdf(0.0) / (2 * math.sqrt(math.log(n)))
    return _result(
        "brw_rademacher_ks",
        round(entry["ks"], 4),
        0.05,
        entry["pass"],
        n=n,
        pairs=pairs,
        lattice_ks_floor=round(floor, 4),
    )


def check_brw_pathwise_monotone(root_seed: int) -> dict:
    """Single-path proxy for almost-sure convergence: the KS of the rescaled
    label measure is non-increasing in at least 2 of 3 comparisons across
    nested n, for at least 18 of 20 paths."""
    seeds = 20
    s = derive_stream(root_seed, 604)
    lab = batch_rrt_walk_labels(100_000, seeds, NormalIncrement(0.0, 1.0), s, m0=M0_POINT)
    good = 0
    for i in range(seeds):
        ks = []
        for n in (1000, 10_000, 100_000):
            ks.append(stats.ks_statistic(lab[i, : n + 1] / math.sqrt(math.log(n)), stats.STD_NORMAL))
        comps = [ks[1] <= ks[0], ks[2] <= ks[1], ks[2] <= ks[0]]
        if sum(comps) >= 2:
            good += 1
    return _result("brw_pathwise_monotone_ks", good, 18, good >= 18, seeds=seeds)


class _ComplexNormalIncrement:
    """Standard 2-d normal increment packed into a complex number."""

    def draw_many(self, s, size):
        out = np.empty(size, dtype=complex)
        out.real = s.standard_normals(size)  # the same draws as one call of 2 * size
        out.imag = s.standard_normals(size)
        return out


def check_brw_d2_projections(root_seed: int) -> dict:
    """Two fixed 1-d projections of the planar walk urn, same bounds."""
    n, pairs = 100_000, 10_000
    s = derive_stream(root_seed, 605)
    inc = _ComplexNormalIncrement()
    pool = batch_walk_pairs(n, 16, pairs, inc, s, dtype=complex) / math.sqrt(math.log(n))
    out = {}
    ok = True
    for name, u in (("e1", (1.0, 0.0)), ("diag", (1 / math.sqrt(2), 1 / math.sqrt(2)))):
        proj = pool.real * u[0] + pool.imag * u[1]
        ks = stats.ks_statistic(proj, stats.STD_NORMAL)  # u' I u = 1 for unit u
        out[name] = round(ks, 4)
        ok = ok and ks <= 0.05
    return _result("brw_d2_projection_ks", out, 0.05, ok, n=n)


def _forest_sizes(weights, n: int, reps: int, s) -> np.ndarray:
    """(reps, len(weights)) tree sizes (root weight plus one per node) of
    `reps` forest urns after n steps from root weights `weights`: each step
    adds a node to the tree whose slot of the cumulated sizes a uniform on
    [0, total size) falls in."""
    w = np.tile(np.asarray(weights, dtype=float), (reps, 1))
    rows, mass = np.arange(reps), float(sum(weights))
    for k in range(n):
        u = s.uniforms(reps) * (mass + k)
        tree = (u[:, None] >= np.cumsum(w[:, :-1], axis=1)).sum(axis=1)
        w[rows, tree] += 1
    return w


def check_forest_mass2(root_seed: int) -> dict:
    """Mass-2 forest: the leading tree-size fraction is asymptotically
    uniform (flat Dirichlet marginal)."""
    n, reps = 1000, 2000
    sizes = _forest_sizes([1.0, 1.0], n, reps, derive_stream(root_seed, 606))
    ks = stats.ks_statistic(sizes[:, 0] / n, stats.Uniform01())
    return _result("forest_mass2_uniform", round(ks, 4), 0.05, ks <= 0.05, n=n, replicas=reps)


def check_forest_fractional(root_seed: int) -> dict:
    """Mass-2.5 forest: every tree keeps a positive size fraction."""
    n, reps = 10_000, 50
    w = _forest_sizes([1.0, 1.0, 0.5], n, reps, derive_stream(root_seed, 607))
    nodes = np.column_stack([w[:, 0], w[:, 1], w[:, 2] + 0.5])
    min_frac = float((nodes.min(axis=1) / n).min())
    return _result("forest_fractional_liminf", round(min_frac, 6), 0.001, min_frac > 0.001, replicas=reps, n=n)


def check_mminf_poisson(root_seed: int) -> dict:
    """Queue example: urn pmf against Poisson(1) as stated; the total
    variation of the same urn to the jump chain's true stationary law
    (x+1)/(2e x!) is reported alongside."""
    n = 100_000
    s = derive_stream(root_seed, 608)
    kern = MMInfQueueKernel(1.0, 1.0)
    out = verify_main_theorem(kern, plan_ergodic(stats.Poisson(1.0)), M0_POINT, [n], 1, s)
    entry, urn = out["results"][0], out["measures"][0]
    pmf = {int(c): w / urn.total_mass for c, w in urn.atoms()}
    stationary = stats.MMInfJumpChain(kern.lam, kern.mu).pmf_dict(max(pmf) + 10)
    tv_stationary = stats.total_variation(pmf, stationary)
    return _result(
        "mminf_poisson_tv",
        round(entry["tv"], 4),
        0.05,
        entry["pass"],
        n=n,
        tv_vs_jump_chain_stationary=round(tv_stationary, 4),
    )


def check_stable_hill(root_seed: int) -> dict:
    """Heavy-tail sanity only: Hill exponent of the rescaled samples within
    alpha +- HILL_BAND, plus quantile-quantile data against simulated stable
    draws for visual inspection (not asserted)."""
    n, pairs, alpha = 100_000, 10_000, 1.5
    s = derive_stream(root_seed, 609)
    out = verify_main_theorem(walk_kernel_stable(alpha), plan_stable(alpha), M0_POINT, [n], pairs, s)
    entry, pool = out["results"][0], out["samples"][0]
    ref = np.sort(s.stables(alpha, len(pool)))
    emp = np.sort(pool)
    qs = np.linspace(0.05, 0.95, 19)
    qq = [
        [round(float(q), 3), round(float(np.quantile(emp, q)), 4), round(float(np.quantile(ref, q)), 4)]
        for q in qs
    ]
    return _result(
        "stable_hill_exponent", round(entry["hill"], 4), [alpha - HILL_BAND, alpha + HILL_BAND], entry["pass"],
        n=n, qq_prob_empirical_reference=qq,
    )


# ---------------------------------------------------------------------------
# kdiscrete suite
# ---------------------------------------------------------------------------


def check_kdiscrete_leaf_counts(root_seed: int) -> dict:
    ok = True
    seen = []
    s = derive_stream(root_seed, 701)
    for kappa in (2, 3, 5):
        kern = KDiscreteKernel.from_offsets((1,) * kappa)
        for n in (0, 1, 2, 7):
            rep = mvpp_kdiscrete(AtomicMeasure([(0, 1.0 / kappa)]), kern, n, s)
            leaves = len(rep.tree.leaf_list)
            ok = ok and leaves == 1 + n * (kappa - 1)
            seen.append([kappa, n, leaves])
    return _result("kdiscrete_leaf_counts", seen, "1+n(kappa-1) exactly", ok)


def check_kary_closed_form(root_seed: int) -> dict:
    worst = 0.0
    for n, kappa in ((4, 2), (3, 3)):
        diff = oracle.exact_kary_subtree_law(n, kappa).max_abs_diff(oracle.closed_form_kary(n, kappa))
        worst = max(worst, diff)
    k2 = oracle.kary_tree_count(2, 2)
    passed = worst <= 1e-10 and k2 == 2
    return _result("kary_subtree_closed_form", worst, 1e-10, passed, tree_count_2_2=k2)


def check_kappa3_depth(root_seed: int) -> dict:
    """Shift kernel at kappa = 3: mean label / log n near beta = 1.5, and the
    rescaled leaf labels near the standard Gaussian.  One run fluctuates by
    about 0.05 in the mean ratio (the root's splits persist), so four
    independent runs are pooled."""
    n = 100_000
    s = derive_stream(root_seed, 702)
    lab = batch_kary_shift_leaf_labels(n, 4, 3, s)
    beta = 1.5
    mean_ratio = float(lab.mean()) / math.log(n)
    ks = _gaussian_ks(lab, beta * math.log(n))
    ok = abs(mean_ratio - beta) <= 0.1 and ks <= 0.12
    return _result(
        "kdiscrete_kappa3_depth",
        {"mean_depth_over_log_n": round(mean_ratio, 4), "ks": round(ks, 4)},
        {"mean_depth_over_log_n": [1.4, 1.6], "ks": 0.12},
        ok,
        n=n,
    )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "trees": [
        check_rotation_bijection,
        check_rrt_profile,
        check_rrt_depth_clt,
        check_bst_depth_clt,
        check_rrt_lca_pmf,
        check_bst_lca_pmf,
    ],
    "coupling": [check_coupling_exact, check_coupling_two_sample],
    "martingale": [check_zn_identities, check_tn_martingale_mean, check_pbar_recursion],
    "mvpp": [
        check_dcolour_limit,
        check_brw_normal,
        check_brw_rademacher,
        check_brw_pathwise_monotone,
        check_brw_d2_projections,
        check_forest_mass2,
        check_forest_fractional,
        check_mminf_poisson,
        check_stable_hill,
    ],
    "kdiscrete": [check_kdiscrete_leaf_counts, check_kary_closed_form, check_kappa3_depth],
}


def suite_names() -> list:
    return sorted(SUITES) + ["all"]


def run_suite(name: str, root_seed: int = 1) -> dict:
    """Run one named suite (or "all"); deterministic for a fixed seed."""
    if name == "all":
        checks = [fn for key in sorted(SUITES) for fn in SUITES[key]]
    elif name in SUITES:
        checks = list(SUITES[name])
    else:
        raise ValueError(f"unknown suite {name!r}; choose from {suite_names()}")
    results = [fn(root_seed) for fn in checks]
    results.sort(key=lambda r: r["test_name"])
    return {
        "suite": name,
        "root_seed": int(root_seed),
        "checks": results,
        "all_pass": all(r["pass"] for r in results),
    }
