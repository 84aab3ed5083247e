"""Acceptance gate: one test per criterion, at the stated tolerances.

Every criterion prints a PASS/FAIL line with its measured statistic.  Four
criteria contain sub-checks whose stated tolerances sit below what the exact
laws allow at the stated sizes (lattice discreteness floors, O(1) centring
constants that vanish only like 1/sqrt(log n), a reference law that differs
from the chain's true stationary law by a fixed 0.18 in total variation, and
one all-of-50-replicas event of probability 0.078).  Those assertions are kept
exactly as stated and marked as expected failures, with the blocking analysis
in the xfail reason; see the acceptance table in README.md for the
numbers.  Everything else must be green.
"""

import hashlib
import inspect
import json
import math

import numpy as np
import pytest

from mvpp import stats, verify
from mvpp.randomness import derive_stream

ROOT_SEED = 1

# sha256 of `mvpp verify --suite all --seed 1`'s verify_all.json
VERIFY_ALL_SHA256 = "f9274956f12d1fc16c43129b07542bb2ee3be6bfaa3b886f64093ec86aeb3251"


@pytest.fixture(scope="module")
def suite_all():
    return verify.run_suite("all", root_seed=ROOT_SEED)


def _get(report, name):
    for check in report["checks"]:
        if check["test_name"] == name:
            return check
    raise KeyError(name)


def _announce(criterion, check):
    flag = "PASS" if check["pass"] else "FAIL"
    print(f"[criterion {criterion}] {flag} {check['test_name']}: "
          f"statistic={check['statistic']} threshold={check['threshold']}")
    return check


def test_criterion_01_rotation_bijection(suite_all):
    check = _announce(1, _get(suite_all, "rotation_bijection_depth_transport"))
    assert check["pass"], "rotation bijection / depth transport violated"


def test_criterion_02_coupling_equivalence(suite_all):
    exact = _announce(2, _get(suite_all, "coupling_exact_law_n3"))
    two = _announce(2, _get(suite_all, "coupling_two_sample_ks"))
    assert exact["statistic"] <= 1e-12
    assert two["pass"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated tolerance below the exact law's floor: the uniform-node depth "
        "mixture at n=1e5 has KS 0.129 against the standard normal (finite-n "
        "centring offset ~ (gamma-1)/sqrt(log n) plus unit-lattice spacing "
        "1/sqrt(log n) ~ 0.295); per-seed profile KS is ~0.13-0.25, so 18/20 "
        "seeds within 0.12 is unattainable at desk scale"
    ),
)
def test_criterion_03_profile_ks(suite_all):
    check = _announce(3, _get(suite_all, "rrt_profile_gaussian"))
    assert check["pass"]


def test_criterion_03_profile_median_monotone(suite_all):
    # the scale-improvement half of the criterion holds and is asserted
    check = _get(suite_all, "rrt_profile_gaussian")
    medians = check["statistic"]["median_ks"]
    print(f"[criterion 3] median KS across n: {[round(m, 4) for m in medians]}")
    assert medians[1] <= medians[0] and medians[2] <= medians[1]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated tolerance below the exact law's floor: the exact uniform-node "
        "depth law of the recursive tree at n=1e5 (computed by DP) has KS "
        "0.129 > 0.1 against N(0,1) under the stated (log n, sqrt(log n)) "
        "rescaling; pooling replicas converges to that floor"
    ),
)
def test_criterion_04_rrt_depth_clt(suite_all):
    check = _announce(4, _get(suite_all, "rrt_depth_clt"))
    assert check["pass"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated tolerance below the exact law's floor: the binary-search-tree "
        "depth centring constant (~2*gamma-4+o(1), i.e. rescaled mean offset "
        "-0.66 at n=1e5) forces KS ~ 0.31 > 0.1 under the stated "
        "(2 log n, sqrt(2 log n)) rescaling"
    ),
)
def test_criterion_04_bst_depth_clt(suite_all):
    check = _announce(4, _get(suite_all, "bst_depth_clt"))
    assert check["pass"]


def test_criterion_04_lca_pmf(suite_all):
    rrt = _announce(4, _get(suite_all, "rrt_lca_pmf_vs_oracle"))
    bst = _announce(4, _get(suite_all, "bst_lca_pmf_vs_oracle"))
    assert rrt["pass"] and bst["pass"]


def test_criterion_05_dcolour_limit(suite_all):
    check = _announce(5, _get(suite_all, "dcolour_perron_limit"))
    assert check["pass"]
    assert check["v1"][0] == pytest.approx(3 / 7, abs=1e-6)


def test_criterion_06_brw_normal(suite_all):
    check = _announce(6, _get(suite_all, "brw_normal_increment_ks"))
    assert check["pass"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "stated tolerance below the lattice floor: with +-1 increments the "
        "rescaled samples live on Z/sqrt(log n) (spacing 0.295 at n=1e5), so "
        "sup-distance to the continuous Gaussian is >= phi(0)*h/2 ~ 0.059 for "
        "any pair budget; measured ~0.06-0.08 > 0.05"
    ),
)
def test_criterion_06_brw_rademacher(suite_all):
    check = _announce(6, _get(suite_all, "brw_rademacher_ks"))
    assert check["pass"]


def test_criterion_06_pathwise_and_d2(suite_all):
    path = _announce(6, _get(suite_all, "brw_pathwise_monotone_ks"))
    d2 = _announce(6, _get(suite_all, "brw_d2_projection_ks"))
    assert path["pass"] and d2["pass"]


def test_criterion_07_martingale_machinery(suite_all):
    zn = _announce(7, _get(suite_all, "zn_identities"))
    tn = _announce(7, _get(suite_all, "tn_martingale_mean"))
    pbar = _announce(7, _get(suite_all, "pbar_recursion_vs_mc"))
    assert zn["pass"] and tn["pass"] and pbar["pass"]


def test_criterion_08_kdiscrete(suite_all):
    leaves = _announce(8, _get(suite_all, "kdiscrete_leaf_counts"))
    closed = _announce(8, _get(suite_all, "kary_subtree_closed_form"))
    depth = _announce(8, _get(suite_all, "kdiscrete_kappa3_depth"))
    assert leaves["pass"]
    assert closed["statistic"] <= 1e-10
    assert depth["pass"]


def test_criterion_09_forest_mass2(suite_all):
    check = _announce(9, _get(suite_all, "forest_mass2_uniform"))
    assert check["pass"]


@pytest.mark.xfail(
    strict=True,
    reason=(
        "all-replica threshold fails with probability 0.922: each tree's "
        "node count at n=1e4 is beta-binomial, a replica has a tree of at "
        "most 10 nodes (fraction <= 1e-3) with probability 0.0497, mostly "
        "the fractional one, and 1 - (1 - 0.0497)^50 = 0.922 (computed in "
        "test_criterion_09_forest_fractional_failure_probability); fails at "
        "the pinned suite seed"
    ),
)
def test_criterion_09_forest_fractional(suite_all):
    check = _announce(9, _get(suite_all, "forest_fractional_liminf"))
    assert check["pass"]


def _dirichlet_multinomial_logpmf(counts, alphas):
    """log P(counts) of the Polya urn's n = sum(counts) draws from initial
    weights alphas: the forest's tree sizes, node counts beyond the roots."""
    n, mass = sum(counts), sum(alphas)
    out = math.lgamma(n + 1) + math.lgamma(mass) - math.lgamma(n + mass)
    for x, a in zip(counts, alphas):
        out += math.lgamma(x + a) - math.lgamma(x + 1) - math.lgamma(a)
    return out


def test_criterion_09_forest_fractional_failure_probability():
    # check_forest_fractional's replica fails when a tree holds at most 10
    # nodes (at most 9 beyond its root) after n = 1e4 steps from weights
    # (1, 1, 0.5); by inclusion-exclusion over the trees (three cannot all be
    # small), with a marginal beta-binomial and a pair Dirichlet-multinomial
    weights, n, low, reps = (1.0, 1.0, 0.5), 10_000, 9, 50
    mass = sum(weights)
    one = sum(
        math.exp(_dirichlet_multinomial_logpmf((k, n - k), (a, mass - a))) for a in weights for k in range(low + 1)
    )
    two = sum(
        math.exp(_dirichlet_multinomial_logpmf((x, y, n - x - y), (weights[i], weights[j], mass - weights[i] - weights[j])))
        for i, j in ((0, 1), (0, 2), (1, 2))
        for x in range(low + 1)
        for y in range(low + 1)
    )
    p = one - two
    fail = 1 - (1 - p) ** reps
    assert round(p, 4) == 0.0497 and round(fail, 3) == 0.922
    reason = test_criterion_09_forest_fractional.pytestmark[0].kwargs["reason"]
    assert f"{p:.4f}" in reason and f"{fail:.3f}" in reason


def test_forest_fractional_tree_count_is_beta_binomial():
    # the urns behind criterion 9: the fractional tree's nodes beyond its root
    # after n steps follow BetaBinomial(n, 0.5, 2.0)
    weights, n, reps = [1.0, 1.0, 0.5], 200, 20_000
    count = verify._forest_sizes(weights, n, reps, derive_stream(36, 0))[:, 2] - 0.5
    observed = dict(zip(*np.unique(count.astype(int), return_counts=True)))
    pmf = {k: math.exp(_dirichlet_multinomial_logpmf((k, n - k), (0.5, 2.0))) for k in range(n + 1)}
    assert stats.chi_square_pvalue(observed, pmf) > 0.001


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated Poisson reference is not the discrete jump chain's "
        "stationary law: detailed balance gives pi(x) = (x+1)/(2e x!) at "
        "lambda = mu, and TV(pi, Poisson(1)) = 0.184, a constant; the urn "
        "matches the true stationary law to TV ~ 0.007 (reported in the same "
        "check as tv_vs_jump_chain_stationary)"
    ),
)
def test_criterion_10_mminf_poisson(suite_all):
    check = _announce(10, _get(suite_all, "mminf_poisson_tv"))
    assert check["pass"]


def test_criterion_10_mminf_true_stationary(suite_all):
    # the machinery is sound against the corrected reference
    check = _get(suite_all, "mminf_poisson_tv")
    tv = check["tv_vs_jump_chain_stationary"]
    print(f"[criterion 10] TV vs true jump-chain stationary law: {tv}")
    assert tv <= 0.05


def test_criterion_11_stable_tail(suite_all):
    check = _announce(11, _get(suite_all, "stable_hill_exponent"))
    assert check["pass"]


def test_criterion_12_determinism(suite_all):
    second = verify.run_suite("all", root_seed=ROOT_SEED)
    a = json.dumps(suite_all, indent=2, sort_keys=True)
    b = json.dumps(second, indent=2, sort_keys=True)
    flag = "PASS" if a == b else "FAIL"
    print(f"[criterion 12] {flag} byte-identical verify(all) reports")
    assert a.encode() == b.encode()


def test_verify_all_report_is_pinned(suite_all):
    text = json.dumps(suite_all, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == VERIFY_ALL_SHA256, (
        f"the seed-1 verify_all.json now hashes to {digest}: record each check's "
        "old and new statistic in CHANGES.md before moving this pin"
    )


# the first 16 hex digits of each check's sha256(json.dumps(check, indent=2,
# sort_keys=True)) at seed 1: when the pin above moves, this names the checks
# that moved
CHECK_DIGESTS = {
    "brw_d2_projection_ks": "ec0189eddc008197",
    "brw_normal_increment_ks": "fad2f8d601e98589",
    "brw_pathwise_monotone_ks": "c1b4d05c5ff1b614",
    "brw_rademacher_ks": "cbed66da54e13be1",
    "bst_depth_clt": "62bf0d4b89a4bb82",
    "bst_lca_pmf_vs_oracle": "652af7b5c334a6d6",
    "coupling_exact_law_n3": "02727901526705af",
    "coupling_two_sample_ks": "d32760388420f4d2",
    "dcolour_perron_limit": "e89db34447812af2",
    "forest_fractional_liminf": "fe1f0f7c4e75807a",
    "forest_mass2_uniform": "b46fcfd6268600eb",
    "kary_subtree_closed_form": "df5f80f27b346853",
    "kdiscrete_kappa3_depth": "0fa7b19f03d8ad8d",
    "kdiscrete_leaf_counts": "8a69f84a2ff61bbe",
    "mminf_poisson_tv": "1c76fe01391c47c0",
    "pbar_recursion_vs_mc": "c769c9502bd905e1",
    "rotation_bijection_depth_transport": "dd6603cf3b1edbe0",
    "rrt_depth_clt": "01a27867ac606859",
    "rrt_lca_pmf_vs_oracle": "7552dcb63423faba",
    "rrt_profile_gaussian": "903211d407e6ad72",
    "stable_hill_exponent": "dd9b5348d677b525",
    "tn_martingale_mean": "e6516c4b68aa89c0",
    "zn_identities": "522541ca20856af7",
}


def test_check_digests_at_seed_1(suite_all):
    got = {
        check["test_name"]: hashlib.sha256(json.dumps(check, indent=2, sort_keys=True).encode()).hexdigest()[:16]
        for check in suite_all["checks"]
    }
    moved = sorted(name for name in got.keys() | CHECK_DIGESTS.keys() if got.get(name) != CHECK_DIGESTS.get(name))
    assert not moved, f"checks that moved at seed 1: {moved}"


def test_tn_martingale_mean_fails_by_chance_at_about_one_percent(suite_all):
    # six 3-standard-error gates (real and imaginary parts at three n, each n
    # on its own stream) with no family-wise level.  Under a normal null a
    # gate fails with probability p = erfc(3/sqrt 2); the two parts at one n
    # share their replicas, so the check fails with probability between
    # 1-(1-p)^3 (each n fails at least as often as one gate) and 6p (union)
    entries = _get(suite_all, "tn_martingale_mean")["statistic"]
    assert len(entries) == 3 and all({"re_3se", "im_3se"} <= entry.keys() for entry in entries)
    p = math.erfc(3 / math.sqrt(2))
    low, high = 1 - (1 - p) ** 3, 6 * p
    assert round(p, 4) == 0.0027 and round(low, 4) == 0.0081 and round(high, 4) == 0.0162
    # seen over seeds 1-100: 1 fail with one raw word per +-1 step, 2 with
    # packed signs, 0 with node-by-node walks on 16-bit parents; no count is
    # far in a binomial tail at either end
    seeds = 100
    for fails in (1, 2, 0):
        for rate in (low, high):
            at_most = sum(math.comb(seeds, k) * rate**k * (1 - rate) ** (seeds - k) for k in range(fails + 1))
            at_least = 1 - at_most + math.comb(seeds, fails) * rate**fails * (1 - rate) ** (seeds - fails)
            assert min(at_most, at_least) > 0.05


def test_every_check_takes_only_the_root_seed():
    # budgets and gates are constants in each check's body, so a caller can
    # neither resize nor loosen a check
    for checks in verify.SUITES.values():
        for fn in checks:
            assert list(inspect.signature(fn).parameters) == ["root_seed"], fn.__name__
