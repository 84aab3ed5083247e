"""Acceptance gate: one test per criterion, at the stated tolerances.

Every criterion prints a PASS/FAIL line with its measured statistic.  Four
criteria contain sub-checks whose stated tolerances sit below what the exact
laws allow at the stated sizes (lattice discreteness floors, O(1) centring
constants that vanish only like 1/sqrt(log n), a reference law that differs
from the chain's true stationary law by a fixed 0.18 in total variation, and
one all-of-50-replicas event of probability ~0.1).  Those assertions are kept
exactly as stated and marked as expected failures, with the blocking analysis
in the xfail reason; see the acceptance table in README.md for the
numbers.  Everything else must be green.
"""

import hashlib
import inspect
import json

import pytest

from mvpp import verify

ROOT_SEED = 1

# sha256 of `mvpp verify --suite all --seed 1`'s verify_all.json
VERIFY_ALL_SHA256 = "7068a278f498e08117acd66e635e51452cdf8ccfcaad2239fc32486b757e07d1"


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
        "all-replica threshold is a ~0.1-probability event: the fractional "
        "root fires for the first time after n steps with probability "
        "~sqrt(2.5/n) (~1.6% at n=1e4), and P(any of 50 replicas ends below "
        "fraction 1e-3) ~ 0.9; fails at the pinned suite seed"
    ),
)
def test_criterion_09_forest_fractional(suite_all):
    check = _announce(9, _get(suite_all, "forest_fractional_liminf"))
    assert check["pass"]


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


def test_every_check_takes_only_the_root_seed():
    # budgets and gates are constants in each check's body, so a caller can
    # neither resize nor loosen a check
    for checks in verify.SUITES.values():
        for fn in checks:
            assert list(inspect.signature(fn).parameters) == ["root_seed"], fn.__name__
