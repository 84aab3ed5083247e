import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpp import stats
from mvpp.kernels import MMInfQueueKernel
from mvpp.randomness import derive_stream

GOLDEN = Path(__file__).parent.parent / "src" / "mvpp" / "data" / "normal_cdf_table.csv"


def test_normal_cdf_against_golden_table():
    with open(GOLDEN) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 40
    worst = max(abs(stats.normal_cdf(float(r["x"])) - float(r["phi"])) for r in rows)
    assert worst <= 1e-7


def test_ks_quantile_construction():
    n = 10_000
    xs = np.array([math.sqrt(2) * _erfinv(2 * k / (n + 1) - 1) for k in range(1, n + 1)])
    assert stats.ks_statistic(xs, stats.STD_NORMAL) <= 2 / (n + 1)


def _erfinv(y):
    # bisection; test helper only
    lo, hi = -6.0, 6.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if math.erf(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_ks_single_point_at_median():
    assert stats.ks_statistic([0.0], stats.STD_NORMAL) == pytest.approx(0.5)


def test_ks_normal_draws_95_of_100_seeds():
    good = 0
    for seed in range(100):
        s = derive_stream(1000 + seed, 0)
        if stats.ks_statistic(s.standard_normals(10_000), stats.STD_NORMAL) <= 0.02:
            good += 1
    assert good >= 95


def test_ks_statistic_weighted_ties():
    assert 0 < stats.ks_statistic([0.0, 0.0, 1.0], stats.STD_NORMAL, weights=[1.0, 1.0, 2.0]) <= 1


class _PointwiseLaw:
    """A normal law whose CDF calls the scalar normal_cdf once per point."""

    def __init__(self, law):
        self.law = law

    def cdf(self, xs):
        return np.array([stats.normal_cdf((x - self.law.mean) / math.sqrt(self.law.var)) for x in xs])


@pytest.mark.parametrize("law", [stats.STD_NORMAL, stats.Normal(1.3, 2.7), stats.Normal(-4, 1)])
def test_ks_normal_fast_path_equals_pointwise_path(law):
    # the array Normal.cdf is normal_cdf's arithmetic, point by point, bit for bit
    s = derive_stream(77, 0)
    x = 1.3 + 1.7 * s.standard_normals(20_000)
    tied = np.round(x, 1)  # about 200 distinct values
    far = np.array([-40.0, -9.0, 0.0, 9.0, 40.0])  # CDF saturates at 0 and 1
    for sample in (x, tied, far, np.array([2.5])):
        assert np.array_equal(law.cdf(sample), _PointwiseLaw(law).cdf(sample))
        assert stats.ks_statistic(sample, law) == stats.ks_statistic(sample, _PointwiseLaw(law))
    weights = s.uniforms(500) + 0.1
    fast = stats.ks_statistic(tied[:500], law, weights=weights)
    assert fast == stats.ks_statistic(tied[:500], _PointwiseLaw(law), weights=weights)


def test_ks_errors():
    with pytest.raises(ValueError):
        stats.ks_statistic([], stats.STD_NORMAL)
    with pytest.raises(ValueError):
        stats.ks_statistic([1.0], stats.STD_NORMAL, weights=[0.0])
    with pytest.raises(ValueError):
        stats.ks_statistic([1.0, 2.0], stats.STD_NORMAL, weights=[1.0])


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("law,name", [(stats.STD_NORMAL, "norm"), (stats.Uniform01(), "uniform")])
def test_ks_statistic_matches_scipy_kstest(law, name, ties):
    scipy_stats = pytest.importorskip("scipy.stats")
    s = derive_stream(78, 0)
    x = s.standard_normals(5000) if name == "norm" else s.uniforms(5000)
    if ties:
        x = np.round(x, 2)
    want = scipy_stats.kstest(x, name).statistic
    assert stats.ks_statistic(x, law) == pytest.approx(want, abs=1e-12)


def test_law_cdfs_take_arrays():
    # Normal with var > 0: test_ks_normal_fast_path_equals_pointwise_path
    x = np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    assert np.array_equal(stats.Normal(0.25, 0.0).cdf(x), [0, 0, 0, 1, 1, 1])
    assert np.array_equal(stats.PointMass(0.0).cdf(x), [0, 0, 1, 1, 1, 1])
    assert np.array_equal(stats.Uniform01().cdf(x), [0, 0, 0, 0.25, 1, 1])
    e = math.exp(-1.0)
    assert stats.Poisson(1.0).cdf(x) == pytest.approx([0, 0, e, e, 2 * e, 2.5 * e + e / 6])


@given(
    a=st.floats(0.1, 5.0),
    b=st.floats(-3.0, 3.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=20, deadline=None)
def test_ks_invariant_under_affine_maps(a, b, seed):
    s = derive_stream(seed, 0)
    x = s.standard_normals(500)
    base = stats.ks_statistic(x, stats.STD_NORMAL)
    moved = stats.ks_statistic(a * x + b, stats.Normal(b, a * a))
    assert moved == pytest.approx(base, abs=1e-12)


def test_two_sample_trivials():
    assert stats.ks_two_sample([1, 2, 3], [1, 2, 3]) == 0.0
    assert stats.ks_two_sample([0, 0], [1, 1]) == 1.0
    with pytest.raises(ValueError):
        stats.ks_two_sample([], [1])


def test_total_variation_trivials():
    assert stats.total_variation({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert stats.total_variation({0: 1.0}, {1: 1.0}) == 1.0


@given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), st.randoms())
@settings(max_examples=30, deadline=None)
def test_total_variation_symmetry_and_triangle(ws, rng):
    def pmf(shift):
        vals = [w + shift * rng.random() for w in ws]
        tot = sum(vals)
        return {i: v / tot for i, v in enumerate(vals)}

    a, b, c = pmf(0.0), pmf(0.5), pmf(1.0)
    assert stats.total_variation(a, b) == pytest.approx(stats.total_variation(b, a))
    assert stats.total_variation(a, c) <= stats.total_variation(a, b) + stats.total_variation(b, c) + 1e-12


def test_chi_square_fair_coin_98_of_100_seeds():
    crit = 6.635  # 1% upper quantile, 1 dof
    good = 0
    for seed in range(100):
        s = derive_stream(2000 + seed, 0)
        heads = int((s.uniforms(100_000) < 0.5).sum())
        stat, dof = stats.chi_square({0: heads, 1: 100_000 - heads}, {0: 0.5, 1: 0.5})
        assert dof == 1
        if stat < crit:
            good += 1
    assert good >= 98


def test_chi_square_pools_small_bins():
    counts = {0: 50, 1: 45, 2: 3, 3: 2}
    pmf = {0: 0.5, 1: 0.45, 2: 0.03, 3: 0.02}
    stat, dof = stats.chi_square(counts, pmf)
    assert dof <= 2  # tail bins pooled


def test_chi_square_sf_known_quantiles():
    assert stats.chi_square_sf(3.841, 1) == pytest.approx(0.05, abs=2e-3)
    assert stats.chi_square_sf(6.635, 1) == pytest.approx(0.01, abs=1e-3)
    assert stats.chi_square_sf(124.34, 99) == pytest.approx(0.043, abs=5e-3)


def test_poisson_pmf_values():
    law = stats.Poisson(1.0)
    e = math.exp(-1.0)
    assert law.pmf(0) == pytest.approx(e)
    assert law.pmf(1) == pytest.approx(e)
    assert law.pmf(2) == pytest.approx(e / 2)
    assert law.cdf(2) == pytest.approx(e * 2.5)


@pytest.mark.parametrize("lam,mu", [(2.0, 1.0), (1.0, 1.0), (0.5, 2.0)])
def test_mminf_jump_chain_law_is_stationary(lam, mu):
    pmf = stats.MMInfJumpChain(lam, mu).pmf_dict(80)
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-12)
    kern = MMInfQueueKernel(lam, mu)
    for x in range(80):
        # detailed balance of the jump chain: pi(x) p_up(x) = pi(x+1) (1 - p_up(x+1))
        assert pmf[x] * kern.p_up(x) == pytest.approx(pmf[x + 1] * (1.0 - kern.p_up(x + 1)), rel=1e-12, abs=0)


def test_hill_estimator_on_pareto():
    s = derive_stream(5, 2)
    alpha = 1.5
    draws = (1.0 - s.uniforms(200_000)) ** (-1.0 / alpha)  # exact Pareto(alpha)
    est = stats.hill_tail_exponent(draws, 5000)
    assert abs(est - alpha) < 0.1
