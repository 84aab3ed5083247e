import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpp import stats
from mvpp.kernels import MMInfQueueKernel
from mvpp.randomness import derive_stream

GOLDEN = Path(__file__).parent / "data" / "normal_cdf_table.csv"


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


class _CountingLaw:
    """A law that counts the points its CDF is asked for."""

    def __init__(self, law):
        self.law, self.points = law, 0

    def cdf(self, xs):
        self.points += np.size(xs)
        return self.law.cdf(xs)


def _ks_all_points(sample, law, weights=None):
    # reference: both one-sided gaps at every distinct point, one law.cdf call
    vals = np.asarray(sample, dtype=float)
    wts = np.ones_like(vals) if weights is None else np.asarray(weights, dtype=float)
    total = wts.sum()
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    uniq, idx = np.unique(vals, return_index=True)
    cum = np.cumsum(wts) / total
    upper = cum[np.append(idx[1:] - 1, len(vals) - 1)]
    lower = np.concatenate(([0.0], upper[:-1]))
    ref = np.asarray(law.cdf(uniq), dtype=float)
    return float(np.max(np.maximum(np.abs(ref - lower), np.abs(upper - ref))))


@pytest.mark.parametrize("law", [stats.STD_NORMAL, stats.Normal(1.3, 2.7), stats.Normal(-4, 1)])
def test_ks_normal_fast_path_equals_pointwise_path(law):
    # the array Normal.cdf is normal_cdf's arithmetic, point by point, bit for bit
    s = derive_stream(77, 0)
    x = 1.3 + 1.7 * s.standard_normals(100_000)
    tied = np.round(x[:20_000], 1)  # about 200 distinct values
    far = np.array([-40.0, -9.0, 0.0, 9.0, 40.0])  # CDF saturates at 0 and 1
    sized = [x[:size] for size in (1, 2, 64, 65)]
    for sample in (x, tied, far, np.array([2.5]), *sized):
        assert np.array_equal(law.cdf(sample), _PointwiseLaw(law).cdf(sample))
        ks = stats.ks_statistic(sample, law)
        assert ks == stats.ks_statistic(sample, _PointwiseLaw(law)) == _ks_all_points(sample, law)
    weights = s.uniforms(500) + 0.1
    fast = stats.ks_statistic(tied[:500], law, weights=weights)
    assert fast == stats.ks_statistic(tied[:500], _PointwiseLaw(law), weights=weights)
    assert fast == _ks_all_points(tied[:500], law, weights=weights)
    # the block bounds spare law.cdf most of a large sample
    counted = _CountingLaw(law)
    stats.ks_statistic(x, counted)
    assert counted.points < x.size / 2


@pytest.mark.parametrize(
    "law,draw",
    [
        (stats.Normal(0.25, 0.0), lambda s, n: np.round(s.standard_normals(n), 1)),
        (stats.Uniform01(), lambda s, n: 1.2 * s.uniforms(n) - 0.1),
        (stats.Uniform01(), lambda s, n: np.round(s.uniforms(n), 2)),
        (stats.PointMass(0.5), lambda s, n: np.round(s.uniforms(n), 1)),
        (stats.Poisson(3.0), lambda s, n: np.floor(6 * s.uniforms(n))),
        (stats.Poisson(40.0), lambda s, n: np.round(40 + 6.3 * s.standard_normals(n))),
    ],
    ids=["normal-var0", "uniform", "uniform-ties", "point-mass", "poisson", "poisson-wide"],
)
@pytest.mark.parametrize("n", [1, 2, 64, 65, 5000])
def test_ks_equals_the_all_points_reference(law, draw, n):
    s = derive_stream(79, n)
    x = draw(s, n)
    weights = s.uniforms(n) + 0.05
    assert stats.ks_statistic(x, law) == _ks_all_points(x, law)
    assert stats.ks_statistic(x, law, weights=weights) == _ks_all_points(x, law, weights=weights)


def test_ks_finds_a_sup_inside_a_block():
    # uniform quantiles, all gaps 0.5/n, except one point strictly inside a
    # block pulled left so that its upper gap 0.8/n is the unique sup
    n = 1000
    x = (np.arange(n) + 0.5) / n
    x[stats._KS_BLOCK + stats._KS_BLOCK // 2] -= 0.3 / n
    assert stats.ks_statistic(x, stats.Uniform01()) == _ks_all_points(x, stats.Uniform01())
    assert stats.ks_statistic(x, stats.Uniform01()) == pytest.approx(0.8 / n, rel=1e-9)


def _ks_statistic_arrays(sample, law, weights=None):
    # reference: ks_statistic with the whole cum, upper and lower arrays
    # built, for unweighted samples too
    vals = np.asarray(sample, dtype=float)
    if vals.size == 0:
        raise ValueError("empty sample")
    if np.isnan(vals).any():
        raise ValueError("sample holds NaN")
    n = vals.size
    if weights is None:
        vals, cum = np.sort(vals), np.arange(1, n + 1) / n
    else:
        wts = np.asarray(weights, dtype=float)
        if wts.shape != vals.shape or not (wts > 0).all():
            raise ValueError("weights must be positive, one per sample point")
        total = wts.sum()
        order = np.argsort(vals, kind="stable")
        vals, cum = vals[order], np.cumsum(wts[order]) / total
    first = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    upper = cum[np.append(first[1:] - 1, n - 1)]
    lower = np.concatenate(([0.0], upper[:-1]))
    vals = vals[first]

    def gaps(idx):
        ref = np.asarray(law.cdf(vals[idx]), dtype=float)
        return ref, np.maximum(ref - lower[idx], upper[idx] - ref)

    ends = np.append(np.arange(0, vals.size - 1, stats._KS_BLOCK), vals.size - 1)
    ref, end_gaps = gaps(ends)
    best = end_gaps.max()
    bound = np.maximum(ref[1:] - lower[ends[:-1]], upper[ends[1:]] - ref[:-1])
    hot = np.repeat(bound >= best - stats._KS_SLACK, stats._KS_BLOCK)[: vals.size - 1]
    hot[:: stats._KS_BLOCK] = False
    inner = np.flatnonzero(hot)
    if inner.size:
        best = max(best, gaps(inner)[1].max())
    return float(best)


@given(
    st.integers(1, 3000),
    st.sampled_from([None, 0, 1, 2]),
    st.booleans(),
    st.sampled_from([stats.STD_NORMAL, stats.Uniform01(), stats.Poisson(3.0)]),
    st.integers(0, 2**32),
)
@settings(max_examples=150, deadline=None)
def test_ks_statistic_equals_the_array_form(n, decimals, weighted, law, seed):
    # sizes across block edges, with ties (rounded draws) or none, weighted or not
    s = derive_stream(80, seed)
    x = 3.0 * s.uniforms(n) - 0.5 if law is not stats.STD_NORMAL else s.standard_normals(n)
    if decimals is not None:
        x = np.round(x, decimals)
    weights = s.uniforms(n) + 0.01 if weighted else None
    assert stats.ks_statistic(x, law, weights=weights) == _ks_statistic_arrays(x, law, weights=weights)


def test_ks_errors():
    with pytest.raises(ValueError):
        stats.ks_statistic([], stats.STD_NORMAL)
    with pytest.raises(ValueError):
        stats.ks_statistic([1.0], stats.STD_NORMAL, weights=[0.0])
    with pytest.raises(ValueError):
        stats.ks_statistic([1.0, 2.0], stats.STD_NORMAL, weights=[1.0])
    with pytest.raises(ValueError):
        stats.ks_statistic([1.0, 2.0], stats.STD_NORMAL, weights=[1.0, math.nan])
    with pytest.raises(ValueError, match="NaN"):
        stats.ks_statistic([0.0, math.nan, 1.0], stats.STD_NORMAL)
    # infinities stay allowed: the CDF is 0 or 1 there
    assert stats.ks_statistic([-math.inf, math.inf], stats.STD_NORMAL) == 0.5


@pytest.mark.parametrize("bad", [np.zeros((2, 3)), 0.5], ids=["2-d", "0-d"])
@pytest.mark.parametrize(
    "call,name",
    [
        (lambda x: stats.ks_statistic(x, stats.STD_NORMAL), "sample"),
        (lambda x: stats.ks_two_sample(x, [1.0, 2.0]), "sample a"),
        (lambda x: stats.ks_two_sample([1.0, 2.0], x), "sample b"),
        (lambda x: stats.hill_tail_exponent(x, 1), "samples"),
    ],
    ids=["ks_statistic", "ks_two_sample_a", "ks_two_sample_b", "hill_tail_exponent"],
)
def test_samples_that_are_not_1d_raise_a_value_error_naming_them(call, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be 1-d, got shape {re.escape(str(np.shape(bad)))}$"):
        call(bad)


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("law,name", [(stats.STD_NORMAL, "norm"), (stats.Uniform01(), "uniform")])
def test_ks_statistic_matches_scipy_kstest(law, name, ties):
    scipy_stats = pytest.importorskip("scipy.stats")
    for n in (1, 2, 64, 65, 5000):
        s = derive_stream(78, 0)
        x = s.standard_normals(n) if name == "norm" else s.uniforms(n)
        if ties:
            x = np.round(x, 2)
        want = scipy_stats.kstest(x, name).statistic
        assert stats.ks_statistic(x, law) == pytest.approx(want, abs=1e-12)
        assert stats.ks_statistic(x, law) == _ks_all_points(x, law)


def test_law_cdfs_take_arrays():
    # Normal with var > 0: test_ks_normal_fast_path_equals_pointwise_path
    x = np.array([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
    assert np.array_equal(stats.Normal(0.25, 0.0).cdf(x), [0, 0, 0, 1, 1, 1])
    assert np.array_equal(stats.PointMass(0.0).cdf(x), [0, 0, 1, 1, 1, 1])
    assert np.array_equal(stats.Uniform01().cdf(x), [0, 0, 0, 0.25, 1, 1])
    e = math.exp(-1.0)
    assert stats.Poisson(1.0).cdf(x) == pytest.approx([0, 0, e, e, 2 * e, 2.5 * e + e / 6])


def test_law_cdfs_reach_zero_and_one_at_the_infinities():
    ends = np.array([-math.inf, math.inf])
    for law in (stats.STD_NORMAL, stats.Normal(1.0, 0.0), stats.PointMass(0.0), stats.Uniform01(), stats.Poisson(2.0)):
        assert np.array_equal(law.cdf(ends), [0.0, 1.0])
    # at +inf the law's CDF is 1 and the empirical CDF steps up from 1/2
    assert stats.ks_statistic([1.0, math.inf], stats.Poisson(2.0)) == 0.5


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


@pytest.mark.parametrize("a, b", [([math.nan, 1.0], [1.0, 2.0]), ([1.0, 2.0], [0.5, math.nan])])
def test_two_sample_rejects_a_nan_in_either_sample(a, b):
    with pytest.raises(ValueError, match="NaN"):
        stats.ks_two_sample(a, b)


@pytest.mark.parametrize("m, n", [(0, 10), (10, 0), (-1, 5)])
def test_two_sample_critical_rejects_a_size_below_one(m, n):
    with pytest.raises(ValueError, match="sample sizes must be >= 1"):
        stats.ks_two_sample_critical(0.01, m, n)


def test_total_variation_trivials():
    assert stats.total_variation({0: 0.5, 1: 0.5}, {0: 0.5, 1: 0.5}) == 0.0
    assert stats.total_variation({0: 1.0}, {1: 1.0}) == 1.0


@pytest.mark.parametrize("counts", [{}, {1: 0}, {0: 0, 3: 0}])
def test_counts_to_pmf_rejects_counts_that_sum_to_zero(counts):
    with pytest.raises(ValueError, match="counts sum to zero"):
        stats.counts_to_pmf(counts)
    assert stats.counts_to_pmf({**counts, 2: 4}) == {**counts, 2: 1.0}


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


@pytest.mark.parametrize("k", [0, -1, 11])
def test_hill_estimator_rejects_k_outside_1_to_len_minus_1(k):
    with pytest.raises(ValueError, match="k"):
        stats.hill_tail_exponent(np.arange(1.0, 12.0), k)


def test_hill_estimator_rejects_nan():
    # as ks_statistic and ks_two_sample do, rather than return nan
    with pytest.raises(ValueError, match="NaN"):
        stats.hill_tail_exponent([np.nan, 3.0, 2.0, 1.0, 0.5], 2)


@pytest.mark.parametrize("sample, k", [([np.inf, np.inf, 1.0], 1), ([np.inf, 3.0, 2.0, 1.0, 0.5], 2), ([-np.inf, 3.0, 2.0], 1)])
def test_hill_estimator_rejects_inf(sample, k):
    # they gave nan (inf / inf) and 0.0 (1 / inf) instead of an exponent
    with pytest.raises(ValueError, match="inf"):
        stats.hill_tail_exponent(sample, k)
