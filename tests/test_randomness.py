import numpy as np
import pytest

from mvpp.randomness import derive_stream
from mvpp import stats


def test_same_pair_replays_identically():
    a = derive_stream(42, 0)
    b = derive_stream(42, 0)
    assert [a.next_uniform() for _ in range(10)] == [b.next_uniform() for _ in range(10)]


def test_distinct_stream_ids_differ():
    a = derive_stream(42, 0)
    b = derive_stream(42, 1)
    ua = [a.next_uniform() for _ in range(10)]
    ub = [b.next_uniform() for _ in range(10)]
    assert ua != ub


def test_zero_seed_not_degenerate():
    s = derive_stream(0, 0)
    u = [s.next_uniform() for _ in range(10)]
    assert len(set(u)) > 1
    assert all(0.0 <= v < 1.0 for v in u)


def test_uniform_range_and_mean():
    s = derive_stream(7, 0)
    u = s.uniforms(100_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005


def test_uniform_chi_square_100_bins():
    s = derive_stream(7, 1)
    u = s.uniforms(100_000)
    counts = np.bincount((u * 100).astype(int), minlength=100)
    pmf = {i: 0.01 for i in range(100)}
    p = stats.chi_square_pvalue({i: int(c) for i, c in enumerate(counts)}, pmf)
    assert p > 0.001


def test_pairwise_stream_independence():
    # joint 10x10 binning of two streams must look uniform on 100 cells
    for sid in (1, 2, 5):
        a = derive_stream(11, 0).uniforms(100_000)
        b = derive_stream(11, sid).uniforms(100_000)
        cells = (a * 10).astype(int) * 10 + (b * 10).astype(int)
        counts = {i: int(c) for i, c in enumerate(np.bincount(cells, minlength=100))}
        p = stats.chi_square_pvalue(counts, {i: 0.01 for i in range(100)})
        assert p > 0.001, (sid, p)


def test_gamma_shape_one_is_exponential():
    s = derive_stream(7, 2)
    draws = s.gammas(1.0, 100_000)

    class Exp1:
        def cdf(self, x):
            return 1.0 - np.exp(-np.maximum(x, 0.0))

    assert stats.ks_statistic(draws, Exp1()) <= 0.01


def test_standard_normal_ks():
    s = derive_stream(7, 3)
    draws = s.standard_normals(100_000)
    assert stats.ks_statistic(draws, stats.STD_NORMAL) <= 0.01


def test_stable_alpha2_is_normal_variance_2():
    s = derive_stream(7, 4)
    draws = s.stables(2.0, 100_000)
    assert stats.ks_statistic(draws, stats.Normal(0.0, 2.0)) <= 0.01


def test_stable_alpha1_runs():
    s = derive_stream(7, 5)
    draws = s.stables(1.0, 1000)
    assert np.isfinite(draws).all()


def test_parameter_validation():
    s = derive_stream(7, 6)
    with pytest.raises(ValueError):
        s.next_gamma(0.0)
    with pytest.raises(ValueError):
        s.next_stable(2.5)
    with pytest.raises(ValueError):
        s.next_stable(1.5, skew=2.0)


def test_replay_across_sampler_kinds():
    def drive(stream):
        return (
            stream.uniforms(5).tolist(),
            stream.next_gamma(2.5),
            stream.next_stable(1.5),
            stream.integers(0, 10, 5).tolist(),
        )

    assert drive(derive_stream(99, 3)) == drive(derive_stream(99, 3))


def test_shuffled_is_permutation():
    s = derive_stream(7, 8)
    items = list(range(8))
    out = s.shuffled(items)
    assert sorted(out) == items and items == list(range(8))
