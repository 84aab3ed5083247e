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


@pytest.mark.parametrize(
    "highs, reps",
    [(1 + np.arange(20_000) * (kappa - 1), 4) for kappa in (2, 3, 5)]
    + [(np.arange(1, 1001), 10_000)],
    ids=["kary2", "kary3", "kary5", "uniform-attachment"],
)
def test_array_bound_integers_equal_successive_calls(highs, reps):
    # batch_kary_leaf_labels draws all its splits in one call on this
    # property of numpy's Generator.integers; if an upgrade breaks it, this
    # test names the cause of the moved report pin
    a, b = derive_stream(9, highs.size), derive_stream(9, highs.size)
    one_call = a.integers(0, highs[:, None], (highs.size, reps))
    per_row = np.stack([b.integers(0, h, reps) for h in highs])
    assert np.array_equal(one_call, per_row)
    assert np.array_equal(a.uniforms(4), b.uniforms(4))


def _raw_word_signs(s, n):
    """The reference contract of signs(n), bit by bit in Python ints: sign j
    is +1 where bit j % 64 of raw word j // 64 is set."""
    words = [int(w) for w in s._gen.bit_generator.random_raw(-(-n // 64))]
    return np.array([1 if words[j // 64] >> (j % 64) & 1 else -1 for j in range(n)])


@pytest.mark.parametrize("n", list(range(10)) + [63, 64, 65, 128, 10_001])
def test_signs_are_the_bits_of_raw_words(n):
    # n up to 64 takes one word of Philox's buffer of 4, 65 to 128 two
    s, ref_s = derive_stream(5, n), derive_stream(5, n)
    got = s.signs(n)
    assert got.dtype == np.int8 and got.shape == (n,)
    assert np.array_equal(got, _raw_word_signs(ref_s, n))
    assert np.array_equal(s.uniforms(4), ref_s.uniforms(4))  # the stream is ceil(n/64) words on


def test_signs_interleave_with_integers_and_uniforms():
    # integers below 2**32 take 32-bit half-words, and keep an odd one
    # buffered; raw words pass it by
    s, ref_s = derive_stream(5, 99), derive_stream(5, 99)
    for n in (1, 3, 2, 5, 7, 64, 65, 10_001):
        assert np.array_equal(s.integers(0, 10, n), ref_s.integers(0, 10, n))
        assert np.array_equal(s.signs(n), _raw_word_signs(ref_s, n))
        assert np.array_equal(s.uniforms(n), ref_s.uniforms(n))
        assert s.integers(0, 3) == ref_s.integers(0, 3)
    assert np.array_equal(s.uniforms(4), ref_s.uniforms(4))


PACKED_WORDS = 20_000  # 1.28M signs


def test_packed_signs_are_fair_at_every_bit_position():
    # each of the 64 bit positions of a word, by chi-square at a
    # family-wise level of 0.001
    bits = derive_stream(5, 2024).signs(64 * PACKED_WORDS).reshape(PACKED_WORDS, 64) > 0
    for pos, ones in enumerate(bits.sum(axis=0).tolist()):
        p = stats.chi_square_pvalue({1: ones, 0: PACKED_WORDS - ones}, {1: 0.5, 0: 0.5})
        assert p > 0.001 / 64, (pos, p)


def test_packed_signs_are_serially_independent():
    # the 2x2 table of (sign j, sign j + lag) for every lag up to a word, and
    # of the pairs that straddle a word boundary alone (bit 63 of one word,
    # bit 0 of the next), each by chi-square at a family-wise level of 0.001
    bits = derive_stream(5, 2025).signs(64 * PACKED_WORDS) > 0
    m = bits.size - 64
    pairs = {lag: (bits[:m], bits[lag : lag + m]) for lag in range(1, 65)}
    pairs["straddle"] = (bits[63:-1:64], bits[64::64])
    for name, (a, b) in pairs.items():
        both, ones_a, ones_b = (int(np.count_nonzero(x)) for x in (a & b, a, b))
        table = {(1, 1): both, (1, 0): ones_a - both, (0, 1): ones_b - both, (0, 0): a.size - ones_a - ones_b + both}
        p = stats.chi_square_pvalue(table, dict.fromkeys(table, 0.25))
        assert p > 0.001 / len(pairs), (name, table, p)


def test_shuffled_is_permutation():
    s = derive_stream(7, 8)
    items = list(range(8))
    out = s.shuffled(items)
    assert sorted(out) == items and items == list(range(8))


def test_int16_integers_lie_in_range_and_are_uniform():
    s = derive_stream(7, 9)
    draws = s.integers(3, 53, 100_000, dtype=np.int16)
    assert draws.dtype == np.int16
    assert draws.min() >= 3 and draws.max() < 53
    counts = {i: int(c) for i, c in enumerate(np.bincount(draws - 3, minlength=50))}
    p = stats.chi_square_pvalue(counts, {i: 0.02 for i in range(50)})
    assert p > 0.001, p


def test_default_integers_are_numpys_int64_draws():
    s = derive_stream(7, 10)
    ref = np.random.Generator(np.random.Philox(key=np.array([7, 10], dtype=np.uint64)))
    got, want = s.integers(0, 1000), ref.integers(0, 1000)
    assert type(got) is int and got == want
    got, want = s.integers(5, 10**12, 1000), ref.integers(5, 10**12, 1000)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert ref.bit_generator.state["state"]["counter"].tolist() == s._gen.bit_generator.state["state"]["counter"].tolist()
