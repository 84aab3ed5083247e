import math
from collections import Counter

import numpy as np
import pytest

from mvpp import stats
from mvpp.kernels import (
    DColourKernel,
    KDiscreteKernel,
    MMInfQueueKernel,
    NormalIncrement,
    RademacherIncrement,
    RandomWalkKernel,
    StableIncrement,
    companion_chain,
    leading_eigenpair,
    validate_declared_moments,
    walk_kernel_constant,
    walk_kernel_normal,
    walk_kernel_rademacher,
    walk_kernel_stable,
)
from mvpp.randomness import derive_stream


# ---------------------------------------------------------------------------
# kernel variants
# ---------------------------------------------------------------------------


def test_dcolour_validation():
    with pytest.raises(ValueError):
        DColourKernel([[0.5, 0.5], [0.5]])
    with pytest.raises(ValueError):
        DColourKernel([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValueError):
        DColourKernel([[-0.1, 1.1], [0.5, 0.5]])


def test_dcolour_sampling_and_atoms():
    k = DColourKernel([[0.6, 0.4], [0.3, 0.7]])
    s = derive_stream(20, 0)
    hits = sum(k.sample(0, s) == 1 for _ in range(50_000))
    assert abs(hits / 50_000 - 0.4) < 0.01
    atoms = k.atoms(1)
    assert atoms.weight(0) == pytest.approx(0.3)
    assert atoms.total_mass == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        k.sample(2, s)


def test_mminf_transitions():
    k = MMInfQueueKernel(1.0, 1.0)
    s = derive_stream(20, 1)
    assert all(k.sample(0, s) == 1 for _ in range(20))
    ups = sum(k.sample(1, s) == 2 for _ in range(50_000))
    assert abs(ups / 50_000 - 0.5) < 0.01
    with pytest.raises(ValueError):
        k.sample(-1, s)
    atoms = k.atoms(3)
    assert atoms.weight(4) == pytest.approx(0.25)
    assert atoms.weight(2) == pytest.approx(0.75)
    assert k.atoms(0).weight(1) == 1.0


def test_random_walk_deterministic_increment():
    k = walk_kernel_constant(1.0)
    s = derive_stream(20, 2)
    assert k.sample(5.0, s) == 6.0
    assert k.atoms(5.0).weight(6.0) == 1.0
    assert walk_kernel_normal().atoms(0.0) is None


def test_kdiscrete_atoms_merge_and_mass():
    k = KDiscreteKernel((0, 1, 1))
    atoms = k.atoms(5)
    assert atoms.weight(5) == pytest.approx(1 / 3)
    assert atoms.weight(6) == pytest.approx(2 / 3)
    assert atoms.total_mass == pytest.approx(1.0, abs=1e-12)
    # ball counts sum to kappa at every probed colour
    for x in range(-3, 4):
        assert len(k.atom_tuple(x)) == 3


def test_kdiscrete_sampling_is_uniform_over_atoms():
    k = KDiscreteKernel((0, 1))
    s = derive_stream(20, 3)
    counts = Counter(k.sample(0, s) for _ in range(40_000))
    ref = {0: 0.5, 1: 0.5}
    assert stats.chi_square_pvalue(counts, ref) > 0.01
    assert stats.chi_square_pvalue(Counter(k.draw_many(s, 40_000).tolist()), ref) > 0.01
    with pytest.raises(ValueError):
        KDiscreteKernel((0,))


@pytest.mark.parametrize(
    "offsets, mean, var", [((1, 1, 1), 1.0, 0.0), ((-1, 0, 1), 0.0, 2 / 3), ((2, 0), 1.0, 1.0)]
)
def test_kdiscrete_declares_the_offsets_moments(offsets, mean, var):
    # a uniform ball's step is a uniform offset: the moments a walk kernel declares
    k = KDiscreteKernel(offsets)
    assert k.offsets == offsets and k.kappa == len(offsets)
    assert k.mean == pytest.approx(mean) and k.cov == pytest.approx(var)
    assert k.atom_tuple(5) == tuple(5 + o for o in offsets)


def test_kernel_atoms_requires_atomic():
    assert walk_kernel_normal().atoms(0.0) is None


def test_stable_increment_validation():
    for alpha in (2.5, 0.0):
        with pytest.raises(ValueError):
            StableIncrement(alpha)
        with pytest.raises(ValueError):
            walk_kernel_stable(alpha)
    k = walk_kernel_stable(1.5)
    assert isinstance(k, RandomWalkKernel) and k.cov == math.inf and k.mean == 0.0
    assert walk_kernel_stable(1.5, skew=0.5).mean is None
    assert walk_kernel_stable(0.8).mean is None
    s = derive_stream(20, 4)
    assert np.isfinite(k.sample(0.0, s))


@pytest.mark.parametrize("alpha,skew,scale", [(1.5, 0.0, 1.0), (0.8, 0.5, 2.0), (2.0, 0.0, 0.5)])
def test_stable_increment_draws_are_the_streams_stable_draws(alpha, skew, scale):
    inc = StableIncrement(alpha, skew, scale)
    a, b = derive_stream(20, 16), derive_stream(20, 16)
    assert np.array_equal(inc.draw_many(a, 1000), b.stables(alpha, 1000, skew, scale))
    assert [inc.draw(a) for _ in range(50)] == [b.next_stable(alpha, skew, scale) for _ in range(50)]
    x = 3.25
    assert walk_kernel_stable(alpha, skew, scale).sample(x, a) == x + b.next_stable(alpha, skew, scale)


# ---------------------------------------------------------------------------
# companion chain
# ---------------------------------------------------------------------------


def test_companion_chain_deterministic_walk():
    s = derive_stream(20, 5)
    w = companion_chain(walk_kernel_constant(1.0), 0.0, 10, s)
    assert w == [float(i) for i in range(11)]


def test_companion_chain_dcolour_stationary():
    # empirical law across replicas against the solved stationary (3/7, 4/7)
    k = DColourKernel([[0.6, 0.4], [0.3, 0.7]])
    s = derive_stream(20, 6)
    reps, n = 4000, 1000
    # vectorized two-state chain
    states = np.zeros(reps, dtype=int)
    for _ in range(n):
        u = s.uniforms(reps)
        up = np.where(states == 0, 0.4, 0.7)
        states = (u < up).astype(int)
    pmf = stats.counts_to_pmf(Counter(states.tolist()))
    assert stats.total_variation(pmf, {0: 3 / 7, 1: 4 / 7}) < 0.02


def test_companion_chain_mminf_law_matches_exact_kernel_power():
    # the jump chain is periodic, so the law at a fixed time is compared to
    # the exact n-step law (kernel power), not to a stationary distribution
    lam = mu = 1.0
    n, reps, maxs = 200, 20_000, 60
    P = np.zeros((maxs, maxs))
    P[0, 1] = 1.0
    for x in range(1, maxs - 1):
        P[x, x + 1] = lam / (lam + x * mu)
        P[x, x - 1] = x * mu / (lam + x * mu)
    law = np.zeros(maxs)
    law[0] = 1.0
    for _ in range(n):
        law = law @ P
    s = derive_stream(20, 7)
    states = np.zeros(reps, dtype=int)
    for _ in range(n):
        u = s.uniforms(reps)
        up = np.where(states == 0, 1.0, lam / (lam + states * mu))
        states = np.where(u < up, states + 1, states - 1)
    pmf = stats.counts_to_pmf(Counter(states.tolist()))
    ref = {x: float(law[x]) for x in range(maxs) if law[x] > 0}
    assert stats.total_variation(pmf, ref) < 0.02


def test_companion_chain_markov_restart():
    # restarting from W_k with a fresh stream leaves the one-step law alone
    k = MMInfQueueKernel(1.0, 1.0)
    s = derive_stream(20, 8)
    full = Counter()
    restart = Counter()
    for rep in range(20_000):
        w = companion_chain(k, 0, 6, s)
        full[w[6]] += 1
        s2 = derive_stream(777, rep)
        restart[companion_chain(k, w[5], 1, s2)[1]] += 1
    _, _, p = stats.chi_square_two_sample(full, restart)
    assert p > 0.01


# ---------------------------------------------------------------------------
# shuffles (mvpp_kdiscrete orders a split's atoms with RngStream.shuffled)
# ---------------------------------------------------------------------------


def test_sym_shuffle_first_coordinate_frequency():
    s = derive_stream(20, 9)
    hits = sum(s.shuffled(("a", "a", "b"))[0] == "a" for _ in range(100_000))
    assert abs(hits / 100_000 - 2 / 3) < 0.01


def test_sym_shuffle_identity():
    s = derive_stream(20, 10)
    assert s.shuffled(("x",)) == ["x"]


def test_sym_shuffle_uniform_over_orderings():
    s = derive_stream(20, 11)
    reps = 100_000
    counts = Counter(tuple(s.shuffled((1, 2, 3))) for _ in range(reps))
    assert len(counts) == 6
    sigma = math.sqrt((1 / 6) * (5 / 6) / reps)
    for c in counts.values():
        assert abs(c / reps - 1 / 6) <= 3 * sigma + 1e-9


def test_sym_shuffle_preserves_multiset():
    s = derive_stream(20, 12)
    for _ in range(50):
        out = s.shuffled((1, 1, 2, 5))
        assert sorted(out) == [1, 1, 2, 5]


# ---------------------------------------------------------------------------
# eigenpair
# ---------------------------------------------------------------------------


def test_leading_eigenpair_stochastic_matrix():
    lam, v = leading_eigenpair([[0.6, 0.4], [0.3, 0.7]])
    assert lam == pytest.approx(1.0, abs=1e-10)
    assert v[0] == pytest.approx(3 / 7, abs=1e-9)
    assert v[1] == pytest.approx(4 / 7, abs=1e-9)


def test_leading_eigenpair_general_matrix():
    lam, v = leading_eigenpair([[1.0, 2.0], [3.0, 1.0]])
    assert lam == pytest.approx(1.0 + math.sqrt(6), abs=1e-8)


def test_leading_eigenpair_reducible_rejected():
    with pytest.raises(ValueError, match="reducible"):
        leading_eigenpair([[1.0, 0.0], [0.0, 1.0]])


def test_leading_eigenpair_periodic_matrix():
    # period 2: power iteration on R itself oscillates, on R + cI it converges
    for R, v1 in (
        ([[0.0, 1.0], [1.0, 0.0]], (1 / 2, 1 / 2)),
        ([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], (1 / 2, 1 / 4, 1 / 4)),
    ):
        lam, v = leading_eigenpair(R)
        assert lam == pytest.approx(1.0, abs=1e-10)
        assert v == pytest.approx(v1, abs=1e-10)


def test_rademacher_draw_many_is_the_packed_signs():
    # sign j is bit j % 64 of raw word j // 64, +1 where it is set
    s, ref_s = derive_stream(20, 16), derive_stream(20, 16)
    got = RademacherIncrement().draw_many(s, 10_001)
    words = ref_s._gen.bit_generator.random_raw(157).astype(np.uint64)
    bits = (words[:, None] >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
    assert got.dtype == np.int8
    assert np.array_equal(got, 2 * bits.ravel()[:10_001].astype(int) - 1)
    assert np.array_equal(s.uniforms(4), ref_s.uniforms(4))


def test_validate_declared_moments():
    s = derive_stream(20, 13)
    ok = validate_declared_moments(walk_kernel_rademacher(), s, n=200_000)
    assert ok["n"] == 200_000
    bad = RandomWalkKernel(RademacherIncrement(), mean=0.3, cov=1.0)
    with pytest.raises(ValueError, match="mean"):
        validate_declared_moments(bad, derive_stream(20, 14), n=200_000)
    bad_var = RandomWalkKernel(NormalIncrement(0.0, 1.0), mean=0.0, cov=2.0)
    with pytest.raises(ValueError, match="variance"):
        validate_declared_moments(bad_var, derive_stream(20, 15), n=200_000)
