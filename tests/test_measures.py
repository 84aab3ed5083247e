import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvpp.measures import (
    FINITE,
    AtomicMeasure,
    Rescaling,
    empirical_f_n,
    expected_f_n,
    measure_to_csv_lines,
    normalize,
    pbar_recursion,
    sample_atom,
    t_n,
    theta_rescale,
    z_n,
)
from mvpp.kernels import RademacherIncrement
from mvpp.process import batch_bmc_walk_labels
from mvpp.randomness import derive_stream

PHI_COIN = lambda z: np.cos(z)  # characteristic function of a fair +-1 coin


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def test_normalize_proportional():
    mu = AtomicMeasure([("a", 2.0), ("b", 6.0)])
    nu = normalize(mu)
    assert nu.weight("a") == pytest.approx(0.25)
    assert nu.weight("b") == pytest.approx(0.75)
    assert nu.total_mass == pytest.approx(1.0, abs=1e-12)


def test_normalize_identity_on_probability():
    mu = AtomicMeasure([("x", 1.0)])
    assert normalize(mu) == mu


def test_normalize_uniform():
    mu = AtomicMeasure([(i, 0.3) for i in range(10)])
    nu = normalize(mu)
    for i in range(10):
        assert nu.weight(i) == pytest.approx(0.1)


def test_normalize_null_measure_rejected():
    mu = AtomicMeasure([("a", 1.0)])
    mu._atoms.clear()
    mu.total_mass = 0.0
    with pytest.raises(ValueError, match="null measure"):
        normalize(mu)


@given(st.lists(st.tuples(st.integers(0, 5), st.floats(0.01, 10.0)), min_size=1, max_size=8))
@settings(max_examples=50, deadline=None)
def test_normalize_idempotent(atoms):
    mu = AtomicMeasure(atoms)
    once = normalize(mu)
    twice = normalize(once)
    assert twice.close_to(once, 1e-12)


def test_atoms_merge_and_positivity():
    mu = AtomicMeasure([("a", 1.0), ("a", 2.0)])
    assert len(mu) == 1 and mu.weight("a") == pytest.approx(3.0)
    with pytest.raises(ValueError):
        AtomicMeasure([("a", 0.0)])


def test_sample_atom_single_atom():
    s = derive_stream(1, 0)
    mu = AtomicMeasure([("x", 2.5)])
    assert all(sample_atom(mu, s) == "x" for _ in range(5))


def test_sample_atom_frequencies():
    s = derive_stream(1, 1)
    mu = AtomicMeasure([("a", 0.25), ("b", 0.75)])
    hits = sum(sample_atom(mu, s) == "b" for _ in range(100_000))
    assert abs(hits / 100_000 - 0.75) < 0.01


def test_sample_atom_merged_duplicates():
    s1 = derive_stream(1, 2)
    s2 = derive_stream(1, 2)
    merged = AtomicMeasure([("a", 1.0), ("a", 1.0), ("b", 2.0)])
    plain = AtomicMeasure([("a", 2.0), ("b", 2.0)])
    draws1 = [sample_atom(merged, s1) for _ in range(50)]
    draws2 = [sample_atom(plain, s2) for _ in range(50)]
    assert draws1 == draws2


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def test_theta_rescale_identity():
    samples = [(2.0, 1.0), (4.0, 0.5)]
    assert theta_rescale(samples, Rescaling(1.0, 0.0)) == samples


def test_theta_rescale_affine():
    out = theta_rescale([(2.0, 1.0), (4.0, 1.0)], Rescaling(2.0, 2.0))
    assert [c for c, _ in out] == [0.0, 1.0]


def test_theta_rescale_profile_style():
    n = 1000
    r = Rescaling(math.sqrt(math.log(n)), math.log(n))
    out = theta_rescale([(k, 1.0) for k in range(5, 9)], r)
    for (c, _), k in zip(out, range(5, 9)):
        assert c == pytest.approx((k - math.log(n)) / math.sqrt(math.log(n)))


def test_theta_rescale_finite_space_guard():
    with pytest.raises(ValueError):
        theta_rescale([(1, 1.0)], Rescaling(2.0, 0.0), kind=FINITE)
    assert theta_rescale([(1, 1.0)], Rescaling(1.0, 0.0), kind=FINITE) == [(1, 1.0)]


@given(
    st.lists(st.tuples(st.floats(-50, 50), st.floats(0.1, 2.0)), min_size=1, max_size=6),
    st.floats(0.2, 4.0),
    st.floats(-5, 5),
    st.floats(0.2, 4.0),
    st.floats(-5, 5),
)
@settings(max_examples=40, deadline=None)
def test_theta_rescale_composition(samples, a1, b1, a2, b2):
    twice = theta_rescale(theta_rescale(samples, Rescaling(a1, b1)), Rescaling(a2, b2))
    combined = theta_rescale(samples, Rescaling(a1 * a2, b1 + a1 * b2))
    for (x, _), (y, _) in zip(twice, combined):
        assert x == pytest.approx(y, abs=1e-9)


def test_rescaling_requires_positive_scale():
    with pytest.raises(ValueError):
        Rescaling(0.0, 0.0)


# ---------------------------------------------------------------------------
# z_n
# ---------------------------------------------------------------------------


def test_zn_small_products():
    x = 0.7 + 0.2j
    assert z_n(2, x) == pytest.approx(x * (1 + x) / 2, abs=1e-14)
    assert z_n(3, 2.0) == pytest.approx(4.0, abs=1e-12)
    assert z_n(0, 5.0) == 1.0


def test_zn_identities_up_to_1e6():
    for n in (1, 10, 1000, 100_000, 1_000_000):
        assert abs(z_n(n, 1.0) - 1.0) <= 1e-10
        assert abs(z_n(n, 2.0) - (n + 1)) / (n + 1) <= 1e-10


def test_zn_exact_zero_factor():
    assert z_n(3, 0.0) == 0.0
    assert z_n(5, -1.0) == 0.0


def test_zn_asymptotic_ratio():
    ratio = abs(z_n(100_000, 1.5)) * math.gamma(1.5) / math.sqrt(100_000)
    assert abs(ratio - 1.0) <= 1e-3


def test_zn_rejects_negative_n():
    with pytest.raises(ValueError):
        z_n(-1, 1.0)


# ---------------------------------------------------------------------------
# empirical transform and martingale
# ---------------------------------------------------------------------------


def test_empirical_fn_degenerate_labels():
    assert empirical_f_n([0.0] * 7, 0.4, 0.0) == pytest.approx(1.0)


def test_empirical_fn_theta_zero():
    labels = [0.3, -1.2, 4.5]
    assert empirical_f_n(labels, 0.0, 0.7) == pytest.approx(1.0)


def test_empirical_fn_single_label():
    x, th = 1.3, 0.5
    assert empirical_f_n([x], th, 0.0) == pytest.approx(cmath.exp(1j * th * x))


def test_empirical_fn_empty_rejected():
    with pytest.raises(ValueError):
        empirical_f_n([], 0.1, 0.0)


def test_empirical_fn_bounded_by_zn():
    s = derive_stream(3, 0)
    for _ in range(20):
        labels = s.standard_normals(30)
        th = s.next_uniform()
        m = s.next_uniform()
        bound = abs(z_n(29, cmath.exp(-1j * m * th)))
        assert abs(empirical_f_n(labels, th, m)) <= bound + 1e-12


def test_expected_fn_trivials():
    # flat characteristic function: Z_n(2)/(n+1) = 1
    assert expected_f_n(50, 0.3, 0.0, lambda t: 1.0) == pytest.approx(1.0)
    # theta = 0: Phi(0) = 1 for any law
    assert expected_f_n(50, 0.0, 1.7, PHI_COIN) == pytest.approx(1.0)


def test_expected_fn_matches_monte_carlo():
    n, reps, theta = 500, 8000, 0.3
    s = derive_stream(3, 1)
    lab = batch_bmc_walk_labels(n, reps, RademacherIncrement(), s)
    f = np.exp(1j * theta * lab).mean(axis=1)
    closed = expected_f_n(n, theta, 0.0, PHI_COIN)
    se = f.real.std(ddof=1) / math.sqrt(reps)
    assert abs(f.real.mean() - closed.real) <= 3 * se
    se_i = f.imag.std(ddof=1) / math.sqrt(reps)
    assert abs(f.imag.mean() - closed.imag) <= 3 * se_i


def test_tn_base_cases():
    assert t_n([0.0], 0.7, 0.0, PHI_COIN) == pytest.approx(1.0)  # n = 0
    assert t_n([0.5, 1.5, -2.0], 0.0, 0.0, PHI_COIN) == pytest.approx(1.0)  # theta = 0


def test_tn_vanishing_denominator_named():
    # Phi == -1 makes Z_n(0) = 0 for n >= 1
    with pytest.raises(ZeroDivisionError, match="theta"):
        t_n([0.0, 1.0], 0.3, 0.0, lambda t: -1.0)


def test_tn_mean_is_one():
    n, reps = 200, 5000
    theta = 0.3 / math.sqrt(math.log(n))
    s = derive_stream(3, 2)
    lab = batch_bmc_walk_labels(n, reps, RademacherIncrement(), s)
    f = np.exp(1j * theta * lab).mean(axis=1)
    t_vals = f / expected_f_n(n, theta, 0.0, PHI_COIN)
    se = t_vals.real.std(ddof=1) / math.sqrt(reps)
    assert abs(t_vals.real.mean() - 1.0) <= 3 * se


# ---------------------------------------------------------------------------
# second-moment recursion
# ---------------------------------------------------------------------------


def test_pbar_base_case():
    assert pbar_recursion(0, 0.2j, -0.2j, PHI_COIN) == pytest.approx(1.0)


def test_pbar_one_step_hand_expansion():
    z1, z2 = 0.3j, 0.1j
    phi1, phi2, phi12 = PHI_COIN(z1), PHI_COIN(z2), PHI_COIN(z1 + z2)
    expected = (1 + phi1 + phi2) + phi12  # alpha*_0 + beta*_0 with Z_0 = 1
    assert pbar_recursion(1, z1, z2, PHI_COIN) == pytest.approx(expected)


def test_pbar_matches_monte_carlo():
    n, reps = 100, 40_000
    z1, z2 = 0.2j, -0.2j
    pb = pbar_recursion(n, z1, z2, PHI_COIN).real
    s = derive_stream(3, 3)
    vals = []
    for _ in range(4):
        lab = batch_bmc_walk_labels(n, reps // 4, RademacherIncrement(), s)
        vals.append((np.exp(1j * z1 * lab).sum(axis=1) * np.exp(1j * z2 * lab).sum(axis=1)).real)
    vals = np.concatenate(vals)
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(pb - vals.mean()) <= 3 * se


def test_pbar_general_initial_colour_hook():
    cf = lambda z: cmath.exp(1j * z * 2.0)  # point mass at 2
    base = pbar_recursion(0, 0.1j, 0.2j, PHI_COIN, m0_cf=cf)
    assert base == pytest.approx(cf(0.3j))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_measure_csv_round_shape():
    mu = AtomicMeasure([(0.0, 1.0), (2.0, 0.5)])
    lines = measure_to_csv_lines(mu)
    assert lines[0] == "colour_component_1,weight"
    assert len(lines) == 3
