"""Reference distributions and goodness-of-fit statistics.

All acceptance checks in this package reduce to a handful of fixed-threshold
statistics computed here: weighted one-sample Kolmogorov-Smirnov distance,
two-sample KS, chi-square with small-bin pooling, and total variation between
pmfs.  Thresholds are fixed constants chosen from asymptotic critical values
with generous slack so that pass/fail is deterministic under pinned seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# special functions (double precision, no external deps)
# ---------------------------------------------------------------------------


def normal_cdf(x: float) -> float:
    """Standard normal CDF. Absolute error well below 1e-7 (see golden test)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# math.erf point by point over an array, so that Normal.cdf on an array
# matches normal_cdf on each of its points bit for bit
_erf = np.frompyfunc(math.erf, 1, 1)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _gamma_p_series(a: float, x: float) -> float:
    # regularized lower incomplete gamma by power series, valid x < a + 1
    term = 1.0 / a
    total = term
    n = a
    for _ in range(10_000):
        n += 1.0
        term *= x / n
        total += term
        if abs(term) < abs(total) * 1e-16:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))

def _gamma_q_contfrac(a: float, x: float) -> float:
    # regularized upper incomplete gamma by Lentz continued fraction, x >= a + 1
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if a <= 0:
        raise ValueError("a must be positive")
    if x < 0:
        raise ValueError("x must be non-negative")
    if x == 0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_p_series(a, x)
    return _gamma_q_contfrac(a, x)


def chi_square_sf(x: float, dof: int) -> float:
    """Survival function of the chi-square distribution with dof degrees."""
    if dof < 1:
        raise ValueError("dof must be >= 1")
    return gamma_q(dof / 2.0, x / 2.0)


# ---------------------------------------------------------------------------
# reference laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Normal:
    mean: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if self.var < 0:
            raise ValueError("variance must be non-negative")

    def cdf(self, x):
        """Elementwise on arrays, with normal_cdf's arithmetic."""
        if self.var == 0:
            return PointMass(self.mean).cdf(x)
        z = (np.asarray(x, dtype=float) - self.mean) / math.sqrt(self.var) / math.sqrt(2.0)
        return 0.5 * (1.0 + np.asarray(_erf(z), dtype=float))


STD_NORMAL = Normal(0.0, 1.0)


@dataclass(frozen=True)
class Uniform01:
    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True)
class Poisson:
    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def pmf(self, k: int) -> float:
        if k < 0:
            return 0.0
        return math.exp(-self.rate + k * math.log(self.rate) - math.lgamma(k + 1))

    def cdf(self, x):
        point = lambda v: 0.0 if not v >= 0 else 1.0 if v == math.inf else gamma_q(math.floor(v) + 1.0, self.rate)
        return np.vectorize(point, otypes=[float])(x)

    def pmf_dict(self, upto: int) -> dict:
        return {k: self.pmf(k) for k in range(upto + 1)}


@dataclass(frozen=True)
class MMInfJumpChain:
    """Stationary law of the M/M/infinity queue's jump chain, which steps up
    with probability lam/(lam + x mu) (always, from 0).  Detailed balance
    gives pi(x) = Poisson(lam/mu)(x) (1 + x mu/lam) / 2."""

    lam: float
    mu: float

    def pmf(self, k: int) -> float:
        rho = self.lam / self.mu
        return Poisson(rho).pmf(k) * (1.0 + k / rho) / 2.0

    def pmf_dict(self, upto: int) -> dict:
        return {k: self.pmf(k) for k in range(upto + 1)}


@dataclass(frozen=True)
class PointMass:
    value: float = 0.0

    def cdf(self, x):
        return np.where(np.less(x, self.value), 0.0, 1.0)


# ---------------------------------------------------------------------------
# samples and statistics
# ---------------------------------------------------------------------------


class WeightedSample:
    """Retired: `ks_statistic` takes `weights=`.  The name stays only because
    perfbench/tracer.py imports it; no sample is one."""


# distinct sample points per block of ks_statistic's end-point bound, and how
# far below the best end-point gap a block bound may sit and still be evaluated
_KS_BLOCK = 64
_KS_SLACK = 1e-9


def _one_d(sample, name: str) -> np.ndarray:
    """sample as a 1-d float array; any other shape raises ValueError."""
    vals = np.asarray(sample, dtype=float)
    if vals.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {vals.shape}")
    return vals


def ks_statistic(sample, law, weights=None) -> float:
    """Sup distance between the weighted empirical CDF and law.cdf.

    At the j-th distinct sample point x_j the empirical CDF steps from
    lower_j to upper_j, and the statistic is the largest one-sided gap
    max(F(x_j) - lower_j, upper_j - F(x_j)), which is max(|F - lower_j|,
    |upper_j - F|) as lower_j <= upper_j; weights (default 1 each) must be
    positive and are normalized, so measures of any total mass compare.

    The distinct points are cut into blocks of _KS_BLOCK that share their end
    points, and law.cdf is called once on all end points.  F, lower and upper
    are non-decreasing, so inside a block from s to e every gap is at most
    max(F(x_e) - lower_s, upper_e - F(x_s)).  A second law.cdf call covers the
    interior of only those blocks whose bound reaches the best end-point gap
    less _KS_SLACK; no other block can hold the sup.  Each gap is computed
    as it would be were every point evaluated, so the result is that value
    bit for bit, provided law.cdf works point by point and is non-decreasing
    up to _KS_SLACK.
    """
    vals = _one_d(sample, "sample")
    if vals.size == 0:
        raise ValueError("empty sample")
    n = vals.size
    order = None if weights is None else np.argsort(vals, kind="stable")
    vals = np.sort(vals) if order is None else vals[order]
    if np.isnan(vals[-1]):  # sorting puts NaN last
        raise ValueError("sample holds NaN")
    if order is None:
        below = lambda i: i / n  # the empirical CDF below sorted place i
    else:
        wts = np.asarray(weights, dtype=float)
        if wts.shape != vals.shape or not (wts > 0).all():
            raise ValueError("weights must be positive, one per sample point")
        total = wts.sum()  # before the reorder, whose sum differs in the last bits
        below = np.concatenate(([0.0], np.cumsum(wts[order]) / total)).__getitem__
    # collapse ties so each distinct value carries one CDF jump: its first sorted place, then n
    place = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1], [True])))
    vals = vals[place[:-1]]

    def gaps(idx):  # at distinct points idx: law.cdf, the empirical CDF's two steps and the larger gap
        ref = np.asarray(law.cdf(vals[idx]), dtype=float)
        lower, upper = below(place[idx]), below(place[idx + 1])
        return ref, lower, upper, np.maximum(ref - lower, upper - ref)

    ends = np.append(np.arange(0, vals.size - 1, _KS_BLOCK), vals.size - 1)
    ref, lower, upper, end_gaps = gaps(ends)
    best = end_gaps.max()
    bound = np.maximum(ref[1:] - lower[:-1], upper[1:] - ref[:-1])
    hot = np.repeat(bound >= best - _KS_SLACK, _KS_BLOCK)[: vals.size - 1]
    hot[::_KS_BLOCK] = False  # block starts are end points
    inner = np.flatnonzero(hot)
    if inner.size:
        best = max(best, gaps(inner)[3].max())
    return float(best)


def ks_two_sample(a, b) -> float:
    """Unweighted two-sample KS statistic."""
    a = np.sort(_one_d(a, "sample a"))
    b = np.sort(_one_d(b, "sample b"))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    if np.isnan(a[-1]) or np.isnan(b[-1]):  # np.sort puts NaN last
        raise ValueError("sample holds NaN")
    pooled = np.concatenate([a, b])
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


_KS_CRIT = {0.10: 1.224, 0.05: 1.358, 0.01: 1.628}


def ks_two_sample_critical(alpha: float, m: int, n: int) -> float:
    """Asymptotic two-sample KS critical value at level alpha."""
    try:
        c = _KS_CRIT[alpha]
    except KeyError:
        raise ValueError(f"no tabulated constant for alpha={alpha}")
    if m < 1 or n < 1:
        raise ValueError(f"sample sizes must be >= 1, got m={m}, n={n}")
    return c * math.sqrt((m + n) / (m * n))


def chi_square(counts, pmf) -> tuple:
    """Pearson chi-square of observed counts against a pmf.

    counts and pmf are dicts over the same outcome space (missing outcomes
    count as zero).  Bins with expected count below 5 are pooled into their
    neighbour.  Returns (statistic, dof).
    """
    keys = sorted(set(counts) | set(pmf))
    if not keys:
        raise ValueError("empty inputs")
    n = sum(counts.values())
    if n <= 0:
        raise ValueError("no observations")
    obs = [float(counts.get(k, 0)) for k in keys]
    exp = [n * float(pmf.get(k, 0.0)) for k in keys]
    if any(e == 0 and o > 0 for o, e in zip(obs, exp)):
        raise ValueError("observed outcome with zero expected probability")
    # pool small expected bins left to right
    pooled_obs, pooled_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0:
        if pooled_exp:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    if len(pooled_exp) < 2:
        raise ValueError("fewer than two bins after pooling")
    stat = sum((o - e) ** 2 / e for o, e in zip(pooled_obs, pooled_exp))
    return stat, len(pooled_exp) - 1


def chi_square_pvalue(counts, pmf) -> float:
    stat, dof = chi_square(counts, pmf)
    return chi_square_sf(stat, dof)


def chi_square_two_sample(counts_a, counts_b) -> tuple:
    """Two-sample chi-square homogeneity test; returns (statistic, dof, pvalue)."""
    keys = sorted(set(counts_a) | set(counts_b))
    na = sum(counts_a.values())
    nb = sum(counts_b.values())
    if na == 0 or nb == 0:
        raise ValueError("empty inputs")
    # pool adjacent cells until both pooled totals reach 5
    cells = [(float(counts_a.get(k, 0)), float(counts_b.get(k, 0))) for k in keys]
    pooled = []
    acc = [0.0, 0.0]
    for a, b in cells:
        acc[0] += a
        acc[1] += b
        if (acc[0] + acc[1]) * min(na, nb) / (na + nb) >= 5.0:
            pooled.append(tuple(acc))
            acc = [0.0, 0.0]
    if acc[0] + acc[1] > 0:
        if pooled:
            last = pooled.pop()
            pooled.append((last[0] + acc[0], last[1] + acc[1]))
        else:
            pooled.append(tuple(acc))
    if len(pooled) < 2:
        raise ValueError("fewer than two bins after pooling")
    stat = 0.0
    for a, b in pooled:
        tot = a + b
        ea = tot * na / (na + nb)
        eb = tot * nb / (na + nb)
        stat += (a - ea) ** 2 / ea + (b - eb) ** 2 / eb
    dof = len(pooled) - 1
    return stat, dof, chi_square_sf(stat, dof)


def total_variation(pmf_a: dict, pmf_b: dict) -> float:
    keys = set(pmf_a) | set(pmf_b)
    if not keys:
        raise ValueError("empty inputs")
    return 0.5 * sum(abs(pmf_a.get(k, 0.0) - pmf_b.get(k, 0.0)) for k in keys)


def counts_to_pmf(counts: dict) -> dict:
    n = sum(counts.values())
    return {k: v / n for k, v in counts.items()}


def hill_tail_exponent(samples, k: int) -> float:
    """Hill estimator of the upper tail exponent from the k largest |values|;
    a sample holding NaN or +-inf raises ValueError."""
    if k < 1:
        raise ValueError(f"k must be >= 1, not {k}")
    x = np.sort(np.abs(_one_d(samples, "samples")))[::-1]
    if x.size and not np.isfinite(x[0]):  # np.sort puts NaN, then inf, last: first here
        raise ValueError("sample holds NaN or inf")
    if k + 1 > x.size:
        raise ValueError("k too large for sample size")
    top = x[:k]
    ref = x[k]
    if ref <= 0:
        raise ValueError("non-positive tail reference")
    return float(1.0 / np.mean(np.log(top / ref)))

