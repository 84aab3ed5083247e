"""Reference distributions and goodness-of-fit statistics.

All acceptance checks in this package reduce to a handful of fixed-threshold
statistics computed here: weighted one-sample Kolmogorov-Smirnov distance,
two-sample KS, chi-square with small-bin pooling, and total variation between
pmfs.  Thresholds are fixed constants chosen from asymptotic critical values
with generous slack so that pass/fail is deterministic under pinned seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .randomness import RngStream

# ---------------------------------------------------------------------------
# special functions (double precision, no external deps)
# ---------------------------------------------------------------------------


def normal_cdf(x: float) -> float:
    """Standard normal CDF. Absolute error well below 1e-7 (see golden test)."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


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


def _beta_contfrac(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 10_000):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def beta_inc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    ln = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    front = math.exp(ln)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


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

    def cdf(self, x: float) -> float:
        if self.var == 0:
            return 0.0 if x < self.mean else 1.0
        return normal_cdf((x - self.mean) / math.sqrt(self.var))

    def sample(self, s: RngStream, size: int) -> np.ndarray:
        return self.mean + math.sqrt(self.var) * s.standard_normals(size)


STD_NORMAL = Normal(0.0, 1.0)


@dataclass(frozen=True)
class Uniform01:
    def cdf(self, x: float) -> float:
        return min(1.0, max(0.0, x))

    def sample(self, s: RngStream, size: int) -> np.ndarray:
        return s.uniforms(size)


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

    def cdf(self, x: float) -> float:
        k = math.floor(x)
        if k < 0:
            return 0.0
        return gamma_q(k + 1.0, self.rate)

    def pmf_dict(self, upto: int) -> dict:
        return {k: self.pmf(k) for k in range(upto + 1)}

    def sample(self, s: RngStream, size: int) -> np.ndarray:
        return s._gen.poisson(self.rate, size=size)


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
class Geometric:
    """Geometric law with success probability p.

    support_start 0 counts failures before the first success
    (pmf p (1-p)^k on {0, 1, ...}); support_start 1 counts trials
    (pmf p (1-p)^(k-1) on {1, 2, ...}).
    """

    p: float
    support_start: int = 0

    def __post_init__(self):
        if not (0 < self.p <= 1):
            raise ValueError("p must be in (0, 1]")
        if self.support_start not in (0, 1):
            raise ValueError("support_start must be 0 or 1")

    def pmf(self, k: int) -> float:
        j = k - self.support_start
        if j < 0:
            return 0.0
        return self.p * (1.0 - self.p) ** j

    def pmf_dict(self, upto: int) -> dict:
        return {k: self.pmf(k) for k in range(self.support_start, upto + 1)}


@dataclass(frozen=True)
class PointMass:
    value: float = 0.0

    def cdf(self, x: float) -> float:
        return 0.0 if x < self.value else 1.0

    def sample(self, s: RngStream, size: int) -> np.ndarray:
        return np.full(size, self.value)


@dataclass(frozen=True)
class StableLaw:
    """Alpha-stable law, sampling only (no closed-form CDF shipped)."""

    alpha: float
    skew: float = 0.0
    scale: float = 1.0

    def sample(self, s: RngStream, size: int) -> np.ndarray:
        return s.stables(self.alpha, size, skew=self.skew, scale=self.scale)


# ---------------------------------------------------------------------------
# samples and statistics
# ---------------------------------------------------------------------------


@dataclass
class WeightedSample:
    """Real-valued sample points with positive weights."""

    points: list = field(default_factory=list)  # (value, weight) pairs

    @classmethod
    def from_values(cls, values, weights=None):
        values = np.asarray(values, dtype=float)
        if weights is None:
            weights = np.ones_like(values)
        else:
            weights = np.asarray(weights, dtype=float)
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        return cls(points=list(zip(values.tolist(), weights.tolist())))

    def arrays(self):
        vals = np.array([p[0] for p in self.points])
        wts = np.array([p[1] for p in self.points])
        return vals, wts


def ks_statistic(sample, law) -> float:
    """Sup distance between the weighted empirical CDF and law.cdf.

    Both one-sided gaps are evaluated at every distinct sample point; weights
    are normalized internally, so measures of any total mass can be compared.
    """
    if isinstance(sample, WeightedSample):
        vals, wts = sample.arrays()
    else:
        vals = np.asarray(sample, dtype=float)
        wts = np.ones_like(vals)
    if vals.size == 0:
        raise ValueError("empty sample")
    total = wts.sum()
    if total <= 0:
        raise ValueError("zero total weight")
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], wts[order]
    # collapse ties so each distinct value carries one CDF jump
    uniq, idx = np.unique(vals, return_index=True)
    cum = np.cumsum(wts) / total
    upper = cum[np.append(idx[1:] - 1, len(vals) - 1)]
    lower = np.concatenate(([0.0], upper[:-1]))
    if isinstance(law, Normal) and law.var > 0:
        # normal_cdf's arithmetic, one erf pass over all points
        z = (uniq - law.mean) / math.sqrt(law.var) / math.sqrt(2.0)
        ref = 0.5 * (1.0 + np.frompyfunc(math.erf, 1, 1)(z).astype(float))
    else:
        ref = np.array([law.cdf(float(x)) for x in uniq])
    return float(np.max(np.maximum(np.abs(ref - lower), np.abs(upper - ref))))


def ks_two_sample(a, b) -> float:
    """Unweighted two-sample KS statistic."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
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
    """Hill estimator of the upper tail exponent from the k largest |values|."""
    x = np.sort(np.abs(np.asarray(samples, dtype=float)))[::-1]
    if k + 1 > x.size:
        raise ValueError("k too large for sample size")
    top = x[:k]
    ref = x[k]
    if ref <= 0:
        raise ValueError("non-positive tail reference")
    return float(1.0 / np.mean(np.log(top / ref)))

