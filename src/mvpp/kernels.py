"""Replacement kernels: the family of unit-mass measures added to the urn.

A kernel maps a colour x to the measure R_x dropped into the urn when x is
drawn; every R_x has total mass exactly 1.  Kernels are samplers, never
densities: all verification below needs draws only, which keeps non-atomic
replacement measures first-class.  Atomic kernels additionally expose their
atoms so small urns can be materialised exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measures import AtomicMeasure
from .randomness import RngStream
from . import stats


class ReplacementKernel:
    def sample(self, x, s: RngStream):
        raise NotImplementedError

    def atoms(self, x) -> AtomicMeasure | None:
        """Atomic form of R_x, or None for non-atomic kernels."""
        return None


class DColourKernel(ReplacementKernel):
    """Finite palette: row x of a non-negative matrix, rows summing to 1."""

    def __init__(self, rows):
        self.rows = [tuple(float(v) for v in row) for row in rows]
        d = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != d:
                raise ValueError("replacement matrix must be square")
            if any(v < 0 for v in row):
                raise ValueError(f"row {i} has a negative entry")
            if abs(sum(row) - 1.0) > 1e-12:
                raise ValueError(f"row {i} does not sum to 1")
        self.d = d

    def _check(self, x):
        if not (isinstance(x, int) and 0 <= x < self.d):
            raise ValueError(f"colour {x!r} outside palette of size {self.d}")

    def sample(self, x, s: RngStream) -> int:
        self._check(x)
        u = s.next_uniform()
        acc = 0.0
        for j, w in enumerate(self.rows[x]):
            acc += w
            if u < acc:
                return j
        return self.d - 1

    def atoms(self, x) -> AtomicMeasure:
        self._check(x)
        return AtomicMeasure((j, w) for j, w in enumerate(self.rows[x]) if w > 0)


class RandomWalkKernel(ReplacementKernel):
    """R_x = law of x + increment; the increment does not depend on x.

    The declared mean and variance are trusted by the renormalisation plans
    (stable increments declare cov = inf, and mean None where it does not
    exist); validate_declared_moments cross-checks them against draws.
    """

    def __init__(self, increment, mean, cov):
        self.increment = increment  # object with draw(s) and draw_many(s, n)
        self.mean = mean
        self.cov = cov

    def sample(self, x, s: RngStream):
        return x + self.increment.draw(s)

    def atoms(self, x) -> AtomicMeasure | None:
        pts = getattr(self.increment, "atom_points", None)
        if pts is None:
            return None
        return AtomicMeasure((x + v, w) for v, w in pts)


@dataclass
class ConstantIncrement:
    value: float = 1.0

    def draw(self, s: RngStream) -> float:
        return self.value

    def draw_many(self, s: RngStream, n: int) -> np.ndarray:
        return np.full(n, self.value)

    @property
    def atom_points(self):
        return [(self.value, 1.0)]


@dataclass
class RademacherIncrement:
    """Fair +-1 coin."""

    def draw(self, s: RngStream) -> float:
        return 1.0 if s.next_uniform() < 0.5 else -1.0

    def draw_many(self, s: RngStream, n: int) -> np.ndarray:
        return np.where(s.uniforms(n) < 0.5, 1.0, -1.0)

    @property
    def atom_points(self):
        return [(-1.0, 0.5), (1.0, 0.5)]


@dataclass
class NormalIncrement:
    mean: float = 0.0
    var: float = 1.0

    def draw(self, s: RngStream) -> float:
        return self.mean + math.sqrt(self.var) * s.next_standard_normal()

    def draw_many(self, s: RngStream, n: int) -> np.ndarray:
        return self.mean + math.sqrt(self.var) * s.standard_normals(n)


@dataclass
class StableIncrement:
    """Exactly alpha-stable increments: the heavy-tailed walk."""

    alpha: float
    skew: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (0 < self.alpha <= 2):
            raise ValueError("alpha must be in (0, 2]")

    def draw(self, s: RngStream) -> float:
        return s.next_stable(self.alpha, self.skew, self.scale)

    def draw_many(self, s: RngStream, n: int) -> np.ndarray:
        return s.stables(self.alpha, n, self.skew, self.scale)


def walk_kernel_constant(value: float = 1.0) -> RandomWalkKernel:
    return RandomWalkKernel(ConstantIncrement(value), mean=value, cov=0.0)


def walk_kernel_rademacher() -> RandomWalkKernel:
    return RandomWalkKernel(RademacherIncrement(), mean=0.0, cov=1.0)


def walk_kernel_normal(mean: float = 0.0, var: float = 1.0) -> RandomWalkKernel:
    return RandomWalkKernel(NormalIncrement(mean, var), mean=mean, cov=var)


def walk_kernel_stable(alpha: float, skew: float = 0.0, scale: float = 1.0) -> RandomWalkKernel:
    """Infinite variance; a finite mean (0) only when alpha > 1 and symmetric."""
    mean = 0.0 if (alpha > 1 and skew == 0.0) else None
    return RandomWalkKernel(StableIncrement(alpha, skew, scale), mean=mean, cov=math.inf)


class MMInfQueueKernel(ReplacementKernel):
    """Birth-death moves of the M/M/infinity queue on the non-negative
    integers: up with rate weight lambda, down with rate weight x * mu."""

    def __init__(self, lam: float, mu: float):
        if lam <= 0 or mu <= 0:
            raise ValueError("lambda and mu must be positive")
        self.lam = lam
        self.mu = mu

    def _check(self, x):
        if not (isinstance(x, int) and x >= 0):
            raise ValueError(f"queue length must be a non-negative integer, got {x!r}")

    def p_up(self, x: int) -> float:
        self._check(x)
        if x == 0:
            return 1.0
        return self.lam / (self.lam + x * self.mu)

    def sample(self, x, s: RngStream) -> int:
        up = self.p_up(x)
        return x + 1 if s.next_uniform() < up else x - 1

    def atoms(self, x) -> AtomicMeasure:
        up = self.p_up(x)
        if up >= 1.0:
            return AtomicMeasure([(x + 1, 1.0)])
        return AtomicMeasure([(x + 1, up), (x - 1, 1.0 - up)])


class KDiscreteKernel(ReplacementKernel):
    """Without-replacement urns: drawing x contributes kappa atoms
    y_1(x), ..., y_kappa(x), each a ball of weight 1/kappa."""

    def __init__(self, kappa: int, atom_fn):
        if kappa < 2:
            raise ValueError("kappa must be >= 2")
        self.kappa = kappa
        self.atom_fn = atom_fn

    @classmethod
    def from_offsets(cls, offsets) -> "KDiscreteKernel":
        offs = tuple(int(o) for o in offsets)
        return cls(len(offs), lambda x: tuple(x + o for o in offs))

    def atom_tuple(self, x) -> tuple:
        ys = tuple(self.atom_fn(x))
        if len(ys) != self.kappa:
            raise ValueError(
                f"atom function returned {len(ys)} colours, expected {self.kappa}"
            )
        return ys

    def sample(self, x, s: RngStream):
        ys = self.atom_tuple(x)
        return ys[int(s.next_uniform() * self.kappa)]

    def atoms(self, x) -> AtomicMeasure:
        ys = self.atom_tuple(x)
        return AtomicMeasure((y, 1.0 / self.kappa) for y in ys)


def sym_shuffle(atoms, s: RngStream, kappa: int | None = None) -> tuple:
    """A uniformly random ordering of the atom tuple."""
    atoms = tuple(atoms)
    if kappa is not None and len(atoms) != kappa:
        raise ValueError(f"expected {kappa} atoms, got {len(atoms)}")
    return tuple(s.shuffled(list(atoms)))


def companion_chain(k: ReplacementKernel, x0, n: int, s: RngStream) -> list:
    """Trajectory W_0..W_n of the colour Markov chain with kernel R."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out = [x0]
    x = x0
    for _ in range(n):
        x = k.sample(x, s)
        out.append(x)
    return out


def validate_declared_moments(k: RandomWalkKernel, s: RngStream, n: int = 1_000_000) -> dict:
    """Cross-check a walk kernel's declared mean and variance on n draws.

    Raises if a declared moment sits more than 3 standard errors from its
    empirical counterpart.
    """
    draws = np.asarray(k.increment.draw_many(s, n), dtype=float)
    emp_mean = float(draws.mean())
    emp_var = float(draws.var())
    se_mean = math.sqrt(emp_var / n)
    if abs(emp_mean - k.mean) > 3 * se_mean + 1e-12:
        raise ValueError(f"declared mean {k.mean} off by more than 3 SE (empirical {emp_mean:.5f})")
    m4 = float(np.mean((draws - emp_mean) ** 4))
    se_var = math.sqrt(max(m4 - emp_var**2, 0.0) / n)
    if abs(emp_var - k.cov) > 3 * se_var + 1e-12:
        raise ValueError(f"declared variance {k.cov} off by more than 3 SE (empirical {emp_var:.5f})")
    return {"n": n, "emp_mean": emp_mean, "emp_var": emp_var}


def leading_eigenpair(R, tol: float = 1e-12, max_iter: int = 100_000) -> tuple:
    """Perron eigenvalue and left eigenvector of an irreducible non-negative
    matrix, by power iteration on the transpose; v1 has unit L1 norm."""
    R = np.asarray(R, dtype=float)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("R must be square")
    if np.any(R < 0):
        raise ValueError("R must be non-negative")
    d = R.shape[0]
    # irreducibility: (I + A)^(d-1) must be positive, A the support pattern
    reach = (np.eye(d, dtype=bool) | (R > 0))
    closure = np.linalg.matrix_power(reach.astype(int), max(d - 1, 1)) > 0
    if not closure.all():
        raise ValueError("R is reducible")
    # deliberately asymmetric start so periodic inputs oscillate instead of
    # landing on a symmetric fixed point
    x = np.arange(1.0, d + 1.0)
    x /= x.sum()
    lam = 1.0
    for _ in range(max_iter):
        y = R.T @ x
        lam = float(np.sum(np.abs(y)))
        if lam == 0:
            raise ValueError("R annihilates the positive cone")
        y /= lam
        if float(np.max(np.abs(y - x))) < tol:
            return lam, y
        x = y
    raise ValueError("power iteration did not converge (periodic matrix?)")


# ---------------------------------------------------------------------------
# renormalisation plans
# ---------------------------------------------------------------------------


@dataclass
class RenormalisationPlan:
    """Scaling recipe (a(n), b(n)) for the companion chain together with the
    limit function f and the reference law G of the chain's rescaled limit;
    the urn's rescaled limit is G + f(L), L ~ N(0,1) independent of G.

    claimed=True marks user-supplied plans whose ergodicity hypothesis is
    asserted, not verified; reports echo the flag.
    """

    name: str
    a: object  # n -> positive float
    b: object  # n -> float
    f: object  # x -> float
    gamma_reference: object
    claimed: bool = False


def plan_brw(mean: float = 0.0, var: float = 1.0) -> RenormalisationPlan:
    """Walk with finite variance: a = sqrt(n), b = mean * n; the rescaled
    urn converges to Normal(0, var + mean^2)."""
    return RenormalisationPlan(
        name="brw",
        a=lambda n: math.sqrt(n),
        b=lambda n: mean * n,
        f=lambda x: mean * x,
        gamma_reference=stats.Normal(0.0, var),
    )


def plan_ergodic(gamma_law, claimed: bool = False) -> RenormalisationPlan:
    """No rescaling: an ergodic chain's stationary law is the urn limit."""
    return RenormalisationPlan(
        name="ergodic",
        a=lambda n: 1.0,
        b=lambda n: 0.0,
        f=lambda x: 0.0,
        gamma_reference=gamma_law,
        claimed=claimed,
    )


def plan_stable(alpha: float) -> RenormalisationPlan:
    """Heavy-tailed walk: a = n^(1/alpha), b = 0; the route scores the Hill
    exponent of the rescaled samples, which no centring changes."""
    if not (0 < alpha < 2):
        raise ValueError("stable plan needs alpha in (0, 2)")
    return RenormalisationPlan(
        name="stable",
        a=lambda n: n ** (1.0 / alpha),
        b=lambda n: 0.0,
        f=lambda x: 0.0,
        gamma_reference=stats.StableLaw(alpha),
    )


def plan_kdiscrete_shift() -> RenormalisationPlan:
    """Deterministic +1 shift under without-replacement dynamics; the
    companion walk is degenerate and the urn limit is standard normal."""
    plan = plan_brw(mean=1.0, var=0.0)
    plan.name = "kdiscrete-shift"
    plan.gamma_reference = stats.PointMass(0.0)
    return plan

