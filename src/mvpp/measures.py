"""Finite atomic measures on colour spaces and the complex-analytic series.

Colours are plain Python scalars: an int in [0, d) for a finite palette, a
signed int for the lattice, a float for the real line.  There are no vector
colours; the one planar walk (verify's d = 2 projection check) is carried as
complex numbers in arrays and never becomes a measure.  Continuous urn
states are never materialised as atoms; only finitely-atomic objects and
sample lists live here.
"""

from __future__ import annotations

import bisect
import cmath
from dataclasses import dataclass

import numpy as np

from .randomness import RngStream

FINITE = "finite"
REAL = "real"


class AtomicMeasure:
    """Finite non-negative measure as weighted atoms.

    Atoms with bit-identical colours are merged on construction; no epsilon
    merging ever happens, which keeps mass bookkeeping exact.
    """

    __slots__ = ("_atoms", "total_mass")

    def __init__(self, atoms):
        merged: dict = {}
        for colour, weight in atoms:
            w = float(weight)
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w}")
            merged[colour] = merged.get(colour, 0.0) + w
        self._atoms = merged
        self.total_mass = float(sum(merged.values()))

    def atoms(self) -> list:
        """Atoms as (colour, weight), sorted by colour for determinism."""
        return sorted(self._atoms.items())

    def weight(self, colour) -> float:
        return self._atoms.get(colour, 0.0)

    def __len__(self):
        return len(self._atoms)

    def __eq__(self, other):
        return isinstance(other, AtomicMeasure) and self._atoms == other._atoms

    def __repr__(self):
        inside = " + ".join(f"{w:g}*d[{c}]" for c, w in self.atoms())
        return f"AtomicMeasure({inside})"

    def close_to(self, other: "AtomicMeasure", tol: float = 1e-12) -> bool:
        keys = set(self._atoms) | set(other._atoms)
        return all(abs(self.weight(k) - other.weight(k)) <= tol for k in keys)

    def scaled(self, factor: float) -> "AtomicMeasure":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return AtomicMeasure((c, w * factor) for c, w in self._atoms.items())


def normalize(mu: AtomicMeasure) -> AtomicMeasure:
    """Probability measure proportional to mu."""
    if mu.total_mass <= 0:
        raise ValueError("cannot normalize null measure")
    return mu.scaled(1.0 / mu.total_mass)


def sample_atom(mu: AtomicMeasure, s: RngStream):
    """One colour drawn with probability weight / total_mass."""
    if mu.total_mass <= 0:
        raise ValueError("cannot sample from null measure")
    items = mu.atoms()
    if len(items) == 1:
        return items[0][0]
    cum = []
    acc = 0.0
    for _, w in items:
        acc += w
        cum.append(acc)
    u = s.next_uniform() * acc
    i = bisect.bisect_right(cum, u)
    if i >= len(items):
        i = len(items) - 1
    return items[i][0]


@dataclass(frozen=True)
class Rescaling:
    """Affine rescaling x -> (x - b) / a pushed forward onto measures."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("scale a must be positive")

    def apply(self, x):
        return (x - self.b) / self.a


def theta_rescale(samples, r: Rescaling, kind: str = REAL) -> list:
    """Rescale sample colours by (x - b) / a, keeping weights.

    Finite palettes carry no algebra, so anything other than the identity
    rescaling is rejected for kind="finite"; lattice colours map into reals.
    """
    if kind == FINITE and (r.a != 1 or r.b != 0):
        raise ValueError("finite colour space admits only the identity rescaling")
    if r.a == 1 and (r.b == 0 or r.b == 0.0):
        return list(samples)
    return [(r.apply(c), w) for c, w in samples]


# ---------------------------------------------------------------------------
# the product function Z_n and the empirical Fourier machinery
# ---------------------------------------------------------------------------


def z_n(n: int, x: complex) -> complex:
    """prod_{j=1..n} ((j-1)/j + x/j), in log space.

    A real x, or a complex x with zero imaginary part, sums real logs of
    |factor| and takes the sign (-1)^(negative factors).  Any other x divides
    its real and imaginary parts by j apart, so each factor's real part is the
    real path's, and sums principal logs, accurate for Re(x) > 0 (every factor
    then lies in the right half plane, so no branch jumps).  A factor that is
    exactly zero makes the whole product exactly zero."""
    if n < 0:
        raise ValueError("n must be >= 0")
    x = complex(x)
    j = np.arange(1, n + 1, dtype=float)
    factors = (j - 1.0 + x.real) / j
    if x.imag:
        factors = factors + 1j * (x.imag / j)
    if not factors.all():
        return 0.0 + 0.0j
    if x.imag:
        return complex(np.exp(np.sum(np.log(factors))))
    return complex((-1.0) ** np.count_nonzero(factors < 0) * np.exp(np.sum(np.log(np.abs(factors)))))


def empirical_f_n(labels, theta, m) -> complex:
    """Rescaled empirical Fourier transform of n+1 scalar labels at theta:
    Z_n(e^{-i m theta}) times the average of e^{i theta X_k}."""
    arr = np.asarray(labels, dtype=float)
    if arr.size == 0:
        raise ValueError("labels must be nonempty")
    avg = complex(np.mean(np.exp(1j * (arr * float(theta)))))
    return z_n(arr.size - 1, cmath.exp(-1j * (float(m) * float(theta)))) * avg


def expected_f_n(n: int, theta, m, phi) -> complex:
    """Closed form for E[F_n] when the walk starts from a point mass at 0:
    Z_n(e^{-i m theta}) Z_n(Phi(theta) + 1) / (n + 1)."""
    return z_n(n, cmath.exp(-1j * (float(m) * float(theta)))) * z_n(n, phi(theta) + 1.0) / (n + 1)


def t_n(labels, theta, m, phi) -> complex:
    """Mean-normalised transform F_n / E[F_n]; a martingale in n."""
    arr = np.asarray(labels, dtype=float)
    n = arr.shape[0] - 1
    denom = expected_f_n(n, theta, m, phi)
    if denom == 0:
        raise ZeroDivisionError(f"E[F_n] vanishes at n={n}, theta={theta}")
    return empirical_f_n(labels, theta, m) / denom


def pbar_recursion(n: int, z1: complex, z2: complex, phi, m0_cf=None) -> complex:
    """Second moment E[fbar_n(z1) fbar_n(z2)] by exact recursion.

    fbar_n(z) = sum_k e^{i z X_k} over the n+1 labels.  The recursion is
       Pbar_{j+1} = Pbar_j * (1 + (Phi(z1)+Phi(z2))/(j+1))
                    + Z_j(Phi(z1+z2)+1) * cf0(z1+z2) * Phi(z1+z2) / (j+1)
    started from Pbar_0 = cf0(z1+z2), where cf0 is the characteristic
    function of the initial colour (identically 1 for a point mass at 0).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    cf0 = m0_cf if m0_cf is not None else (lambda z: 1.0 + 0.0j)
    z12 = z1 + z2
    phi1, phi2, phi12 = phi(z1), phi(z2), phi(z12)
    c0 = complex(cf0(z12))
    pbar = c0
    zj = 1.0 + 0.0j  # Z_j(Phi(z1+z2)+1), updated incrementally
    w = phi12 + 1.0
    for j in range(n):
        alpha = 1.0 + (phi1 + phi2) / (j + 1)
        beta = zj * c0 * phi12 / (j + 1)
        pbar = pbar * alpha + beta
        zj *= (j + w) / (j + 1)
    return pbar


def measure_to_csv_lines(mu: AtomicMeasure) -> list:
    """CSV lines colour_component_1,weight, one row per atom."""
    return ["colour_component_1,weight"] + [f"{float(c)!r},{w!r}" for c, w in mu.atoms()]
