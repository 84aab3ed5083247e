"""Deterministic, splittable random streams.

Every stochastic routine in this package draws from an :class:`RngStream`
obtained through :func:`derive_stream`.  A stream is identified by the pair
``(root_seed, stream_id)``: the pair is used as the key of a counter-based
generator (Philox 4x64), so deriving the same pair always replays the same
sequence, and distinct stream ids give statistically independent sequences
without any coordination.  Parallel replicas should each derive their own
stream with ``stream_id = replica index``.

Reproducibility is promised per release of this package, not across
releases.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


class RngStream:
    """Single-owner random stream; see :func:`derive_stream`."""

    __slots__ = ("root_seed", "stream_id", "_gen")

    def __init__(self, root_seed: int, stream_id: int):
        self.root_seed = int(root_seed) & _MASK64
        self.stream_id = int(stream_id) & _MASK64
        key = np.array([self.root_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(root_seed={self.root_seed}, stream_id={self.stream_id})"

    # -- uniforms ---------------------------------------------------------
    def next_uniform(self) -> float:
        """One double in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, n: int) -> np.ndarray:
        """Vector of n doubles in [0, 1)."""
        return self._gen.random(n)

    def signs(self, n: int) -> np.ndarray:
        """Vector of n fair int8 signs read off ceil(n/64) raw 64-bit words:
        sign j is bit j % 64 of word j // 64, counting from the least
        significant bit, +1 where it is set and -1 where it is clear.  Raw
        words bypass the 32-bit half-word that integers() may keep buffered."""
        words = self._gen.bit_generator.random_raw(-(-n // 64))
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8), count=n, bitorder="little")
        out = bits.view(np.int8)
        out <<= 1
        out -= 1
        return out

    def integers(self, low: int, high: int, size=None, dtype=np.int64):
        """Uniform integers in [low, high) of `dtype` by numpy's Lemire
        method; a scalar when size is None.  A range that fits in 32 bits is
        drawn off 32-bit half-words of the raw 64-bit words, in every dtype:
        one value a half-word, or two for int16.  A word's unused half stays
        buffered in the generator for the next such draw; signs() and
        uniforms() read whole words and bypass that buffer."""
        out = self._gen.integers(low, high, size=size, dtype=dtype)
        return int(out) if size is None else out

    # -- named families ---------------------------------------------------
    def next_standard_normal(self) -> float:
        return float(self._gen.standard_normal())

    def standard_normals(self, n: int) -> np.ndarray:
        return self._gen.standard_normal(n)

    def next_gamma(self, shape: float) -> float:
        """Gamma(shape, 1) by exact rejection sampling."""
        if shape <= 0:
            raise ValueError(f"gamma shape must be positive, got {shape}")
        return float(self._gen.gamma(shape))

    def gammas(self, shape: float, n: int) -> np.ndarray:
        if shape <= 0:
            raise ValueError(f"gamma shape must be positive, got {shape}")
        return self._gen.gamma(shape, size=n)

    def next_stable(self, alpha: float, skew: float = 0.0, scale: float = 1.0) -> float:
        return float(self.stables(alpha, 1, skew=skew, scale=scale)[0])

    def stables(self, alpha: float, n: int, skew: float = 0.0, scale: float = 1.0) -> np.ndarray:
        """Exact alpha-stable variates via the Chambers-Mallows-Stuck transform.

        S1 parametrisation, zero shift.  ``alpha = 2`` reduces to a centred
        normal with variance ``2 * scale**2``.
        """
        if not (0 < alpha <= 2):
            raise ValueError(f"alpha must be in (0, 2], got {alpha}")
        if not (-1 <= skew <= 1):
            raise ValueError(f"skew must be in [-1, 1], got {skew}")
        v = math.pi * (self.uniforms(n) - 0.5)
        w = -np.log1p(-self.uniforms(n))
        if alpha == 1.0:
            half = math.pi / 2
            x = (2 / math.pi) * (
                (half + skew * v) * np.tan(v)
                - skew * np.log((w * np.cos(v)) / (half + skew * v))
            )
        else:
            t = skew * math.tan(math.pi * alpha / 2)
            b = math.atan(t) / alpha
            s = (1 + t * t) ** (1 / (2 * alpha))
            x = (
                s
                * np.sin(alpha * (v + b))
                / np.cos(v) ** (1 / alpha)
                * (np.cos(v - alpha * (v + b)) / w) ** ((1 - alpha) / alpha)
            )
        return scale * x

    def shuffled(self, items: list) -> list:
        """A uniformly random permutation of items (Fisher-Yates)."""
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = int(self.next_uniform() * (i + 1))
            out[i], out[j] = out[j], out[i]
        return out


def derive_stream(root_seed: int, stream_id: int) -> RngStream:
    """Deterministic stream keyed by (root_seed, stream_id).

    Same pair, same sequence; distinct stream ids are independent at the
    level enforced by the chi-square checks in the test suite.
    """
    return RngStream(root_seed, stream_id)
