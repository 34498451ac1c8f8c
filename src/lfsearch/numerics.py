"""Deterministic numerical primitives: stable reductions, normalization,
and a seeded splittable random stream.

All arithmetic is 64-bit floating point.  Randomness is counter-based
(Philox) and keyed by a (seed, label path) pair, so any consumer can derive
its own stream and the draws never depend on scheduling or call order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .contracts import require

# Guard for normalizing (near-)zero vectors.
NORM_EPSILON = 1e-12

_U64_MAX = (1 << 64) - 1


def log_sum_exp_rows(matrix: np.ndarray) -> np.ndarray:
    """log(sum(exp(z))) of each row of an (N, K) array, with the row max
    subtracted first, so finite for any finite input whatever its magnitude."""
    z = np.asarray(matrix, dtype=np.float64)
    require(z.ndim == 2 and z.shape[1] > 0, "log_sum_exp_rows: need a non-empty 2-d array")
    m = z.max(axis=1, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=1, keepdims=True)))[:, 0]


def l2_normalize_rows(m: np.ndarray, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """Each row of an (N, d) array over max(||row||, epsilon); the epsilon
    guard keeps a zero row at zero."""
    m = np.asarray(m, dtype=np.float64)
    require(epsilon > 0, "l2_normalize_rows: epsilon must be positive")
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, epsilon)


@dataclass(frozen=True)
class RngStream:
    """Immutable handle to a deterministic random stream.

    Two streams with the same (seed, label) produce identical draws; streams
    with different labels are statistically independent.  Derive sub-streams
    with child() instead of drawing twice from the same handle.
    """

    seed: int
    label: str = ""

    def __post_init__(self):
        require(0 <= self.seed <= _U64_MAX, "RngStream: seed must fit in 64 unsigned bits")

    def child(self, label: str) -> "RngStream":
        path = f"{self.label}/{label}" if self.label else label
        return RngStream(self.seed, path)

    def generator(self) -> np.random.Generator:
        """A fresh generator for this (seed, label); same stream every call."""
        digest = hashlib.blake2b(
            self.label.encode("utf-8"),
            digest_size=16,
            key=self.seed.to_bytes(8, "little"),
        ).digest()
        key = np.frombuffer(digest, dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def sample_gaussian(stream: RngStream, mu: float, sigma: float, n: int) -> np.ndarray:
    """n draws from N(mu, sigma^2), deterministic given the stream."""
    require(sigma > 0, "sample_gaussian: sigma must be positive")
    require(n >= 0, "sample_gaussian: n must be non-negative")
    return stream.generator().normal(mu, sigma, int(n))
