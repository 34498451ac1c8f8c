"""Deterministic numerical primitives: stable reductions, normalization,
a seeded splittable random stream, reusable work arrays, and the BLAS
thread pin.

All arithmetic is 64-bit floating point.  Randomness is counter-based
(Philox) and keyed by a (seed, label path) pair, so any consumer can derive
its own stream and the draws never depend on scheduling or call order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

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


class Workspace:
    """Named arrays reused from call to call. A run makes one and passes it
    down, so every candidate and epoch writes the same arrays; a call given
    none makes its own."""

    def __init__(self):
        self._arrays = {}

    def array(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        """An uninitialised array of `shape`: the first shape[0] rows of the
        one held under `name`, reallocated when that holds fewer rows, or
        rows of another shape or dtype."""
        held = self._arrays.get(name)
        if (held is None or held.shape[0] < shape[0] or held.shape[1:] != shape[1:]
                or held.dtype != dtype):
            held = self._arrays[name] = np.empty(shape, dtype)
        return held[:shape[0]]


# Where numpy's Linux wheels bundle their OpenBLAS, next to the package.
_OPENBLAS_GLOB = "numpy.libs/libscipy_openblas64_*"
_pinned = False


@functools.cache
def _openblas():
    """numpy's bundled scipy-openblas through ctypes (the library numpy has
    loaded), or None when numpy bundles none with the thread-count calls."""
    for path in sorted(Path(np.__file__).resolve().parent.parent.glob(_OPENBLAS_GLOB)):
        try:
            lib = ctypes.CDLL(str(path))
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
        except (OSError, AttributeError):
            continue
        return lib
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's bundled OpenBLAS on one thread, then restore
    the thread count. A product split over threads can round differently
    from the one-thread product, so this makes results independent of
    OPENBLAS_NUM_THREADS. Without that library the body runs unpinned.

    The count is set, and later restored, only when it is not 1 already: in
    a process forked from a pinned one, OpenBLAS has shut its thread pool
    down, and the setter would start a pool thread that spins against the
    work."""
    global _pinned
    lib = _openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    if previous != 1:
        lib.scipy_openblas_set_num_threads64_(1)
    was_pinned, _pinned = _pinned, True
    try:
        yield
    finally:
        _pinned = was_pinned
        if previous != 1:
            lib.scipy_openblas_set_num_threads64_(previous)


def blas_environment() -> dict:
    """The numpy version, its BLAS build, the BLAS thread count in force
    (None when it cannot be read) and whether one_blas_thread pinned it."""
    config = getattr(np.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    lib = _openblas()
    return {"numpy": np.__version__,
            "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "blas_threads": None if lib is None else lib.scipy_openblas_get_num_threads64_(),
            "pinned": _pinned}
