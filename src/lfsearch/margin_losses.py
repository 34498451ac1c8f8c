"""Margin-softmax loss mathematics.

The classic margin families (multiplicative-angular, additive-angular,
additive, and their combination) all act by replacing the target logit
cos(theta_y) with a margin value f <= cos(theta_y).  Every such family is
equivalent to multiplying the plain softmax probability p by a modulating
function

    h(a, p) = 1 / (a * p + (1 - a)),    a = 1 - exp(s * (cos(theta_y) - f)),

with a non-positive factor a.  The unified loss -log(h(a, p) * p) therefore
spans the whole family with a single scalar, which is what the search
optimizes over.

Everything here is evaluated in the log domain so scale values like s = 64
cannot overflow, and gradients are exact closed forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .contracts import require
from .numerics import log_sum_exp_rows

# arccos inputs are clamped away from +-1 where the derivative blows up.
ARCCOS_GUARD = 1e-7


class MarginKind(enum.Enum):
    PLAIN = "plain"
    ANGULAR = "angular"
    ADDITIVE_ANGULAR = "additive-angular"
    ADDITIVE = "additive"
    COMBINED = "combined"
    UNIFIED = "unified"


@dataclass(frozen=True)
class MarginSpec:
    """Tagged selection of a loss family.

    m1 is the integer angle multiplier, m2 the additive angle (radians),
    m3 the additive cosine margin, and a the unified modulating factor.
    Unused parameters sit at their neutral values.
    """

    kind: MarginKind
    m1: int = 1
    m2: float = 0.0
    m3: float = 0.0
    a: float = 0.0

    def __post_init__(self):
        require(isinstance(self.kind, MarginKind), "MarginSpec: bad kind")
        if self.kind is MarginKind.ANGULAR:
            require(int(self.m1) == self.m1 and self.m1 >= 1, "MarginSpec: m1 must be an integer >= 1")
        elif self.kind is MarginKind.ADDITIVE_ANGULAR:
            require(self.m2 > 0, "MarginSpec: m2 must be positive")
        elif self.kind is MarginKind.ADDITIVE:
            require(self.m3 > 0, "MarginSpec: m3 must be positive")
        elif self.kind is MarginKind.COMBINED:
            require(int(self.m1) == self.m1 and self.m1 >= 1, "MarginSpec: m1 must be an integer >= 1")
            require(self.m2 >= 0 and self.m3 >= 0, "MarginSpec: m2 and m3 must be non-negative")
        elif self.kind is MarginKind.UNIFIED:
            require(self.a <= 0, "MarginSpec: unified factor a must be <= 0")

    @classmethod
    def plain(cls) -> "MarginSpec":
        return cls(MarginKind.PLAIN)

    @classmethod
    def angular(cls, m1: int) -> "MarginSpec":
        return cls(MarginKind.ANGULAR, m1=m1)

    @classmethod
    def additive_angular(cls, m2: float) -> "MarginSpec":
        return cls(MarginKind.ADDITIVE_ANGULAR, m2=m2)

    @classmethod
    def additive(cls, m3: float) -> "MarginSpec":
        return cls(MarginKind.ADDITIVE, m3=m3)

    @classmethod
    def combined(cls, m1: int, m2: float, m3: float) -> "MarginSpec":
        return cls(MarginKind.COMBINED, m1=m1, m2=m2, m3=m3)

    @classmethod
    def unified(cls, a: float) -> "MarginSpec":
        return cls(MarginKind.UNIFIED, a=a)


def margin_transform_batch(spec: MarginSpec, cos_y: np.ndarray) -> np.ndarray:
    """The margin value f that replaces each target cosine."""
    require(spec.kind is not MarginKind.UNIFIED, "margin_transform_batch: unified spec has no margin function")
    c = np.asarray(cos_y, dtype=np.float64)
    if spec.kind is MarginKind.PLAIN:
        return c.copy()
    if spec.kind is MarginKind.ADDITIVE:
        return c - spec.m3
    theta = np.arccos(np.clip(c, -1.0 + ARCCOS_GUARD, 1.0 - ARCCOS_GUARD))
    if spec.kind is MarginKind.ANGULAR:
        return np.cos(spec.m1 * theta)
    if spec.kind is MarginKind.ADDITIVE_ANGULAR:
        return np.cos(theta + spec.m2)
    return np.cos(spec.m1 * theta + spec.m2) - spec.m3


def _margin_slope(spec: MarginSpec, cos_y: np.ndarray) -> np.ndarray:
    """d f / d cos_y, using the clamped theta (exact where the clamp is inactive)."""
    c = np.asarray(cos_y, dtype=np.float64)
    if spec.kind in (MarginKind.PLAIN, MarginKind.ADDITIVE):
        return np.ones_like(c)
    cc = np.clip(c, -1.0 + ARCCOS_GUARD, 1.0 - ARCCOS_GUARD)
    theta = np.arccos(cc)
    sin_theta = np.sqrt(1.0 - cc * cc)
    if spec.kind is MarginKind.ANGULAR:
        return spec.m1 * np.sin(spec.m1 * theta) / sin_theta
    if spec.kind is MarginKind.ADDITIVE_ANGULAR:
        return np.sin(theta + spec.m2) / sin_theta
    return spec.m1 * np.sin(spec.m1 * theta + spec.m2) / sin_theta


def modulating_function(a: float, p: float) -> float:
    """h(a, p) = 1 / (a*p + (1 - a)); in (0, 1] for a <= 0, p in (0, 1]."""
    require(a <= 0, "modulating_function: factor a must be <= 0")
    # Grouped as 1 - a*(1 - p): a*p + (1 - a) cancels to 0.0 at p == 1
    # once |a| exceeds 2**53.
    return 1.0 / (1.0 - a * (1.0 - p))


def _row_softmax_stats(z: np.ndarray, y: np.ndarray):
    """log p, 1 - p, and off-target probabilities for each row of z.

    Rows are shifted by the target logit, which keeps log p and 1 - p at
    relative precision when the target dominates; a max shift only bounds
    the absolute error.  Rows whose spread could overflow under the target
    shift fall back to the max-shift form.  z is overwritten: it becomes the
    returned off-target probabilities.
    """
    idx = np.arange(z.shape[0])
    target = z[idx, y]
    # Rounding is monotone, so this is the max of the target-shifted row.
    wide = z.max(axis=1) - target >= 500.0
    zw = z[wide]
    q = z
    np.subtract(q, target[:, None], out=q)
    np.minimum(q, 500.0, out=q)
    np.exp(q, out=q)
    q[idx, y] = 0.0
    others = q.sum(axis=1)
    log_p = -np.log1p(others)
    q /= (1.0 + others)[:, None]
    if wide.any():
        yw = y[wide]
        iw = np.arange(zw.shape[0])
        lse = log_sum_exp_rows(zw)
        log_p[wide] = zw[iw, yw] - lse
        qw = np.exp(zw - lse[:, None])
        qw[iw, yw] = 0.0
        q[wide] = qw
    return log_p, -np.expm1(log_p), q


def batch_loss_and_grad(spec: MarginSpec, cosines: np.ndarray, labels: np.ndarray, scale: float,
                        out=None):
    """Per-sample losses and exact d loss / d cosine for an (N, K) batch.

    The gradient is built in `out`, an (N, K) float64 array that must not
    overlap the cosines (None: a new array), and returned. Plain specs are
    routed through the unified a = 0 path, which is the same computation
    and keeps the two spellings bit-identical.
    """
    c = np.asarray(cosines, dtype=np.float64)
    y = np.asarray(labels)
    require(c.ndim == 2, "batch_loss_and_grad: cosines must be (N, K)")
    require(y.shape == (c.shape[0],), "batch_loss_and_grad: labels must match batch size")
    require(scale > 0, "batch_loss_and_grad: scale must be positive")
    require(out is None or out.shape == c.shape, "batch_loss_and_grad: out must be (N, K)")
    z = np.multiply(scale, c, out=out)
    idx = np.arange(c.shape[0])

    if spec.kind in (MarginKind.UNIFIED, MarginKind.PLAIN):
        a = spec.a if spec.kind is MarginKind.UNIFIED else 0.0
        log_p, one_minus_p, q = _row_softmax_stats(z, y)
        losses = -log_p + np.log1p(-a * one_minus_p)
        factor = (1.0 - a) / (1.0 - a * one_minus_p)
        q *= scale
        q *= factor[:, None]
        q[idx, y] = -scale * one_minus_p * factor
        return losses, q

    cos_y = c[idx, y]
    f = margin_transform_batch(spec, cos_y)
    slope = _margin_slope(spec, cos_y)
    z[idx, y] = scale * f
    log_p, one_minus_p, q = _row_softmax_stats(z, y)
    losses = -log_p
    q *= scale
    q[idx, y] = -scale * one_minus_p * slope
    return losses, q
