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
import math
from dataclasses import dataclass

import numpy as np

from .contracts import require
from .numerics import log_sum_exp, log_sum_exp_rows

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


@dataclass(frozen=True)
class LogitRow:
    """Cosine logits for one sample: cos(theta) per class, label, and scale."""

    cosines: np.ndarray
    label: int
    scale: float

    def __post_init__(self):
        c = np.asarray(self.cosines, dtype=np.float64)
        require(c.ndim == 1 and c.size >= 1, "LogitRow: cosines must be a non-empty vector")
        require(bool((np.abs(c) <= 1.0).all()), "LogitRow: cosines must lie in [-1, 1]")
        require(0 <= self.label < c.size, "LogitRow: label out of range")
        require(self.scale > 0, "LogitRow: scale must be positive")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "cosines", c)


def _theta(cos_y):
    return np.arccos(np.clip(cos_y, -1.0 + ARCCOS_GUARD, 1.0 - ARCCOS_GUARD))


def margin_transform(spec: MarginSpec, cos_y: float) -> float:
    """The margin value f that replaces the target cosine."""
    require(-1.0 <= cos_y <= 1.0, "margin_transform: cos_y must lie in [-1, 1]")
    require(spec.kind is not MarginKind.UNIFIED, "margin_transform: unified spec has no margin function")
    if spec.kind is MarginKind.PLAIN:
        return float(cos_y)
    if spec.kind is MarginKind.ADDITIVE:
        return float(cos_y - spec.m3)
    theta = float(_theta(cos_y))
    if spec.kind is MarginKind.ANGULAR:
        return math.cos(spec.m1 * theta)
    if spec.kind is MarginKind.ADDITIVE_ANGULAR:
        return math.cos(theta + spec.m2)
    return math.cos(spec.m1 * theta + spec.m2) - spec.m3


def margin_transform_batch(spec: MarginSpec, cos_y: np.ndarray) -> np.ndarray:
    """Vectorized margin_transform over a vector of target cosines."""
    require(spec.kind is not MarginKind.UNIFIED, "margin_transform_batch: unified spec has no margin function")
    c = np.asarray(cos_y, dtype=np.float64)
    if spec.kind is MarginKind.PLAIN:
        return c.copy()
    if spec.kind is MarginKind.ADDITIVE:
        return c - spec.m3
    theta = _theta(c)
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


def _log_target_probability(z: np.ndarray, label: int) -> float:
    """log of softmax(z)[label], shifted by the target logit.

    The target shift keeps log p (and therefore 1 - p) at relative
    precision when p approaches 1; a max shift only bounds the absolute
    error.  Falls back to the max shift when the spread could overflow.
    """
    shifted = z - z[label]
    if shifted.max() < 500.0:
        others = np.delete(shifted, label)
        return float(-np.log1p(np.exp(others).sum()))
    return float(z[label] - log_sum_exp(z))


def log_softmax_probability(row: LogitRow) -> float:
    """log p for the target class under scaled cosine logits."""
    z = row.scale * row.cosines
    return _log_target_probability(z, row.label)


def softmax_probability(row: LogitRow) -> float:
    """Target-class softmax probability p, in (0, 1]."""
    return math.exp(log_softmax_probability(row))


def log_margin_probability(spec: MarginSpec, row: LogitRow) -> float:
    """log p_m with the target logit replaced by the margin value."""
    require(spec.kind is not MarginKind.UNIFIED, "margin_probability: unified spec bypasses the margin function")
    z = row.scale * row.cosines
    z = z.copy()
    z[row.label] = row.scale * margin_transform(spec, float(row.cosines[row.label]))
    return _log_target_probability(z, row.label)


def margin_probability(spec: MarginSpec, row: LogitRow) -> float:
    """Target-class probability after the margin transform, in (0, 1]."""
    return math.exp(log_margin_probability(spec, row))


def modulating_factor(spec: MarginSpec, cos_y: float, s: float) -> float:
    """a = 1 - exp(s * (cos_y - f)).

    Zero for the plain margin, negative for any margin that lowers the
    target logit.  Angular margins can produce a positive value at large
    angles; it is returned as computed.
    """
    f = margin_transform(spec, cos_y)
    return 1.0 - math.exp(s * (cos_y - f))


def modulating_function(a: float, p: float) -> float:
    """h(a, p) = 1 / (a*p + (1 - a)); in (0, 1] for a <= 0, p in (0, 1]."""
    require(a <= 0, "modulating_function: factor a must be <= 0")
    # Grouped as 1 - a*(1 - p): a*p + (1 - a) cancels to 0.0 at p == 1
    # once |a| exceeds 2**53.
    return 1.0 / (1.0 - a * (1.0 - p))


def unified_loss(a: float, row: LogitRow) -> float:
    """-log(h(a, p) * p); equals the plain cross-entropy at a = 0."""
    require(a <= 0, "unified_loss: factor a must be <= 0")
    log_p = log_softmax_probability(row)
    # 1 - p via expm1: the linear-domain subtraction loses the a-term
    # entirely once p rounds to 1.
    one_minus_p = -math.expm1(log_p)
    return -log_p + math.log1p(-a * one_minus_p)


def unified_loss_gradient(a: float, row: LogitRow) -> np.ndarray:
    """Exact gradient of unified_loss with respect to each cosine logit.

    The chain rule through dL/dp = -1/p + a/(a*p + 1 - a) and the softmax
    Jacobian collapses to s * (p_k - delta_ky) * (1 - a) / (1 - a*(1 - p)),
    which stays finite even when p underflows.
    """
    require(a <= 0, "unified_loss_gradient: factor a must be <= 0")
    losses, dcos = batch_loss_and_grad(
        MarginSpec.unified(a),
        row.cosines[None, :],
        np.array([row.label]),
        row.scale,
    )
    return dcos[0]


def margin_loss(spec: MarginSpec, row: LogitRow) -> float:
    """-log(margin_probability), evaluated in the log domain."""
    return -log_margin_probability(spec, row)


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


def batch_loss_and_grad(spec: MarginSpec, cosines: np.ndarray, labels: np.ndarray, scale: float):
    """Per-sample losses and exact d loss / d cosine for an (N, K) batch.

    Plain specs are routed through the unified a = 0 path, which is the same
    computation and keeps the two spellings bit-identical.
    """
    c = np.asarray(cosines, dtype=np.float64)
    y = np.asarray(labels)
    require(c.ndim == 2, "batch_loss_and_grad: cosines must be (N, K)")
    require(y.shape == (c.shape[0],), "batch_loss_and_grad: labels must match batch size")
    require(scale > 0, "batch_loss_and_grad: scale must be positive")
    idx = np.arange(c.shape[0])

    if spec.kind in (MarginKind.UNIFIED, MarginKind.PLAIN):
        a = spec.a if spec.kind is MarginKind.UNIFIED else 0.0
        log_p, one_minus_p, q = _row_softmax_stats(scale * c, y)
        losses = -log_p + np.log1p(-a * one_minus_p)
        factor = (1.0 - a) / (1.0 - a * one_minus_p)
        q *= scale
        q *= factor[:, None]
        q[idx, y] = -scale * one_minus_p * factor
        return losses, q

    cos_y = c[idx, y]
    f = margin_transform_batch(spec, cos_y)
    slope = _margin_slope(spec, cos_y)
    z = scale * c
    z[idx, y] = scale * f
    log_p, one_minus_p, q = _row_softmax_stats(z, y)
    losses = -log_p
    q *= scale
    q[idx, y] = -scale * one_minus_p * slope
    return losses, q
