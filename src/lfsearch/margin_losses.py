"""Margin-softmax loss mathematics.

The classic margin families (multiplicative-angular, additive-angular and
additive) all act by replacing the target logit cos(theta_y) with a margin
value f <= cos(theta_y).  The two angular families keep f <= cos(theta_y)
on the whole of [0, pi] through their published monotone forms: SphereFace's
psi(theta) = (-1)^k cos(m1 theta) - 2k on [k pi/m1, (k+1) pi/m1]
(arXiv:1704.08063), and ArcFace's cos(theta + m2), which falls back to
cos(theta) - m2 sin(m2) once theta + m2 reaches pi (arXiv:1801.07698).
Every such family is equivalent to multiplying the plain softmax
probability p by a modulating function

    h(a, p) = 1 / (a * p + (1 - a)),    a = 1 - exp(s * (cos(theta_y) - f)),

with a non-positive factor a.  The unified loss -log(h(a, p) * p) therefore
spans the whole family with a single scalar, which is what the search
optimizes over.  Conversely, h(a, p) * p is the softmax probability of the
target logit s * cos(theta_y) - log(1 - a): CosFace's additive margin
(arXiv:1801.09414) with m3 = log(1 - a) / s, which is how it is computed.

Everything here is evaluated in the log domain so scale values like s = 64
cannot overflow, and gradients are exact closed forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .contracts import require
from .numerics import log_sum_exp_rows

# arccos inputs are clamped away from +-1 where the derivative blows up.
ARCCOS_GUARD = 1e-7


class MarginKind(str, enum.Enum):
    PLAIN = "plain"
    ANGULAR = "angular"
    ADDITIVE_ANGULAR = "additive-angular"
    ADDITIVE = "additive"
    UNIFIED = "unified"


LOSS_ALIASES = {"am": "additive", "arc": "additive-angular"}
# The knobs each loss kind takes; the rest of a spec is unused.
LOSS_KNOBS = {MarginKind.PLAIN: (), MarginKind.ANGULAR: ("m1",),
              MarginKind.ADDITIVE_ANGULAR: ("m2",), MarginKind.ADDITIVE: ("m3",),
              MarginKind.UNIFIED: ("a",)}


@dataclass(frozen=True)
class MarginSpec:
    """Tagged selection of a loss family; the `loss` section of the config.

    m1 is the integer angle multiplier, m2 the additive angle (radians),
    m3 the additive cosine margin, and a the unified modulating factor.
    A kind reads and checks only its own knobs (LOSS_KNOBS); the others are
    unused, and hold the config defaults unless set.
    """

    kind: MarginKind = field(default=MarginKind.PLAIN, metadata={"aliases": LOSS_ALIASES})
    m1: int = 2
    m2: float = 0.5
    m3: float = 0.35
    a: float = 0.0

    def __post_init__(self):
        require(isinstance(self.kind, MarginKind), "MarginSpec: bad kind")
        if self.kind is MarginKind.ANGULAR:
            require(int(self.m1) == self.m1 and self.m1 >= 1, "MarginSpec: m1 must be an integer >= 1")
        elif self.kind is MarginKind.ADDITIVE_ANGULAR:
            require(self.m2 > 0, "MarginSpec: m2 must be positive")
        elif self.kind is MarginKind.ADDITIVE:
            require(self.m3 > 0, "MarginSpec: m3 must be positive")
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
    def unified(cls, a: float) -> "MarginSpec":
        return cls(MarginKind.UNIFIED, a=a)


def margin_transform_batch(spec: MarginSpec, cos_y: np.ndarray):
    """The margin value f <= cos_y that replaces each target cosine, and its
    slope d f / d cos_y at the clamped theta (exact where it is unclamped)."""
    require(spec.kind is not MarginKind.UNIFIED, "margin_transform_batch: unified spec has no margin function")
    c = np.asarray(cos_y, dtype=np.float64)
    if spec.kind is MarginKind.PLAIN:
        return c.copy(), np.ones_like(c)
    if spec.kind is MarginKind.ADDITIVE:
        return c - spec.m3, np.ones_like(c)
    cc = np.clip(c, -1.0 + ARCCOS_GUARD, 1.0 - ARCCOS_GUARD)
    theta = np.arccos(cc)
    sin_theta = np.sqrt(1.0 - cc * cc)
    if spec.kind is MarginKind.ANGULAR:
        m_theta = spec.m1 * theta
        k = np.floor(m_theta / np.pi)
        # psi touches cos(theta) only at theta = 0 and, for m1 = 1, everywhere;
        # the minimum keeps arccos and cos rounding from lifting f above c.
        # (-1)^k sin(m1 theta) on piece k is |sin(m1 theta)|, which stays
        # non-negative where rounding puts theta on the wrong side of a piece.
        return (np.minimum((1.0 - 2.0 * (k % 2)) * np.cos(m_theta) - 2.0 * k, c),
                spec.m1 * np.abs(np.sin(m_theta)) / sin_theta)
    shifted = theta + spec.m2
    inside = shifted < np.pi
    return (np.where(inside, np.cos(shifted), c - spec.m2 * np.sin(spec.m2)),
            np.where(inside, np.sin(shifted) / sin_theta, 1.0))


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
    overlap the cosines (None: a new array), and returned. Every kind sets
    the target logit and its slope d logit / d (s cos_y), then runs the one
    softmax: the unified kind lowers it by log(1 - a), the others take
    s * f from margin_transform_batch.
    """
    c = np.asarray(cosines, dtype=np.float64)
    y = np.asarray(labels)
    require(c.ndim == 2, "batch_loss_and_grad: cosines must be (N, K)")
    require(y.shape == (c.shape[0],), "batch_loss_and_grad: labels must match batch size")
    require(scale > 0, "batch_loss_and_grad: scale must be positive")
    require(out is None or out.shape == c.shape, "batch_loss_and_grad: out must be (N, K)")
    z = np.multiply(scale, c, out=out)
    idx = np.arange(c.shape[0])
    if spec.kind is MarginKind.UNIFIED:
        z[idx, y] -= np.log1p(-spec.a)
        slope = 1.0
    else:
        f, slope = margin_transform_batch(spec, c[idx, y])
        z[idx, y] = scale * f
    log_p, one_minus_p, q = _row_softmax_stats(z, y)
    q *= scale
    q[idx, y] = -scale * one_minus_p * slope
    return -log_p, q
