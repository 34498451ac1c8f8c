"""Scalar reference implementations the tests compare the package against.

One sample at a time, in plain Python and numpy scalars: the cosine-logit
row, the margin transform, the softmax and margin probabilities, the
modulating factor, the unified and margin losses, log-sum-exp and vector
normalisation, and a CSV writer for the format `load_flat_file` reads. The
package computes all of these batched; these are the oracles for the
composition identity, the probability reduction and the gradient checks.
`fold_scan` is the verification threshold scan one fold at a time, the
reference for the package's scan. `first_distinct` is the rejection draw of
a large pair pool's ranks, one value at a time. `replay` rebuilds a search's
winners from its run files, training only the winners and scoring nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lfsearch import cli
from lfsearch.config import ExperimentConfig
from lfsearch.contracts import require
from lfsearch.margin_losses import ARCCOS_GUARD, MarginKind, MarginSpec
from lfsearch.numerics import NORM_EPSILON, RngStream
from lfsearch.sgd_trainer import train_epoch


def log_sum_exp(values) -> float:
    """log(sum(exp(v_i))) computed with the max subtracted first.

    Finite for any finite input, no matter the magnitude.
    """
    v = np.asarray(values, dtype=np.float64)
    require(v.size > 0, "log_sum_exp: input must be non-empty")
    require(bool(np.isfinite(v).all()), "log_sum_exp: input must be finite")
    m = float(v.max())
    return m + float(np.log(np.exp(v - m).sum()))


def l2_normalize(v, epsilon: float = NORM_EPSILON) -> np.ndarray:
    """v / max(||v||, epsilon).  The epsilon guard keeps the zero vector at zero."""
    v = np.asarray(v, dtype=np.float64)
    require(epsilon > 0, "l2_normalize: epsilon must be positive")
    n = float(np.linalg.norm(v))
    return v / max(n, epsilon)


def save_flat_file(path, dataset) -> None:
    """Write the CSV format load_flat_file reads, floats at full precision."""
    lines = []
    for row, label in zip(dataset.features, dataset.labels):
        cells = [format(value, ".17g") for value in row]
        cells.append(str(int(label)))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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


def margin_transform(spec: MarginSpec, cos_y: float) -> float:
    """The margin value f that replaces the target cosine."""
    require(-1.0 <= cos_y <= 1.0, "margin_transform: cos_y must lie in [-1, 1]")
    require(spec.kind is not MarginKind.UNIFIED, "margin_transform: unified spec has no margin function")
    if spec.kind is MarginKind.PLAIN:
        return float(cos_y)
    if spec.kind is MarginKind.ADDITIVE:
        return float(cos_y - spec.m3)
    theta = float(np.arccos(np.clip(cos_y, -1.0 + ARCCOS_GUARD, 1.0 - ARCCOS_GUARD)))
    if spec.kind is MarginKind.ANGULAR:
        # SphereFace's psi: (-1)^k cos(m1 theta) - 2k on [k pi/m1, (k+1) pi/m1],
        # never above cos_y, not even by rounding.
        k = math.floor(spec.m1 * theta / math.pi)
        return min((1.0 - 2.0 * (k % 2)) * math.cos(spec.m1 * theta) - 2.0 * k, float(cos_y))
    # ArcFace: cos(theta + m2) until theta + m2 reaches pi, then cos_y - m2 sin(m2).
    if theta + spec.m2 < math.pi:
        return math.cos(theta + spec.m2)
    return float(cos_y - spec.m2 * math.sin(spec.m2))


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


def unified_loss(a: float, row: LogitRow) -> float:
    """-log(h(a, p) * p); equals the plain cross-entropy at a = 0."""
    require(a <= 0, "unified_loss: factor a must be <= 0")
    log_p = log_softmax_probability(row)
    # 1 - p via expm1: the linear-domain subtraction loses the a-term
    # entirely once p rounds to 1.
    one_minus_p = -math.expm1(log_p)
    return -log_p + math.log1p(-a * one_minus_p)


def margin_loss(spec: MarginSpec, row: LogitRow) -> float:
    """-log(margin_probability), evaluated in the log domain."""
    return -log_margin_probability(spec, row)


def fold_scan(sims: np.ndarray, same: np.ndarray, folds: int):
    """Round-robin K-fold threshold scan over one stable sort of `sims`,
    one fold at a time: the same contract as eval_protocols._fold_scan.

    Each fold's threshold maximizes the accuracy of `sim > t` on the other
    folds, scanned over midpoints of adjacent distinct training similarities
    plus sentinels beyond both ends; ties keep the lowest threshold. A fold's
    training set is a mask over the sorted arrays, which orders it exactly as
    a stable sort of that subset would. Returns the sorted similarities and
    flags, and the per-fold thresholds and held-out accuracies.
    """
    require(folds >= 2, "folds must be >= 2")
    require(sims.size >= folds, "need at least one pair per fold")
    order = np.argsort(sims, kind="stable")
    s, flags = sims[order], same[order]
    fold_of = order % folds
    thresholds, accuracies = [], []
    for fold in range(folds):
        held = fold_of == fold
        train_s, train_f = s[~held], flags[~held]
        # Cut i predicts "same" from position i up; counted from all-"same",
        # each pair below the cut gains one if different, loses one if same.
        correct = int(train_f.sum()) + np.concatenate(([0], np.cumsum(np.where(train_f, -1, 1))))
        valid = np.concatenate(([True], train_s[1:] != train_s[:-1], [True]))
        best = int(np.argmax(np.where(valid, correct, -1)))
        if best == 0:
            threshold = train_s[0] - 1.0
        elif best == train_s.size:
            threshold = train_s[-1] + 1.0
        else:
            threshold = 0.5 * (train_s[best - 1] + train_s[best])
        thresholds.append(float(threshold))
        accuracies.append(float(np.mean((s[held] > threshold) == flags[held])))
    return s, flags, thresholds, accuracies


def first_distinct(generator, size: int, count: int, length: int) -> np.ndarray:
    """The first `count` distinct values, in draw order, of one stream of
    `length` draws of generator.integers(0, size)."""
    seen, kept = set(), []
    for value in generator.integers(0, size, length).tolist():
        if value not in seen:
            seen.add(value)
            kept.append(value)
            if len(kept) == count:
                return np.array(kept, dtype=np.int64)
    raise AssertionError(f"{length} draws hold fewer than {count} distinct values")


def replay(config: ExperimentConfig, records) -> list:
    """A search's initial state and each epoch's winner, rebuilt from the
    run's resolved config and its metrics.jsonl records, with no scoring.

    The data and the initial state are prepared as the command line
    prepares them. Epoch e trains the previous winner (at first the initial
    state) one epoch under MarginSpec.unified(factors[winner]) at
    schedule.lr_at(sgd.learning_rate, e) on the epoch's search stream,
    RngStream(seed, "search").child(f"epoch{e}"). Returns one state more
    than there are records: states[e] is epoch e's winner.
    """
    train, _val, _pairs = cli._prepare_data(config)
    states = [cli._init_state(config, train)]
    root = RngStream(config.seed, "search")
    for record in records:
        epoch = record["epoch"]
        require(epoch == len(states), "records must list epochs 1, 2, ... in order")
        factor = record["factors"][record["winner"]]
        lr = config.schedule.lr_at(config.sgd.learning_rate, epoch)
        state, _ = train_epoch(states[-1], MarginSpec.unified(factor), train, config.sgd, lr,
                               root.child(f"epoch{epoch}"))
        states.append(state)
    return states
