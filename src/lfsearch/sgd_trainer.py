"""Inner-loop optimization: momentum SGD with weight decay, one-epoch
training passes, and training of an epoch's candidate losses.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .contracts import require
from .datasets import LabeledDataset
from .embed_model import ClassifierHead, EmbeddingModel, backward, flatten, forward, unflatten
from .margin_losses import MarginKind, MarginSpec, batch_loss_and_grad
from .numerics import RngStream, Workspace


class NonFiniteTrainingError(Exception):
    """A training epoch left a non-finite parameter or mean loss."""


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 128

    def __post_init__(self):
        require(self.learning_rate > 0, "learning_rate must be > 0")
        require(0.0 <= self.momentum < 1.0, "momentum must lie in [0, 1)")
        require(self.weight_decay >= 0, "weight_decay must be >= 0")
        require(self.batch_size >= 1, "batch_size must be >= 1")


@dataclass(frozen=True)
class TrainState:
    """All parameters as one flat vector, with model and head as views of it,
    the momentum vector in the same layout, and the epoch counter."""

    params: np.ndarray
    velocity: np.ndarray
    model: EmbeddingModel
    head: ClassifierHead
    epoch: int = 0

    @classmethod
    def fresh(cls, model: EmbeddingModel, head: ClassifierHead) -> "TrainState":
        params = flatten(model, head)
        return cls(params, np.zeros_like(params), *unflatten(params, model, head))

    def copy(self) -> "TrainState":
        params = self.params.copy()
        return TrainState(params, self.velocity.copy(),
                          *unflatten(params, self.model, self.head), self.epoch)


def sgd_step(state: TrainState, grads: np.ndarray, config: SgdConfig, lr: float,
             scratch=None) -> TrainState:
    """One momentum-SGD update, in place, with the L2 term folded into the
    gradient: v = momentum * v + (g + weight_decay * w), then w = w - lr * v.
    scratch, when given, is a parameter-sized array the step may overwrite."""
    require(grads.shape == state.params.shape, "gradient size does not match the parameters")
    w, v = state.params, state.velocity
    scratch = np.multiply(config.weight_decay, w, out=scratch)
    scratch += grads
    v *= config.momentum
    v += scratch
    np.multiply(lr, v, out=scratch)
    w -= scratch
    return state


def train_epoch(state: TrainState, loss: MarginSpec, data: LabeledDataset,
                config: SgdConfig, lr: float, stream: RngStream, workspace=None):
    """One shuffled pass over the dataset, on a copy of the input state.

    Returns the updated state and the mean per-sample loss, each sample's loss
    taken at the moment its batch was processed. Raises
    NonFiniteTrainingError when a parameter or the mean loss ends non-finite.
    Each step gathers its batch into, and writes its intermediates to, the
    arrays of `workspace` (None: a new Workspace for this epoch).
    """
    require(data.sample_count >= 1, "dataset must be non-empty")
    state = state.copy()
    workspace = Workspace() if workspace is None else workspace
    order = stream.child("shuffle").generator().permutation(data.sample_count)
    total_loss = 0.0
    for start in range(0, data.sample_count, config.batch_size):
        batch_idx = order[start:start + config.batch_size]
        n = batch_idx.size
        # A permutation indexes in range: "wrap" gathers without the copy
        # through a temporary that mode "raise" makes.
        features = np.take(data.features, batch_idx, axis=0, mode="wrap",
                           out=workspace.array("batch_features", (n, data.feature_dim)))
        labels = np.take(data.labels, batch_idx, mode="wrap",
                         out=workspace.array("batch_labels", (n,), np.int64))
        cosines, cache = forward(state.model, state.head, features, workspace)
        losses, d_cosines = batch_loss_and_grad(loss, cosines, labels, state.head.scale,
                                                workspace.array("d_cosines", cosines.shape))
        d_cosines /= n
        sgd_step(state, backward(cache, d_cosines), config, lr,
                 workspace.array("sgd_scratch", state.params.shape))
        total_loss += float(losses.sum())
    mean_loss = total_loss / data.sample_count
    if not (np.isfinite(state.params).all() and math.isfinite(mean_loss)):
        factor = f" at a={loss.a:g}" if loss.kind is MarginKind.UNIFIED else ""
        raise NonFiniteTrainingError(f"training went non-finite in epoch {state.epoch + 1}"
                                     f"{factor}: mean loss {mean_loss}")
    return replace(state, epoch=state.epoch + 1), mean_loss


@dataclass(frozen=True)
class CandidateOutcome:
    """One trained candidate: its state, its mean loss and score, and the
    seconds its training and scoring took in the process that ran them."""

    state: TrainState
    mean_loss: float
    reward: float
    train_s: float
    reward_s: float


def train_candidate(state: TrainState, loss: MarginSpec, data: LabeledDataset,
                    config: SgdConfig, lr: float, epoch_stream: RngStream, workspace,
                    score) -> CandidateOutcome:
    """One candidate: an epoch of `loss` from `state`, then
    score(trained_state, workspace)."""
    started = time.perf_counter()
    trained, mean_loss = train_epoch(state, loss, data, config, lr, epoch_stream, workspace)
    scored = time.perf_counter()
    value = score(trained, workspace)
    reward_s = time.perf_counter() - scored
    return CandidateOutcome(trained, mean_loss, value, scored - started, reward_s)


def train_candidates(state: TrainState, losses, lr: float, epoch_stream: RngStream,
                     runner):
    """Train one epoch per loss, all from the same snapshot and shuffle.

    Every candidate trains a private copy of `state` under its own
    MarginSpec, consuming the identical shuffle order derived from
    epoch_stream, so candidates differ only in the loss. `runner`, a run's
    candidate_workers.CandidateWorkers, holds the data, settings and score,
    and trains them in this process or in its forked workers. Returns one
    CandidateOutcome per loss, in the order of `losses`.
    """
    losses = list(losses)
    require(len(losses) >= 1, "need at least one candidate loss")
    return runner.run(state, losses, lr, epoch_stream)
