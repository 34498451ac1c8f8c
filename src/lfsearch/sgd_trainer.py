"""Inner-loop optimization: momentum SGD with weight decay, one-epoch
training passes, and training of factor candidates.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .checkpoint import param_digest
from .contracts import require
from .datasets import LabeledDataset
from .embed_model import ClassifierHead, EmbeddingModel, backward, flatten, forward, unflatten
from .margin_losses import MarginKind, MarginSpec, batch_loss_and_grad, margin_transform_batch
from .numerics import RngStream, Workspace

logger = logging.getLogger(__name__)

# Margin kinds that pass through arccos and can overshoot the target cosine
# at large angles, turning the implied modulating factor positive.
_ANGULAR_KINDS = (MarginKind.ANGULAR, MarginKind.ADDITIVE_ANGULAR, MarginKind.COMBINED)


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
class LrSchedule:
    """Step schedule: divide the initial rate by drop_factor at each drop epoch."""

    initial: float
    drop_epochs: tuple = ()
    drop_factor: float = 10.0

    def __post_init__(self):
        require(self.initial > 0, "initial learning rate must be > 0")
        require(self.drop_factor > 1, "drop_factor must be > 1")
        drops = tuple(int(e) for e in self.drop_epochs)
        require(all(e >= 1 for e in drops), "drop_epochs are 1-based")
        require(all(a < b for a, b in zip(drops, drops[1:])),
                "drop_epochs must be strictly increasing")
        object.__setattr__(self, "drop_epochs", drops)

    def lr_at(self, epoch: int) -> float:
        """Learning rate in force during a 1-based epoch."""
        require(epoch >= 1, "epochs are 1-based")
        drops = sum(1 for e in self.drop_epochs if e <= epoch)
        return self.initial / self.drop_factor ** drops


@dataclass(frozen=True)
class TrainState:
    """All parameters as one flat vector, with model and head as views of it,
    the momentum vector in the same layout, the epoch counter, and whether
    the angular-overshoot warning has fired, so that it fires once a run."""

    params: np.ndarray
    velocity: np.ndarray
    model: EmbeddingModel
    head: ClassifierHead
    epoch: int = 0
    overshoot_warned: bool = False

    @classmethod
    def fresh(cls, model: EmbeddingModel, head: ClassifierHead) -> "TrainState":
        params = flatten(model, head)
        return cls(params, np.zeros_like(params), *unflatten(params, model, head))

    def copy(self) -> "TrainState":
        params = self.params.copy()
        return TrainState(params, self.velocity.copy(),
                          *unflatten(params, self.model, self.head), self.epoch,
                          self.overshoot_warned)


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
    taken at the moment its batch was processed. An angular margin that
    overshoots the target cosine is logged once per run: the check stops
    once the state records the warning. Raises
    NonFiniteTrainingError when a parameter or the mean loss ends non-finite.
    Each step gathers its batch into, and writes its intermediates to, the
    arrays of `workspace` (None: a new Workspace for this epoch).
    """
    require(data.sample_count >= 1, "dataset must be non-empty")
    state = state.copy()
    workspace = Workspace() if workspace is None else workspace
    order = stream.child("shuffle").generator().permutation(data.sample_count)
    total_loss = 0.0
    warned = state.overshoot_warned
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
        if loss.kind in _ANGULAR_KINDS and not warned:
            target = cosines[np.arange(labels.size), labels]
            overshoot = int((margin_transform_batch(loss, target) > target).sum())
            if overshoot:
                logger.warning(
                    "margin transform exceeds the target cosine on %d sample(s); "
                    "the implied modulating factor is positive there", overshoot)
                warned = True
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
    return replace(state, epoch=state.epoch + 1, overshoot_warned=warned), mean_loss


@dataclass(frozen=True)
class CandidateOutcome:
    """One trained candidate: its state and the state's param_digest, its
    mean loss and score, and the seconds its training and scoring took in
    the process that ran them."""

    state: TrainState
    digest: str
    mean_loss: float
    reward: float
    train_s: float
    reward_s: float


def train_candidate(state: TrainState, factor: float, data: LabeledDataset,
                    config: SgdConfig, lr: float, epoch_stream: RngStream, workspace,
                    score) -> CandidateOutcome:
    """One candidate: an epoch of the unified loss with `factor` from
    `state`, then score(trained_state, workspace), then the trained state's
    hash, so that a search's workers hash their candidates in parallel."""
    started = time.perf_counter()
    trained, mean_loss = train_epoch(state, MarginSpec.unified(factor), data, config, lr,
                                     epoch_stream, workspace)
    scored = time.perf_counter()
    value = score(trained, workspace)
    reward_s = time.perf_counter() - scored
    return CandidateOutcome(trained, param_digest(trained.model, trained.head), mean_loss,
                            value, scored - started, reward_s)


class InProcessCandidates:
    """Trains and scores each candidate in turn in this process, on `data`
    under `config`, through one workspace; the first failure stops the
    epoch."""

    def __init__(self, data: LabeledDataset, config: SgdConfig, score):
        self.data, self.config, self.score = data, config, score
        self.workspace = Workspace()

    def run(self, state, factors, lr, epoch_stream):
        return [train_candidate(state, a, self.data, self.config, lr, epoch_stream,
                                self.workspace, self.score)
                for a in factors]


def train_candidates(state: TrainState, factors, lr: float, epoch_stream: RngStream,
                     runner):
    """Train one epoch per factor, all from the same snapshot and shuffle.

    Every candidate trains a private copy of `state` under the unified loss
    with its own factor, consuming the identical shuffle order derived from
    epoch_stream, so candidates differ only in the factor. `runner` holds
    the data, settings and score, and trains them: a search's worker
    processes or an InProcessCandidates. Returns one CandidateOutcome per
    factor, in the order of `factors`.
    """
    factors = [float(a) for a in factors]
    require(len(factors) >= 1, "need at least one candidate factor")
    for a in factors:
        require(a <= 0, f"candidate factor {a} is positive; the search space is a <= 0")
    return runner.run(state, factors, lr, epoch_stream)
