"""Inner-loop optimization: momentum SGD with weight decay, one-epoch
training passes, and training of factor candidates.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .contracts import require
from .datasets import LabeledDataset
from .embed_model import ClassifierHead, EmbeddingModel, Gradients, backward, forward
from .margin_losses import MarginKind, MarginSpec, batch_loss_and_grad, margin_transform_batch
from .numerics import RngStream

logger = logging.getLogger(__name__)

# Margin kinds that pass through arccos and can overshoot the target cosine
# at large angles, turning the implied modulating factor positive.
_ANGULAR_KINDS = (MarginKind.ANGULAR, MarginKind.ADDITIVE_ANGULAR, MarginKind.COMBINED)


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
        require(all(e >= 1 for e in drops), "drop epochs are 1-based")
        require(all(a < b for a, b in zip(drops, drops[1:])),
                "drop epochs must be strictly increasing")
        object.__setattr__(self, "drop_epochs", drops)

    def lr_at(self, epoch: int) -> float:
        """Learning rate in force during a 1-based epoch."""
        require(epoch >= 1, "epochs are 1-based")
        drops = sum(1 for e in self.drop_epochs if e <= epoch)
        return self.initial / self.drop_factor ** drops


@dataclass(frozen=True)
class TrainState:
    """Model parameters plus momentum buffers and the epoch counter."""

    model: EmbeddingModel
    head: ClassifierHead
    velocity_weights: list
    velocity_biases: list
    velocity_head: np.ndarray
    epoch: int = 0

    @classmethod
    def fresh(cls, model: EmbeddingModel, head: ClassifierHead) -> "TrainState":
        return cls(model=model, head=head,
                   velocity_weights=[np.zeros_like(w) for w in model.weights],
                   velocity_biases=[np.zeros_like(b) for b in model.biases],
                   velocity_head=np.zeros_like(head.class_weights),
                   epoch=0)

    def copy(self) -> "TrainState":
        return TrainState(model=self.model.copy(), head=self.head.copy(),
                          velocity_weights=[v.copy() for v in self.velocity_weights],
                          velocity_biases=[v.copy() for v in self.velocity_biases],
                          velocity_head=self.velocity_head.copy(),
                          epoch=self.epoch)


def _step_array(param, velocity, grad, config: SgdConfig, lr: float):
    require(param.shape == grad.shape, "gradient shape does not match parameter shape")
    new_velocity = config.momentum * velocity + (grad + config.weight_decay * param)
    return param - lr * new_velocity, new_velocity


def sgd_step(state: TrainState, grads: Gradients, config: SgdConfig, lr: float) -> TrainState:
    """One momentum-SGD update with the L2 term folded into the gradient."""
    require(len(grads.weights) == len(state.model.weights),
            "gradient layer count does not match the model")
    new_weights, new_vw = [], []
    for w, v, g in zip(state.model.weights, state.velocity_weights, grads.weights):
        stepped, vel = _step_array(w, v, g, config, lr)
        new_weights.append(stepped)
        new_vw.append(vel)
    new_biases, new_vb = [], []
    for b, v, g in zip(state.model.biases, state.velocity_biases, grads.biases):
        stepped, vel = _step_array(b, v, g, config, lr)
        new_biases.append(stepped)
        new_vb.append(vel)
    head_w, head_v = _step_array(state.head.class_weights, state.velocity_head,
                                 grads.class_weights, config, lr)
    return TrainState(model=EmbeddingModel(new_weights, new_biases),
                      head=ClassifierHead(head_w, state.head.scale),
                      velocity_weights=new_vw, velocity_biases=new_vb,
                      velocity_head=head_v, epoch=state.epoch)


def train_epoch(state: TrainState, loss: MarginSpec, data: LabeledDataset,
                config: SgdConfig, lr: float, stream: RngStream):
    """One shuffled pass over the dataset.

    Returns the updated state and the mean per-sample loss, each sample's loss
    taken at the moment its batch was processed.
    """
    require(data.sample_count >= 1, "dataset must be non-empty")
    order = stream.child("shuffle").generator().permutation(data.sample_count)
    total_loss = 0.0
    warned = False
    for start in range(0, data.sample_count, config.batch_size):
        batch_idx = order[start:start + config.batch_size]
        features = data.features[batch_idx]
        labels = data.labels[batch_idx]
        cosines, cache = forward(state.model, state.head, features)
        if loss.kind in _ANGULAR_KINDS and not warned:
            target = cosines[np.arange(labels.size), labels]
            overshoot = int((margin_transform_batch(loss, target) > target).sum())
            if overshoot:
                logger.warning(
                    "margin transform exceeds the target cosine on %d sample(s); "
                    "the implied modulating factor is positive there", overshoot)
                warned = True
        losses, d_cosines = batch_loss_and_grad(loss, cosines, labels, state.head.scale)
        grads = backward(cache, d_cosines / batch_idx.size)
        state = sgd_step(state, grads, config, lr)
        total_loss += float(losses.sum())
    return replace(state, epoch=state.epoch + 1), total_loss / data.sample_count


def train_candidates(state: TrainState, factors, data: LabeledDataset,
                     config: SgdConfig, lr: float, epoch_stream: RngStream):
    """Train one epoch per factor, all from the same snapshot and shuffle.

    Every candidate trains a private copy of `state` under the unified loss
    with its own factor, consuming the identical shuffle order derived from
    epoch_stream, so candidates differ only in the factor. Results follow the
    order of `factors`.
    """
    factors = [float(a) for a in factors]
    require(len(factors) >= 1, "need at least one candidate factor")
    for a in factors:
        require(a <= 0, f"candidate factor {a} is positive; the search space is a <= 0")
    return [train_epoch(state.copy(), MarginSpec.unified(a), data, config, lr, epoch_stream)
            for a in factors]
