"""Feed-forward embedding network with a cosine classifier head.

The backbone is a plain MLP (ReLU on hidden layers, linear final layer).
Its output is L2-normalized, the head's class-weight rows are L2-normalized,
and the logits are the pairwise cosines scaled by s downstream.  backward()
is exact manual backpropagation, including the Jacobian of v -> v/||v||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contracts import require
from .numerics import NORM_EPSILON, RngStream, l2_normalize_rows


@dataclass
class EmbeddingModel:
    """MLP backbone; weights[l] has shape (dims[l+1], dims[l])."""

    weights: list
    biases: list

    @property
    def layer_dims(self):
        return [self.weights[0].shape[1]] + [w.shape[0] for w in self.weights]


@dataclass
class ClassifierHead:
    """Class-weight rows (K, d) and the logit scale s."""

    class_weights: np.ndarray
    scale: float


def _map_parameters(fn, model: EmbeddingModel, head: ClassifierHead):
    """Model and head built from fn applied to each parameter array.

    This is the one statement of the parameter layout: fn sees the arrays in
    LFS1 checkpoint order, w0, b0, w1, b1, ..., then the head rows.
    """
    weights, biases = [], []
    for w, b in zip(model.weights, model.biases):
        weights.append(fn(w))
        biases.append(fn(b))
    return EmbeddingModel(weights, biases), ClassifierHead(fn(head.class_weights), head.scale)


def flatten(model: EmbeddingModel, head: ClassifierHead) -> np.ndarray:
    """Every parameter in one new float64 vector, in the layout order."""
    parts = []
    _map_parameters(lambda a: parts.append(a.ravel()), model, head)
    return np.concatenate(parts, dtype=np.float64)


def unflatten(flat: np.ndarray, model: EmbeddingModel, head: ClassifierHead):
    """A model and head shaped like the given ones whose arrays are views of
    flat, so writing through either side changes the other."""
    offset = 0

    def view(a):
        nonlocal offset
        offset += a.size
        return flat[offset - a.size:offset].reshape(a.shape)

    return _map_parameters(view, model, head)


@dataclass
class ForwardCache:
    model: EmbeddingModel
    head: ClassifierHead
    activations: list = field(repr=False)  # activations[0] is the input batch
    preacts: list = field(repr=False)
    emb_norms: np.ndarray = field(repr=False)
    emb_unit: np.ndarray = field(repr=False)
    head_norms: np.ndarray = field(repr=False)
    head_unit: np.ndarray = field(repr=False)
    cosines: np.ndarray = field(repr=False)


def init_model(layer_dims, n_classes: int, scale: float, stream: RngStream):
    """He-initialized backbone, zero biases, N(0, 1/d) head rows."""
    dims = [int(d) for d in layer_dims]
    require(len(dims) >= 2 and all(d >= 1 for d in dims), "init_model: need at least [input, embedding] dims >= 1")
    require(n_classes >= 2, "init_model: need at least 2 classes")
    require(scale > 0, "init_model: scale must be positive")
    weights, biases = [], []
    for l in range(len(dims) - 1):
        fan_in = dims[l]
        std = np.sqrt(2.0 / fan_in)
        gen = stream.child(f"layer{l}").generator()
        weights.append(gen.normal(0.0, std, (dims[l + 1], dims[l])))
        biases.append(np.zeros(dims[l + 1]))
    d = dims[-1]
    head_w = stream.child("head").generator().normal(0.0, np.sqrt(1.0 / d), (n_classes, d))
    return EmbeddingModel(weights, biases), ClassifierHead(head_w, float(scale))


def _backbone(model: EmbeddingModel, batch: np.ndarray):
    acts = [batch]
    preacts = []
    n_layers = len(model.weights)
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        preacts.append(z)
        acts.append(z if l == n_layers - 1 else np.maximum(z, 0.0))
    return acts, preacts


def embed(model: EmbeddingModel, batch: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings for a batch, without the classifier head."""
    acts, _ = _backbone(model, np.asarray(batch, dtype=np.float64))
    return l2_normalize_rows(acts[-1])


def forward(model: EmbeddingModel, head: ClassifierHead, batch: np.ndarray):
    """Cosine matrix (N, K) plus everything backward() needs."""
    x = np.asarray(batch, dtype=np.float64)
    require(x.ndim == 2 and x.shape[1] == model.weights[0].shape[1], "forward: batch columns must match the input dim")
    require(head.class_weights.shape[1] == model.weights[-1].shape[0], "forward: head dim must match the embedding dim")
    acts, preacts = _backbone(model, x)
    raw = acts[-1]
    # The sums np.linalg.norm(axis=1) takes for real input, minus its wrapper.
    emb_norms = np.sqrt(np.add.reduce(raw * raw, axis=1))
    emb_unit = raw / np.maximum(emb_norms, NORM_EPSILON)[:, None]
    head_norms = np.sqrt(np.add.reduce(head.class_weights * head.class_weights, axis=1))
    head_unit = head.class_weights / np.maximum(head_norms, NORM_EPSILON)[:, None]
    cosines = emb_unit @ head_unit.T
    np.clip(cosines, -1.0, 1.0, out=cosines)
    cache = ForwardCache(model, head, acts, preacts, emb_norms, emb_unit, head_norms, head_unit, cosines)
    return cosines, cache


def _normalize_backward(d_unit, unit, raw_norms, out):
    """Jacobian of v -> v / max(||v||, eps), applied row-wise to d_unit and
    written to out, which must not overlap d_unit."""
    inner = (unit * d_unit).sum(axis=1, keepdims=True)
    np.multiply(unit, inner, out=out)
    np.subtract(d_unit, out, out=out)
    safe = raw_norms >= NORM_EPSILON
    out /= np.where(safe, raw_norms, NORM_EPSILON)[:, None]
    if not safe.all():
        # Below the guard the map is v / eps, a plain linear scaling.
        out[~safe] = d_unit[~safe] / NORM_EPSILON
    return out


def backward(cache: ForwardCache, d_cosines: np.ndarray) -> np.ndarray:
    """Exact parameter gradients given d loss / d cosines from the matching
    forward, as one flat vector in the flatten() layout."""
    dcos = np.asarray(d_cosines, dtype=np.float64)
    require(dcos.shape == cache.cosines.shape, "backward: upstream gradient shape mismatch")
    model = cache.model
    flat = np.empty(sum(w.size + b.size for w, b in zip(model.weights, model.biases))
                    + cache.head.class_weights.size)
    grads, grad_head = unflatten(flat, model, cache.head)
    _normalize_backward(dcos.T @ cache.emb_unit, cache.head_unit, cache.head_norms,
                        grad_head.class_weights)
    d_emb_unit = dcos @ cache.head_unit
    d_out = _normalize_backward(d_emb_unit, cache.emb_unit, cache.emb_norms,
                                np.empty_like(d_emb_unit))
    n_layers = len(model.weights)
    for l in range(n_layers - 1, -1, -1):
        dpre = d_out if l == n_layers - 1 else d_out * (cache.preacts[l] > 0)
        np.matmul(dpre.T, cache.activations[l], out=grads.weights[l])
        np.add.reduce(dpre, axis=0, out=grads.biases[l])
        if l > 0:
            d_out = dpre @ model.weights[l]
    return flat
