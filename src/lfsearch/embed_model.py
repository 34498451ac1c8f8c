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
from .numerics import NORM_EPSILON, RngStream, Workspace


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


@dataclass
class ForwardCache:
    """What backward() needs from one forward(): views of arrays held by
    `workspace`, valid until the next forward() through that workspace."""

    model: EmbeddingModel
    head: ClassifierHead
    workspace: Workspace = field(repr=False)
    activations: list = field(repr=False)  # activations[0] is the input batch
    preacts: list = field(repr=False)
    emb_norms: np.ndarray = field(repr=False)
    emb_guards: np.ndarray = field(repr=False)  # max(emb_norms, NORM_EPSILON)
    emb_unit: np.ndarray = field(repr=False)
    head_norms: np.ndarray = field(repr=False)
    head_guards: np.ndarray = field(repr=False)
    head_unit: np.ndarray = field(repr=False)
    cosines: np.ndarray = field(repr=False)


def _backbone(model: EmbeddingModel, batch: np.ndarray, preacts=None, hidden=None):
    """Every layer's output on batch, the batch first. With arrays given,
    layer l writes its pre-activation into preacts[l] and, below the last
    layer, its ReLU into hidden[l]; without, each pre-activation is a new
    array and the ReLU runs in place on it."""
    acts = [batch]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = np.matmul(acts[-1], w.T, out=None if preacts is None else preacts[l])
        z += b
        acts.append(z if l == last else np.maximum(z, 0.0, out=z if hidden is None else hidden[l]))
    return acts


def _unit_rows(raw, norms=None, guards=None, unit=None):
    """Row norms of raw (the sums np.linalg.norm(axis=1) takes for real
    input, minus its wrapper), max(norm, NORM_EPSILON), and raw over that,
    each written into the given array (None: a new one; unit may be raw).
    The squares go to unit first, unless unit is raw."""
    squares = np.multiply(raw, raw, out=None if unit is raw else unit)
    norms = np.sqrt(np.add.reduce(squares, axis=1, out=norms), out=norms)
    guards = np.maximum(norms, NORM_EPSILON, out=guards)
    return norms, guards, np.divide(raw, guards[:, None], out=unit)


def embed(model: EmbeddingModel, batch: np.ndarray) -> np.ndarray:
    """Unit-norm embeddings for a batch, without the classifier head."""
    raw = _backbone(model, np.asarray(batch, dtype=np.float64))[-1]
    return _unit_rows(raw, unit=raw)[2]


def forward(model: EmbeddingModel, head: ClassifierHead, batch: np.ndarray, workspace=None):
    """Cosine matrix (N, K) plus everything backward() needs, written into
    arrays of `workspace` (None: a new Workspace for this call)."""
    x = np.asarray(batch, dtype=np.float64)
    require(x.ndim == 2 and x.shape[1] == model.weights[0].shape[1], "forward: batch columns must match the input dim")
    require(head.class_weights.shape[1] == model.weights[-1].shape[0], "forward: head dim must match the embedding dim")
    ws = Workspace() if workspace is None else workspace
    n = x.shape[0]
    classes, width = head.class_weights.shape
    preacts = [ws.array(f"preact{l}", (n, w.shape[0])) for l, w in enumerate(model.weights)]
    hidden = [ws.array(f"hidden{l}", z.shape) for l, z in enumerate(preacts[:-1])]
    acts = _backbone(model, x, preacts, hidden)
    emb = _unit_rows(acts[-1], ws.array("emb_norms", (n,)), ws.array("emb_guards", (n,)),
                     ws.array("emb_unit", (n, width)))
    head_rows = _unit_rows(head.class_weights, ws.array("head_norms", (classes,)),
                           ws.array("head_guards", (classes,)),
                           ws.array("head_unit", (classes, width)))
    cosines = np.matmul(emb[2], head_rows[2].T, out=ws.array("cosines", (n, classes)))
    np.clip(cosines, -1.0, 1.0, out=cosines)
    return cosines, ForwardCache(model, head, ws, acts, preacts, *emb, *head_rows, cosines)


def _normalize_backward(d_unit, unit, raw_norms, guards, out, sums):
    """Jacobian of v -> v / max(||v||, eps), applied row-wise to d_unit and
    written to out, which must not overlap d_unit; sums takes the row sums
    of unit * d_unit. guards holds max(||v||, eps), which is the norm on
    every row that is not below the guard."""
    np.add.reduce(np.multiply(unit, d_unit, out=out), axis=1, out=sums)
    np.multiply(unit, sums[:, None], out=out)
    np.subtract(d_unit, out, out=out)
    out /= guards[:, None]
    safe = raw_norms >= NORM_EPSILON
    if not safe.all():
        # Below the guard the map is v / eps, a plain linear scaling.
        out[~safe] = d_unit[~safe] / NORM_EPSILON
    return out


def backward(cache: ForwardCache, d_cosines: np.ndarray) -> np.ndarray:
    """Exact parameter gradients given d loss / d cosines from the matching
    forward, as one flat vector in the flatten() layout. The vector and the
    intermediates are arrays of the cache's workspace."""
    dcos = np.asarray(d_cosines, dtype=np.float64)
    require(dcos.shape == cache.cosines.shape, "backward: upstream gradient shape mismatch")
    ws, model = cache.workspace, cache.model
    flat = ws.array("grad", (sum(w.size + b.size for w, b in zip(model.weights, model.biases))
                             + cache.head.class_weights.size,))
    grads, grad_head = unflatten(flat, model, cache.head)
    _normalize_backward(np.matmul(dcos.T, cache.emb_unit,
                                  out=ws.array("d_head_unit", cache.head_unit.shape)),
                        cache.head_unit, cache.head_norms, cache.head_guards,
                        grad_head.class_weights, ws.array("head_sums", cache.head_norms.shape))
    d_out = _normalize_backward(np.matmul(dcos, cache.head_unit,
                                          out=ws.array("d_emb_unit", cache.emb_unit.shape)),
                                cache.emb_unit, cache.emb_norms, cache.emb_guards,
                                ws.array("d_emb", cache.emb_unit.shape),
                                ws.array("emb_sums", cache.emb_norms.shape))
    for l in range(len(model.weights) - 1, -1, -1):
        if l < len(model.weights) - 1:
            # d_out is an array of the workspace: mask it in place.
            mask = ws.array(f"mask{l}", cache.preacts[l].shape, np.bool_)
            np.multiply(d_out, np.greater(cache.preacts[l], 0, out=mask), out=d_out)
        np.matmul(d_out.T, cache.activations[l], out=grads.weights[l])
        np.add.reduce(d_out, axis=0, out=grads.biases[l])
        if l > 0:
            d_out = np.matmul(d_out, model.weights[l],
                              out=ws.array(f"upstream{l - 1}", cache.preacts[l - 1].shape))
    return flat
