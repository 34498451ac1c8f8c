"""The binary model checkpoint format.

Layout (all little-endian): magic b"LFS1", u32 layer count, then per layer
u32 rows, u32 cols, rows*cols f64 weights row-major, rows f64 biases; then
the head as u32 K, u32 d, f64 scale, K*d f64 weights row-major.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .embed_model import ClassifierHead, EmbeddingModel

MAGIC = b"LFS1"


class CheckpointFormatError(Exception):
    """The bytes do not form a valid checkpoint."""


def serialize_model(model: EmbeddingModel, head: ClassifierHead) -> bytes:
    parts = [MAGIC, struct.pack("<I", len(model.weights))]
    for w, b in zip(model.weights, model.biases):
        rows, cols = w.shape
        parts.append(struct.pack("<II", rows, cols))
        parts.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    k, d = head.class_weights.shape
    parts.append(struct.pack("<IId", k, d, head.scale))
    parts.append(np.ascontiguousarray(head.class_weights, dtype="<f8").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointFormatError("checkpoint truncated")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def f64_array(self, shape) -> np.ndarray:
        n = int(np.prod(shape))
        raw = self.take(8 * n)
        return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def deserialize_model(data: bytes):
    r = _Reader(data)
    if r.take(4) != MAGIC:
        raise CheckpointFormatError("bad magic bytes")
    n_layers = r.u32()
    if n_layers < 1 or n_layers > 1024:
        raise CheckpointFormatError(f"implausible layer count {n_layers}")
    weights, biases = [], []
    for _ in range(n_layers):
        rows, cols = r.u32(), r.u32()
        if rows < 1 or cols < 1:
            raise CheckpointFormatError("degenerate layer shape")
        weights.append(r.f64_array((rows, cols)))
        biases.append(r.f64_array((rows,)))
    k, d = r.u32(), r.u32()
    scale = r.f64()
    if k < 2 or d < 1 or not scale > 0:
        raise CheckpointFormatError("degenerate head")
    head_w = r.f64_array((k, d))
    if r.pos != len(data):
        raise CheckpointFormatError("trailing bytes after checkpoint payload")
    for prev, w in zip(weights, weights[1:]):
        if w.shape[1] != prev.shape[0]:
            raise CheckpointFormatError("layer shapes do not compose")
    if d != weights[-1].shape[0]:
        raise CheckpointFormatError("head dim does not match the embedding dim")
    arrays = weights + biases + [head_w]
    if not all(np.isfinite(a).all() for a in arrays):
        raise CheckpointFormatError("non-finite parameter values")
    return EmbeddingModel(weights, biases), ClassifierHead(head_w, scale)


def write_checkpoint(path, model: EmbeddingModel, head: ClassifierHead) -> None:
    Path(path).write_bytes(serialize_model(model, head))


def read_checkpoint(path):
    return deserialize_model(Path(path).read_bytes())


def param_digest(model: EmbeddingModel, head: ClassifierHead) -> str:
    """Stable hex digest of the exact parameter bytes."""
    return hashlib.sha256(serialize_model(model, head)).hexdigest()
