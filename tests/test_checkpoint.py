"""Tests for the binary checkpoint format: exact round-trips, digest
stability, and rejection of malformed payloads.
"""

import copy

import numpy as np
import pytest

from lfsearch.checkpoint import (
    MAGIC,
    CheckpointFormatError,
    deserialize_model,
    param_digest,
    read_checkpoint,
    serialize_model,
    write_checkpoint,
)
from lfsearch.embed_model import ClassifierHead, EmbeddingModel, init_model
from lfsearch.numerics import RngStream


def make_pair(seed=0, dims=(5, 6, 3), n_classes=4, scale=16.0):
    return init_model(list(dims), n_classes, scale, RngStream(seed, "ckpt"))


class TestRoundTrip:
    def test_exact_round_trip(self):
        model, head = make_pair()
        loaded_model, loaded_head = deserialize_model(serialize_model(model, head))
        for a, b in zip(model.weights, loaded_model.weights):
            assert np.array_equal(a, b)
        for a, b in zip(model.biases, loaded_model.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(head.class_weights, loaded_head.class_weights)
        assert loaded_head.scale == head.scale

    def test_round_trip_many_shapes(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            depth = int(rng.integers(1, 4))
            dims = [int(d) for d in rng.integers(1, 9, depth + 1)]
            k = int(rng.integers(2, 7))
            model, head = init_model(dims, k, float(rng.uniform(1.0, 64.0)),
                                     RngStream(int(rng.integers(1000)), "ckpt"))
            blob = serialize_model(model, head)
            loaded_model, loaded_head = deserialize_model(blob)
            assert serialize_model(loaded_model, loaded_head) == blob

    def test_file_round_trip(self, tmp_path):
        model, head = make_pair(seed=2)
        path = tmp_path / "model.ckpt"
        write_checkpoint(path, model, head)
        loaded_model, loaded_head = read_checkpoint(path)
        assert param_digest(loaded_model, loaded_head) == param_digest(model, head)

    def test_subnormal_and_extreme_values_survive(self):
        model, head = make_pair(seed=3)
        model.weights[0][0, 0] = 5e-324
        model.weights[0][0, 1] = -1.7e308
        model.biases[1][0] = 2.0 ** -1074
        loaded_model, _ = deserialize_model(serialize_model(model, head))
        assert loaded_model.weights[0][0, 0] == 5e-324
        assert loaded_model.weights[0][0, 1] == -1.7e308


class TestDeterminism:
    def test_serialization_is_reproducible(self):
        model, head = make_pair(seed=4)
        assert serialize_model(model, head) == serialize_model(model, head)

    def test_digest_changes_on_any_parameter(self):
        model, head = make_pair(seed=5)
        base = param_digest(model, head)
        bumped = copy.deepcopy(model)
        bumped.weights[1][0, 0] = np.nextafter(bumped.weights[1][0, 0], np.inf)
        assert param_digest(bumped, head) != base
        bumped_head = copy.deepcopy(head)
        bumped_head.class_weights[0, 0] = np.nextafter(bumped_head.class_weights[0, 0], np.inf)
        assert param_digest(model, bumped_head) != base

    def test_digest_is_hex_sha256(self):
        model, head = make_pair(seed=6)
        digest = param_digest(model, head)
        assert len(digest) == 64
        assert set(digest) <= set("0123456789abcdef")


class TestRejection:
    def test_bad_magic(self):
        model, head = make_pair(seed=7)
        blob = serialize_model(model, head)
        with pytest.raises(CheckpointFormatError):
            deserialize_model(b"XXXX" + blob[4:])

    def test_truncation_at_every_section(self):
        model, head = make_pair(seed=8)
        blob = serialize_model(model, head)
        for cut in (0, 3, 4, 7, 12, len(blob) // 2, len(blob) - 1):
            with pytest.raises(CheckpointFormatError):
                deserialize_model(blob[:cut])

    def test_trailing_bytes(self):
        model, head = make_pair(seed=9)
        blob = serialize_model(model, head)
        with pytest.raises(CheckpointFormatError):
            deserialize_model(blob + b"\x00")

    def test_non_finite_parameters(self):
        model, head = make_pair(seed=10)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(CheckpointFormatError):
            deserialize_model(serialize_model(model, head))
        model, head = make_pair(seed=10)
        head.class_weights[0, 0] = np.inf
        with pytest.raises(CheckpointFormatError):
            deserialize_model(serialize_model(model, head))

    def test_degenerate_head(self):
        model, head = make_pair(seed=11)
        head.scale = -1.0
        with pytest.raises(CheckpointFormatError):
            deserialize_model(serialize_model(model, head))
        model, head = make_pair(seed=11, n_classes=2)
        blob = serialize_model(model, ClassifierHead(head.class_weights[:1], head.scale))
        with pytest.raises(CheckpointFormatError):
            deserialize_model(blob)

    def test_implausible_layer_count(self):
        import struct
        blob = MAGIC + struct.pack("<I", 2000)
        with pytest.raises(CheckpointFormatError):
            deserialize_model(blob)

    def test_mismatched_layer_shapes(self):
        # Two layers whose inner dims do not compose must be rejected even
        # though each parses on its own.
        model = EmbeddingModel(
            [np.zeros((3, 4)), np.zeros((2, 5))],
            [np.zeros(3), np.zeros(2)],
        )
        head = ClassifierHead(np.zeros((2, 2)), 8.0)
        with pytest.raises(CheckpointFormatError):
            deserialize_model(serialize_model(model, head))

    def test_head_dim_mismatch(self):
        model = EmbeddingModel([np.zeros((3, 4))], [np.zeros(3)])
        head = ClassifierHead(np.zeros((2, 7)), 8.0)
        with pytest.raises(CheckpointFormatError):
            deserialize_model(serialize_model(model, head))
