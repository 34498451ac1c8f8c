"""Tests for the embedding network: initialization, the normalized forward
pass, and exact backpropagation checked against central differences.
"""

import struct

import numpy as np
import pytest

from lfsearch.checkpoint import serialize_model
from lfsearch.contracts import ContractViolation
from lfsearch.embed_model import (
    ClassifierHead,
    backward,
    embed,
    flatten,
    forward,
    init_model,
    unflatten,
)
from lfsearch.numerics import RngStream


def tiny_setup(seed=0, dims=(5, 6, 3), n_classes=4, scale=16.0, n=3):
    stream = RngStream(seed, "init")
    model, head = init_model(list(dims), n_classes, scale, stream)
    batch = RngStream(seed, "data").generator().normal(0.0, 1.0, (n, dims[0]))
    return model, head, batch


class TestInitModel:
    def test_shapes(self):
        model, head = init_model([8, 16, 4], 5, 32.0, RngStream(1, "init"))
        assert [w.shape for w in model.weights] == [(16, 8), (4, 16)]
        assert [b.shape for b in model.biases] == [(16,), (4,)]
        assert head.class_weights.shape == (5, 4)
        assert head.scale == 32.0

    def test_layer_dims_round_trip(self):
        model, _ = init_model([8, 16, 4], 5, 32.0, RngStream(1, "init"))
        assert model.layer_dims == [8, 16, 4]

    def test_biases_start_at_zero(self):
        model, _ = init_model([8, 16, 4], 5, 32.0, RngStream(1, "init"))
        for b in model.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_deterministic(self):
        a_model, a_head = init_model([8, 16, 4], 5, 32.0, RngStream(7, "init"))
        b_model, b_head = init_model([8, 16, 4], 5, 32.0, RngStream(7, "init"))
        for wa, wb in zip(a_model.weights, b_model.weights):
            assert np.array_equal(wa, wb)
        assert np.array_equal(a_head.class_weights, b_head.class_weights)

    def test_seed_changes_weights(self):
        a_model, _ = init_model([8, 8, 8], 5, 32.0, RngStream(7, "init"))
        b_model, _ = init_model([8, 8, 8], 5, 32.0, RngStream(8, "init"))
        assert not np.array_equal(a_model.weights[0], b_model.weights[0])

    def test_layers_draw_from_distinct_streams(self):
        model, _ = init_model([8, 8, 8], 5, 32.0, RngStream(7, "init"))
        assert not np.array_equal(model.weights[0], model.weights[1])

    def test_he_scale(self):
        model, _ = init_model([100, 400], 5, 32.0, RngStream(3, "init"))
        std = model.weights[0].std()
        assert abs(std - np.sqrt(2.0 / 100.0)) < 0.05 * np.sqrt(2.0 / 100.0)

    def test_head_scale(self):
        _, head = init_model([8, 64], 1000, 32.0, RngStream(4, "init"))
        std = head.class_weights.std()
        assert abs(std - np.sqrt(1.0 / 64.0)) < 0.05 * np.sqrt(1.0 / 64.0)

    def test_validation(self):
        with pytest.raises(ContractViolation):
            init_model([8], 5, 32.0, RngStream(1, "init"))
        with pytest.raises(ContractViolation):
            init_model([8, 0], 5, 32.0, RngStream(1, "init"))
        with pytest.raises(ContractViolation):
            init_model([8, 4], 1, 32.0, RngStream(1, "init"))
        with pytest.raises(ContractViolation):
            init_model([8, 4], 5, 0.0, RngStream(1, "init"))


class TestForward:
    def test_embeddings_are_unit_norm(self):
        model, _, batch = tiny_setup()
        e = embed(model, batch)
        assert np.allclose(np.linalg.norm(e, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_cosines_in_range_and_shape(self):
        model, head, batch = tiny_setup(n=11)
        cosines, _ = forward(model, head, batch)
        assert cosines.shape == (11, 4)
        assert cosines.min() >= -1.0 and cosines.max() <= 1.0

    def test_matches_manual_normalized_product(self):
        model, head, batch = tiny_setup(seed=2)
        cosines, _ = forward(model, head, batch)
        h = batch
        for l, (w, b) in enumerate(zip(model.weights, model.biases)):
            h = h @ w.T + b
            if l < len(model.weights) - 1:
                h = np.maximum(h, 0.0)
        h = h / np.linalg.norm(h, axis=1, keepdims=True)
        wn = head.class_weights / np.linalg.norm(head.class_weights, axis=1, keepdims=True)
        assert np.allclose(cosines, h @ wn.T, rtol=0, atol=1e-12)

    def test_forward_embed_agree(self):
        model, head, batch = tiny_setup(seed=3)
        cosines, cache = forward(model, head, batch)
        assert np.array_equal(cache.emb_unit, embed(model, batch))

    def test_zero_input_row_stays_finite(self):
        model, head, batch = tiny_setup(seed=4)
        batch[1] = 0.0
        cosines, _ = forward(model, head, batch)
        assert np.all(np.isfinite(cosines))
        # Zero biases keep a zero row at zero through every layer, and the
        # guarded normalization maps it to the zero vector, not NaN.
        assert np.array_equal(cosines[1], np.zeros(4))

    def test_dim_validation(self):
        model, head, batch = tiny_setup()
        with pytest.raises(ContractViolation):
            forward(model, head, batch[:, :3])
        bad_head = ClassifierHead(np.zeros((4, 7)), 16.0)
        with pytest.raises(ContractViolation):
            forward(model, bad_head, batch)


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        model, head, batch = tiny_setup()
        cosines, cache = forward(model, head, batch)
        grads, grad_head = unflatten(backward(cache, np.zeros_like(cosines)), model, head)
        for g in grads.weights + grads.biases + [grad_head.class_weights]:
            assert np.array_equal(g, np.zeros_like(g))

    def test_shapes_match_parameters(self):
        model, head, batch = tiny_setup()
        cosines, cache = forward(model, head, batch)
        grads, grad_head = unflatten(backward(cache, np.ones_like(cosines)), model, head)
        for g, w in zip(grads.weights, model.weights):
            assert g.shape == w.shape
        for g, b in zip(grads.biases, model.biases):
            assert g.shape == b.shape
        assert grad_head.class_weights.shape == head.class_weights.shape

    def test_upstream_shape_validation(self):
        model, head, batch = tiny_setup()
        _, cache = forward(model, head, batch)
        with pytest.raises(ContractViolation):
            backward(cache, np.zeros((2, 2)))

    def test_matches_central_differences(self):
        # Loss sum(R * cosines) is linear in the cosines, so R is the exact
        # upstream gradient and every parameter grad can be FD-checked.
        for seed in range(3):
            model, head, batch = tiny_setup(seed=seed)
            r = RngStream(seed, "up").generator().normal(0.0, 1.0, (3, 4))

            def loss(m, h):
                c, _ = forward(m, h, batch)
                return float((r * c).sum())

            _, cache = forward(model, head, batch)
            grads, grad_head = unflatten(backward(cache, r), model, head)
            eps = 1e-6

            def check(analytic, array, setter):
                flat = array.ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + eps
                    up = loss(model, head)
                    flat[j] = orig - eps
                    down = loss(model, head)
                    flat[j] = orig
                    fd = (up - down) / (2.0 * eps)
                    assert abs(analytic.ravel()[j] - fd) <= 1e-5 * abs(fd) + 1e-7

            for l in range(len(model.weights)):
                check(grads.weights[l], model.weights[l], None)
                check(grads.biases[l], model.biases[l], None)
            check(grad_head.class_weights, head.class_weights, None)


def lfs1_payloads(blob):
    """The f64 payloads of an LFS1 checkpoint, in file order, parsed here
    from the documented byte layout rather than through embed_model."""
    pos = 8
    (n_layers,) = struct.unpack_from("<I", blob, 4)
    payloads = []
    for _ in range(n_layers):
        rows, cols = struct.unpack_from("<II", blob, pos)
        pos += 8
        size = 8 * (rows * cols + rows)
        payloads.append(blob[pos:pos + size])
        pos += size
    k, d, _scale = struct.unpack_from("<IId", blob, pos)
    payloads.append(blob[pos + 16:])
    assert len(payloads[-1]) == 8 * k * d
    return b"".join(payloads)


def flat_copy(model, head):
    """Model and head rebuilt from flatten(), the one way parameters are copied."""
    return unflatten(flatten(model, head), model, head)


class TestCopy:
    def test_model_copy_is_deep(self):
        model, head, _ = tiny_setup()
        dup, _ = flat_copy(model, head)
        dup.weights[0][0, 0] += 1.0
        dup.biases[1][0] += 1.0
        assert model.weights[0][0, 0] != dup.weights[0][0, 0]
        assert model.biases[1][0] != dup.biases[1][0]

    def test_head_copy_is_deep(self):
        model, head, _ = tiny_setup()
        _, dup = flat_copy(model, head)
        dup.class_weights[0, 0] += 1.0
        assert head.class_weights[0, 0] != dup.class_weights[0, 0]
        assert dup.scale == head.scale


class TestLayout:
    @pytest.mark.parametrize("dims", [(5, 3), (5, 6, 3), (2, 7, 1, 4)])
    def test_flatten_follows_the_checkpoint_payload(self, dims):
        model, head, _ = tiny_setup(seed=len(dims), dims=dims, n_classes=3)
        flat = flatten(model, head)
        assert flat.dtype == np.float64 and flat.ndim == 1
        assert flat.astype("<f8").tobytes() == lfs1_payloads(serialize_model(model, head))

    def test_unflatten_views_share_memory_both_ways(self):
        model, head, _ = tiny_setup()
        flat = flatten(model, head)
        view_model, view_head = unflatten(flat, model, head)
        assert view_head.scale == head.scale
        assert flatten(view_model, view_head).tobytes() == flat.tobytes()
        view_model.biases[1][2] = 7.0
        view_head.class_weights[-1, -1] = -3.0
        n_backbone = sum(a.size for a in model.weights + model.biases)
        assert flat[n_backbone - 1] == 7.0
        assert flat[-1] == -3.0
        flat[0] = 11.0
        assert view_model.weights[0][0, 0] == 11.0
        assert model.weights[0][0, 0] != 11.0
