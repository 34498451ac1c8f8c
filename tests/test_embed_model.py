"""Tests for the embedding network: initialization, the normalized forward
pass, and exact backpropagation checked against central differences.
"""

import struct
import tracemalloc

import numpy as np
import pytest

from lfsearch.checkpoint import serialize_model
from lfsearch.contracts import ContractViolation
from lfsearch.embed_model import (
    ClassifierHead,
    EmbeddingModel,
    backward,
    embed,
    flatten,
    forward,
    init_model,
    unflatten,
)
from lfsearch.numerics import NORM_EPSILON, RngStream, Workspace


def tiny_setup(seed=0, dims=(5, 6, 3), n_classes=4, scale=16.0, n=3):
    stream = RngStream(seed, "init")
    model, head = init_model(list(dims), n_classes, scale, stream)
    batch = RngStream(seed, "data").generator().normal(0.0, 1.0, (n, dims[0]))
    return model, head, batch


def allocating_forward(model, head, batch):
    """The allocating forward body, kept as the oracle: (cosines, the cache
    fields backward reads)."""
    x = np.asarray(batch, dtype=np.float64)
    acts, preacts = [x], []
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w.T + b
        preacts.append(z)
        acts.append(z if l == len(model.weights) - 1 else np.maximum(z, 0.0))
    raw = acts[-1]
    emb_norms = np.linalg.norm(raw, axis=1)
    emb_unit = raw / np.maximum(emb_norms, NORM_EPSILON)[:, None]
    head_norms = np.linalg.norm(head.class_weights, axis=1)
    head_unit = head.class_weights / np.maximum(head_norms, NORM_EPSILON)[:, None]
    cosines = np.clip(emb_unit @ head_unit.T, -1.0, 1.0)
    return cosines, (acts, preacts, emb_norms, emb_unit, head_norms, head_unit)


def allocating_normalize_backward(d_unit, unit, raw_norms):
    safe = raw_norms >= NORM_EPSILON
    inner = (unit * d_unit).sum(axis=1, keepdims=True)
    denom = np.where(safe, raw_norms, NORM_EPSILON)[:, None]
    d_raw = (d_unit - unit * inner) / denom
    return np.where(safe[:, None], d_raw, d_unit / NORM_EPSILON)


def allocating_backward(cache, d_cosines):
    """The allocating backward body, kept as the oracle."""
    dcos = np.asarray(d_cosines, dtype=np.float64)
    d_emb_unit = dcos @ cache.head_unit
    d_head_unit = dcos.T @ cache.emb_unit
    d_raw_emb = allocating_normalize_backward(d_emb_unit, cache.emb_unit, cache.emb_norms)
    d_head = allocating_normalize_backward(d_head_unit, cache.head_unit, cache.head_norms)
    model = cache.model
    n_layers = len(model.weights)
    grads_w = [None] * n_layers
    grads_b = [None] * n_layers
    d_out = d_raw_emb
    for l in range(n_layers - 1, -1, -1):
        dpre = d_out if l == n_layers - 1 else d_out * (cache.preacts[l] > 0)
        grads_w[l] = dpre.T @ cache.activations[l]
        grads_b[l] = dpre.sum(axis=0)
        if l > 0:
            d_out = dpre @ model.weights[l]
    return flatten(EmbeddingModel(grads_w, grads_b), ClassifierHead(d_head, cache.head.scale))


def freeze(*arrays):
    for array in arrays:
        array.flags.writeable = False


def bench_setup(n_classes, n=128, dims=(32, 128, 64)):
    """The benchmark's layer sizes, with an input row and a head row whose
    norms fall below NORM_EPSILON, so both normalisations take their guard
    branch (the biases start at zero, so the embedding scales with the input)."""
    model, head, batch = tiny_setup(seed=n_classes, dims=dims, n_classes=n_classes,
                                    scale=32.0, n=n)
    batch[3] *= 1e-14
    head.class_weights[1] *= 1e-14
    freeze(batch, head.class_weights, *model.weights, *model.biases)
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


class TestInPlaceOracle:
    @pytest.mark.parametrize("n_classes", [2, 40, 500])
    def test_forward_and_backward_match_the_allocating_form(self, n_classes):
        model, head, batch = bench_setup(n_classes)
        cosines, cache = forward(model, head, batch)
        assert 0 < cache.emb_norms[3] < NORM_EPSILON and 0 < cache.head_norms[1] < NORM_EPSILON
        expected, (acts, preacts, *normalised) = allocating_forward(model, head, batch)
        assert cosines.tobytes() == expected.tobytes()
        got = [*cache.activations, *cache.preacts, cache.emb_norms, cache.emb_unit,
               cache.head_norms, cache.head_unit]
        assert [a.tobytes() for a in got] == [a.tobytes() for a in [*acts, *preacts, *normalised]]
        upstream = RngStream(n_classes, "up").generator().normal(0.0, 1.0, cosines.shape)
        freeze(upstream, cache.cosines, cache.emb_norms, cache.emb_unit, cache.head_norms,
               cache.head_unit, *cache.activations, *cache.preacts)
        assert backward(cache, upstream).tobytes() == allocating_backward(cache, upstream).tobytes()

    @pytest.mark.parametrize("n_classes", [2, 40, 500])
    def test_one_workspace_serves_shorter_batches(self, n_classes):
        """A workspace refilled for a full batch, then a shorter one, then one
        row gives what a fresh allocation gives, byte for byte, each time."""
        model, head, batch = bench_setup(n_classes)
        workspace = Workspace()
        for rows in (128, 77, 1):
            x = batch[:rows]
            cosines, cache = forward(model, head, x, workspace)
            expected, (acts, preacts, *normalised) = allocating_forward(model, head, x)
            assert cosines.tobytes() == expected.tobytes()
            got = [*cache.activations, *cache.preacts, cache.emb_norms, cache.emb_unit,
                   cache.head_norms, cache.head_unit]
            assert [a.tobytes() for a in got] == [a.tobytes()
                                                  for a in [*acts, *preacts, *normalised]]
            upstream = RngStream(rows, "up").generator().normal(0.0, 1.0, cosines.shape)
            assert backward(cache, upstream).tobytes() == \
                allocating_backward(cache, upstream).tobytes()
        assert cosines.base is forward(model, head, batch, workspace)[0].base

    def test_a_workspace_follows_other_shapes(self):
        model, head, batch = bench_setup(40)
        workspace = Workspace()
        forward(model, head, batch[:8], workspace)
        for other_head, rows in ((head, 9), (ClassifierHead(head.class_weights[:39], 32.0), 8)):
            cosines, cache = forward(model, other_head, batch[:rows], workspace)
            assert cosines.tobytes() == allocating_forward(model, other_head,
                                                           batch[:rows])[0].tobytes()
            upstream = RngStream(rows, "up").generator().normal(0.0, 1.0, cosines.shape)
            assert backward(cache, upstream).tobytes() == \
                allocating_backward(cache, upstream).tobytes()

    def test_forward_peak_allocation(self):
        model, head, batch = bench_setup(500)
        forward(model, head, batch)
        tracemalloc.start()
        try:
            forward(model, head, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 128 * 500 * 8


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
