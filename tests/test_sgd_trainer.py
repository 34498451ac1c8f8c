"""Tests for the inner training loop: the step schedule, the flat training
state, momentum SGD arithmetic, single-epoch passes, and candidate training
from a shared snapshot.
"""

import logging
import tracemalloc

import numpy as np
import pytest

from lfsearch.checkpoint import param_digest
from lfsearch.contracts import ContractViolation
from lfsearch.datasets import LabeledDataset, SyntheticSpec, generate_synthetic
from lfsearch.embed_model import (ClassifierHead, EmbeddingModel, flatten, forward, init_model,
                                  unflatten)
from lfsearch.margin_losses import MarginSpec, batch_loss_and_grad, margin_transform_batch
from lfsearch.numerics import RngStream, Workspace
from lfsearch.sgd_trainer import (
    InProcessCandidates,
    LrSchedule,
    NonFiniteTrainingError,
    SgdConfig,
    TrainState,
    sgd_step,
    train_candidates,
    train_epoch,
)


def small_problem(seed=0):
    data = generate_synthetic(SyntheticSpec(4, 8, 5, 0.1, seed))
    model, head = init_model([8, 8], 4, 16.0, RngStream(seed, "init"))
    return data, TrainState.fresh(model, head)


def in_process(state, factors, data, config, lr, epoch_stream):
    """train_candidates in this process, each candidate scored 0."""
    return train_candidates(state, factors, lr, epoch_stream,
                            InProcessCandidates(data, config, lambda trained, workspace: 0.0))


def scalar_state(w=1.0):
    model = EmbeddingModel([np.array([[w]])], [np.array([0.0])])
    head = ClassifierHead(np.zeros((2, 1)), 8.0)
    return TrainState.fresh(model, head)


def scalar_grads(g):
    return flatten(EmbeddingModel([np.array([[g]])], [np.array([0.0])]),
                   ClassifierHead(np.zeros((2, 1)), 8.0))


def velocity_model(state):
    return unflatten(state.velocity, state.model, state.head)[0]


def per_array_step(arrays, velocities, grads, config, lr):
    """The per-array momentum step the flat sgd_step replaced, kept as the oracle."""
    stepped, new_velocities = [], []
    for param, velocity, grad in zip(arrays, velocities, grads):
        new_velocity = config.momentum * velocity + (grad + config.weight_decay * param)
        stepped.append(param - lr * new_velocity)
        new_velocities.append(new_velocity)
    return stepped, new_velocities


class TestSgdConfig:
    def test_validation(self):
        with pytest.raises(ContractViolation):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ContractViolation):
            SgdConfig(momentum=1.0)
        with pytest.raises(ContractViolation):
            SgdConfig(weight_decay=-0.1)
        with pytest.raises(ContractViolation):
            SgdConfig(batch_size=0)


class TestLrSchedule:
    def test_step_drops(self):
        sched = LrSchedule(0.1, (15, 25), 10.0)
        assert sched.lr_at(1) == 0.1
        assert sched.lr_at(14) == 0.1
        assert sched.lr_at(15) == pytest.approx(0.01, rel=1e-15)
        assert sched.lr_at(24) == pytest.approx(0.01, rel=1e-15)
        assert sched.lr_at(25) == pytest.approx(0.001, rel=1e-15)
        assert sched.lr_at(100) == pytest.approx(0.001, rel=1e-15)

    def test_no_drops_is_constant(self):
        sched = LrSchedule(0.05)
        assert sched.lr_at(1) == sched.lr_at(50) == 0.05

    def test_validation(self):
        with pytest.raises(ContractViolation):
            LrSchedule(0.0)
        with pytest.raises(ContractViolation):
            LrSchedule(0.1, drop_factor=1.0)
        with pytest.raises(ContractViolation):
            LrSchedule(0.1, (25, 15))
        with pytest.raises(ContractViolation):
            LrSchedule(0.1, (0,))
        with pytest.raises(ContractViolation):
            LrSchedule(0.1).lr_at(0)


class TestSgdStep:
    def test_momentum_hand_values(self):
        config = SgdConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        state = scalar_state(1.0)
        state = sgd_step(state, scalar_grads(0.1), config, 0.1)
        # v1 = 0.1, w1 = 1 - 0.1*0.1 = 0.99
        assert abs(state.model.weights[0][0, 0] - 0.99) < 1e-15
        assert abs(velocity_model(state).weights[0][0, 0] - 0.1) < 1e-15
        state = sgd_step(state, scalar_grads(0.1), config, 0.1)
        # v2 = 0.9*0.1 + 0.1 = 0.19, w2 = 0.99 - 0.019 = 0.971
        assert abs(state.model.weights[0][0, 0] - 0.971) < 1e-15
        assert abs(velocity_model(state).weights[0][0, 0] - 0.19) < 1e-15

    def test_weight_decay_folds_into_gradient(self):
        config = SgdConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.01)
        state = sgd_step(scalar_state(1.0), scalar_grads(0.0), config, 0.1)
        # v = 0.01 * 1.0, w = 1 - 0.1 * 0.01 = 0.999
        assert abs(state.model.weights[0][0, 0] - 0.999) < 1e-15

    def test_preserves_epoch_and_scale(self):
        config = SgdConfig()
        state = scalar_state()
        stepped = sgd_step(state, scalar_grads(0.1), config, 0.1)
        assert stepped.epoch == state.epoch
        assert stepped.head.scale == state.head.scale

    def test_shape_mismatch_rejected(self):
        bad = flatten(EmbeddingModel([np.zeros((2, 2))], [np.zeros(1)]),
                      ClassifierHead(np.zeros((2, 1)), 8.0))
        with pytest.raises(ContractViolation):
            sgd_step(scalar_state(), bad, SgdConfig(), 0.1)

    def test_matches_the_per_array_formula_bit_for_bit(self):
        gen = np.random.default_rng(0)
        for trial in range(20):
            dims = [int(d) for d in gen.integers(1, 9, size=int(gen.integers(2, 5)))]
            model, head = init_model(dims, int(gen.integers(2, 6)), 16.0,
                                     RngStream(trial, "init"))
            config = SgdConfig(momentum=float(gen.uniform(0.0, 0.99)),
                               weight_decay=float(gen.uniform(0.0, 0.01)))
            state = TrainState.fresh(model, head)
            arrays = [a.copy() for a in [*model.weights, *model.biases, head.class_weights]]
            velocities = [np.zeros_like(a) for a in arrays]
            for _ in range(5):
                lr = float(gen.uniform(0.001, 0.5))
                grad_arrays = [gen.normal(0.0, 1.0, a.shape) for a in arrays]
                n_layers = len(model.weights)
                grads = flatten(EmbeddingModel(grad_arrays[:n_layers], grad_arrays[n_layers:-1]),
                                ClassifierHead(grad_arrays[-1], head.scale))
                state = sgd_step(state, grads, config, lr)
                arrays, velocities = per_array_step(arrays, velocities, grad_arrays, config, lr)
                got = [*state.model.weights, *state.model.biases, state.head.class_weights]
                vel, vel_head = unflatten(state.velocity, state.model, state.head)
                got_vel = [*vel.weights, *vel.biases, vel_head.class_weights]
                for want, have in zip(arrays + velocities, got + got_vel):
                    assert want.tobytes() == have.tobytes()


class TestTrainState:
    def test_model_and_head_are_views_of_params(self):
        _, state = small_problem()
        state.model.weights[0][1, 2] = 4.0
        state.head.class_weights[0, 0] = -2.0
        assert flatten(state.model, state.head).tobytes() == state.params.tobytes()
        assert state.velocity.shape == state.params.shape

    def test_copy_is_deep(self):
        _, state = small_problem()
        dup = state.copy()
        dup.model.weights[0][0, 0] += 1.0
        dup.head.class_weights[0, 0] += 1.0
        dup.velocity[0] += 1.0
        assert state.model.weights[0][0, 0] != dup.model.weights[0][0, 0]
        assert state.head.class_weights[0, 0] != dup.head.class_weights[0, 0]
        assert state.velocity[0] == 0.0
        assert dup.head.scale == state.head.scale
        assert dup.params[0] == dup.model.weights[0][0, 0]


class TestTrainEpoch:
    def test_deterministic(self):
        data, state = small_problem()
        config = SgdConfig(batch_size=8)
        out_a, loss_a = train_epoch(state.copy(), MarginSpec.plain(), data,
                                    config, 0.05, RngStream(1, "epoch"))
        out_b, loss_b = train_epoch(state.copy(), MarginSpec.plain(), data,
                                    config, 0.05, RngStream(1, "epoch"))
        assert loss_a == loss_b
        assert param_digest(out_a.model, out_a.head) == param_digest(out_b.model, out_b.head)

    def test_does_not_mutate_input_state(self):
        data, state = small_problem(seed=1)
        before = param_digest(state.model, state.head)
        train_epoch(state, MarginSpec.plain(), data, SgdConfig(batch_size=8),
                    0.05, RngStream(2, "epoch"))
        assert param_digest(state.model, state.head) == before
        assert state.epoch == 0

    def test_epoch_counter_increments(self):
        data, state = small_problem(seed=2)
        out, _ = train_epoch(state, MarginSpec.plain(), data, SgdConfig(batch_size=8),
                             0.05, RngStream(3, "epoch"))
        assert out.epoch == 1

    def test_loss_decreases_on_easy_data(self):
        data, state = small_problem(seed=3)
        config = SgdConfig(batch_size=8)
        losses = []
        for epoch in range(3):
            state, mean_loss = train_epoch(state, MarginSpec.plain(), data, config,
                                           0.05, RngStream(4, f"epoch{epoch}"))
            losses.append(mean_loss)
        assert losses[-1] < losses[0]

    def test_mean_loss_is_pre_update_batch_mean(self):
        # With a single batch the reported mean is the loss of the incoming
        # parameters, whatever the shuffle order.
        data, state = small_problem(seed=4)
        config = SgdConfig(batch_size=1000)
        _, mean_loss = train_epoch(state, MarginSpec.plain(), data, config,
                                   0.05, RngStream(5, "epoch"))
        cosines, _ = forward(state.model, state.head, data.features)
        expected, _ = batch_loss_and_grad(MarginSpec.plain(), cosines, data.labels,
                                          state.head.scale)
        assert abs(mean_loss - expected.mean()) < 1e-12

    def test_angular_overshoot_warns_once(self, caplog):
        # Embedding (1, 0) against a class row (-1, 0) pins the target cosine
        # at -1, where cos(2 * theta) wraps above it.
        model = EmbeddingModel([np.eye(2)], [np.zeros(2)])
        head = ClassifierHead(np.array([[-1.0, 0.0], [0.0, 1.0]]), 8.0)
        data = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        state = TrainState.fresh(model, head)
        with caplog.at_level(logging.WARNING, logger="lfsearch.sgd_trainer"):
            train_epoch(state, MarginSpec.angular(2), data, SgdConfig(batch_size=1),
                        0.01, RngStream(6, "epoch"))
        hits = [r for r in caplog.records if "factor is positive" in r.message]
        assert len(hits) == 1

    def test_angular_overshoot_warns_once_per_run(self, caplog, monkeypatch):
        # The same overshooting problem over three epochs: one warning, and no
        # margin check once the state has recorded it.
        model = EmbeddingModel([np.eye(2)], [np.zeros(2)])
        head = ClassifierHead(np.array([[-1.0, 0.0], [0.0, 1.0]]), 8.0)
        data = LabeledDataset(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        state = TrainState.fresh(model, head)
        checks = []

        def counted(spec, cos_y):
            checks.append(cos_y.size)
            return margin_transform_batch(spec, cos_y)

        monkeypatch.setattr("lfsearch.sgd_trainer.margin_transform_batch", counted)
        with caplog.at_level(logging.WARNING, logger="lfsearch.sgd_trainer"):
            for epoch in range(3):
                state, _ = train_epoch(state, MarginSpec.angular(2), data,
                                       SgdConfig(batch_size=1), 0.01,
                                       RngStream(6, f"epoch{epoch}"))
                assert state.overshoot_warned
                if epoch == 0:
                    first_epoch_checks = len(checks)
        hits = [r for r in caplog.records if "factor is positive" in r.message]
        assert len(hits) == 1
        assert len(checks) == first_epoch_checks
        assert state.copy().overshoot_warned

    def test_no_warning_for_well_posed_margin(self, caplog):
        data, state = small_problem(seed=5)
        with caplog.at_level(logging.WARNING, logger="lfsearch.sgd_trainer"):
            train_epoch(state, MarginSpec.additive(0.35), data, SgdConfig(batch_size=8),
                        0.05, RngStream(7, "epoch"))
        assert not caplog.records

    def test_non_finite_epoch_raises_a_named_error(self):
        data, state = small_problem(seed=6)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteTrainingError,
                                                      match=r"epoch 1 at a=-5: mean loss nan"):
            in_process(state, [-5.0], data, SgdConfig(batch_size=8), 1e300,
                       RngStream(8, "epoch"))

    def test_non_finite_parameters_raise_behind_a_finite_loss(self):
        # One batch: the reported loss is taken before the step that breaks
        # the parameters, so only the parameter check can catch it.
        data, state = small_problem(seed=6)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteTrainingError,
                                                      match=r"epoch 1: mean loss \d"):
            train_epoch(state, MarginSpec.plain(), data, SgdConfig(batch_size=1000),
                        float("inf"), RngStream(8, "epoch"))


class TestWorkspace:
    def test_a_shared_workspace_changes_no_bit(self):
        """Epochs through one workspace, warmed on other shapes first, equal
        epochs that allocate their own arrays."""
        workspace = Workspace()
        for seed, classes, batch_size in ((0, 4, 8), (1, 6, 7), (2, 4, 64), (3, 4, 8)):
            data = generate_synthetic(SyntheticSpec(classes, 8, 5, 0.1, seed))
            model, head = init_model([8, 12, 8], classes, 16.0, RngStream(seed, "init"))
            state = TrainState.fresh(model, head)
            args = (MarginSpec.unified(-5.0), data, SgdConfig(batch_size=batch_size), 0.05,
                    RngStream(seed, "epoch"))
            shared, shared_loss = train_epoch(state, *args, workspace)
            alone, alone_loss = train_epoch(state, *args)
            assert shared_loss == alone_loss
            assert shared.params.tobytes() == alone.params.tobytes()
            assert shared.velocity.tobytes() == alone.velocity.tobytes()

    def test_warm_epoch_peak_allocation(self):
        """A desk-shape epoch (batch 128, 32 -> 128 -> 64, K = 40) through a
        warmed workspace allocates little beyond the copy of its state."""
        data = generate_synthetic(SyntheticSpec(40, 32, 40, 0.35, 0))
        model, head = init_model([32, 128, 64], 40, 32.0, RngStream(0, "init"))
        state = TrainState.fresh(model, head)
        workspace = Workspace()
        args = (MarginSpec.unified(-10.0), data, SgdConfig(), 0.1, RngStream(1, "epoch"),
                workspace)
        train_epoch(state, *args)
        tracemalloc.start()
        try:
            train_epoch(state, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestTrainCandidates:
    def test_identical_factors_give_identical_results(self):
        data, state = small_problem(seed=6)
        config = SgdConfig(batch_size=8)
        results = in_process(state, [-5.0, -5.0], data, config, 0.05,
                             RngStream(8, "epoch"))
        digests = [param_digest(r.state.model, r.state.head) for r in results]
        assert digests[0] == digests[1]
        assert results[0].mean_loss == results[1].mean_loss

    def test_matches_direct_train_epoch(self):
        data, state = small_problem(seed=7)
        config = SgdConfig(batch_size=8)
        outcome, = in_process(state, [-5.0], data, config, 0.05,
                              RngStream(9, "epoch"))
        cand_state, cand_loss = outcome.state, outcome.mean_loss
        direct_state, direct_loss = train_epoch(state.copy(), MarginSpec.unified(-5.0),
                                                data, config, 0.05, RngStream(9, "epoch"))
        assert cand_loss == direct_loss
        assert param_digest(cand_state.model, cand_state.head) == \
            param_digest(direct_state.model, direct_state.head)

    def test_results_follow_input_order(self):
        data, state = small_problem(seed=9)
        config = SgdConfig(batch_size=8)
        factors = [0.0, -50.0]
        both = in_process(state, factors, data, config, 0.05,
                          RngStream(11, "epoch"))
        solo = [in_process(state, [a], data, config, 0.05,
                           RngStream(11, "epoch"))[0] for a in factors]
        for got, want in zip(both, solo):
            assert got.mean_loss == want.mean_loss
            assert param_digest(got.state.model, got.state.head) == \
                param_digest(want.state.model, want.state.head)

    def test_input_state_is_untouched(self):
        data, state = small_problem(seed=10)
        before = param_digest(state.model, state.head)
        in_process(state, [-1.0, -2.0], data, SgdConfig(batch_size=8),
                   0.05, RngStream(12, "epoch"))
        assert param_digest(state.model, state.head) == before

    def test_validation(self):
        data, state = small_problem(seed=11)
        config = SgdConfig(batch_size=8)
        with pytest.raises(ContractViolation):
            in_process(state, [], data, config, 0.05, RngStream(13, "epoch"))
        with pytest.raises(ContractViolation):
            in_process(state, [0.5], data, config, 0.05, RngStream(13, "epoch"))
