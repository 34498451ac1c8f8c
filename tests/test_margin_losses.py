"""Tests for the margin-loss family: the margin transforms, the two
probabilities, the factor/function pair connecting them, the unified loss,
and the analytic gradients. The scalar forms come from tests/oracles.py.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lfsearch.contracts import ContractViolation
from lfsearch.margin_losses import (
    MarginKind,
    MarginSpec,
    batch_loss_and_grad,
    margin_transform_batch,
    modulating_function,
    _margin_slope,
)
from lfsearch.numerics import log_sum_exp_rows
from oracles import (
    LogitRow,
    log_softmax_probability,
    margin_loss,
    margin_probability,
    margin_transform,
    modulating_factor,
    softmax_probability,
    unified_loss,
)

ALL_MARGINS = (
    MarginSpec.plain(),
    MarginSpec.angular(2),
    MarginSpec.additive_angular(0.5),
    MarginSpec.additive(0.35),
    MarginSpec.combined(2, 0.3, 0.2),
)


SIX_KINDS = ALL_MARGINS + (MarginSpec.unified(-10.0),)


def read_only(array):
    array = np.array(array)
    array.flags.writeable = False
    return array


def allocating_row_softmax_stats(z, y):
    """The allocating _row_softmax_stats the in-place one replaced, kept as
    the oracle."""
    idx = np.arange(z.shape[0])
    shifted = z - z[idx, y][:, None]
    wide = shifted.max(axis=1) >= 500.0
    e = np.exp(np.minimum(shifted, 500.0))
    e[idx, y] = 0.0
    others = e.sum(axis=1)
    log_p = -np.log1p(others)
    q = e / (1.0 + others)[:, None]
    if wide.any():
        zw = z[wide]
        yw = y[wide]
        iw = np.arange(zw.shape[0])
        lse = log_sum_exp_rows(zw)
        log_p[wide] = zw[iw, yw] - lse
        qw = np.exp(zw - lse[:, None])
        qw[iw, yw] = 0.0
        q[wide] = qw
    return log_p, -np.expm1(log_p), q


def allocating_loss_and_grad(spec, cosines, labels, scale):
    """The allocating batch_loss_and_grad body, kept as the oracle."""
    c = np.asarray(cosines, dtype=np.float64)
    y = np.asarray(labels)
    idx = np.arange(c.shape[0])
    if spec.kind in (MarginKind.UNIFIED, MarginKind.PLAIN):
        a = spec.a if spec.kind is MarginKind.UNIFIED else 0.0
        log_p, one_minus_p, q = allocating_row_softmax_stats(scale * c, y)
        losses = -log_p + np.log1p(-a * one_minus_p)
        factor = (1.0 - a) / (1.0 - a * one_minus_p)
        dcos = scale * q * factor[:, None]
        dcos[idx, y] = -scale * one_minus_p * factor
        return losses, dcos
    cos_y = c[idx, y]
    f = margin_transform_batch(spec, cos_y)
    slope = _margin_slope(spec, cos_y)
    z = scale * c
    z[idx, y] = scale * f
    log_p, one_minus_p, q = allocating_row_softmax_stats(z, y)
    losses = -log_p
    dcos = scale * q
    dcos[idx, y] = -scale * one_minus_p * slope
    return losses, dcos


def random_row(rng, k, scale=32.0):
    cosines = rng.uniform(-1.0, 1.0, k)
    return LogitRow(cosines, int(rng.integers(k)), scale)


class TestMarginSpec:
    def test_factory_validation(self):
        with pytest.raises(ContractViolation):
            MarginSpec.angular(0)
        with pytest.raises(ContractViolation):
            MarginSpec.additive_angular(0.0)
        with pytest.raises(ContractViolation):
            MarginSpec.additive(-0.1)
        with pytest.raises(ContractViolation):
            MarginSpec.unified(0.5)

    def test_unified_admits_zero(self):
        assert MarginSpec.unified(0.0).a == 0.0


class TestMarginTransform:
    def test_plain_is_identity(self):
        assert margin_transform(MarginSpec.plain(), 0.7) == 0.7

    def test_additive_subtracts(self):
        assert abs(margin_transform(MarginSpec.additive(0.35), 0.7) - 0.35) < 1e-15

    def test_angular_hand_value(self):
        # arccos(0.5) = pi/3, so cos(2 * pi/3) = -1/2.
        f = margin_transform(MarginSpec.angular(2), 0.5)
        assert abs(f - (-0.5)) < 1e-12

    def test_additive_angular_scalar_oracle(self):
        f = margin_transform(MarginSpec.additive_angular(0.5), 0.7)
        assert abs(f - math.cos(math.acos(0.7) + 0.5)) < 1e-12

    def test_combined_scalar_oracle(self):
        f = margin_transform(MarginSpec.combined(2, 0.3, 0.2), 0.5)
        assert abs(f - (math.cos(2.0 * math.acos(0.5) + 0.3) - 0.2)) < 1e-12

    def test_boundaries_stay_finite(self):
        for spec in ALL_MARGINS:
            assert math.isfinite(margin_transform(spec, 1.0))
            assert math.isfinite(margin_transform(spec, -1.0))

    def test_rejects_out_of_range_and_unified(self):
        with pytest.raises(ContractViolation):
            margin_transform(MarginSpec.plain(), 1.5)
        with pytest.raises(ContractViolation):
            margin_transform(MarginSpec.unified(-1.0), 0.5)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(4)
        cosines = rng.uniform(-1.0, 1.0, 64)
        for spec in ALL_MARGINS:
            batch = margin_transform_batch(spec, cosines)
            for i, c in enumerate(cosines):
                assert batch[i] == margin_transform(spec, float(c))


class TestSoftmaxProbability:
    def test_symmetry_gives_half(self):
        for s in (1.0, 16.0, 64.0):
            row = LogitRow(np.array([0.3, 0.3]), 0, s)
            assert abs(softmax_probability(row) - 0.5) < 1e-15

    def test_single_class_gives_one(self):
        assert softmax_probability(LogitRow(np.array([0.2]), 0, 32.0)) == 1.0

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            row = random_row(rng, 4, scale=32.0)
            z = row.scale * row.cosines
            naive = math.exp(z[row.label]) / np.exp(z).sum()
            p = softmax_probability(row)
            assert abs(p - naive) / naive < 1e-12

    def test_log_form_keeps_tail_near_one(self):
        # With a dominant target logit, 1 - p underflows in the linear
        # domain but log p must still carry it at relative precision.
        row = LogitRow(np.array([0.9, 0.2]), 0, 64.0)
        lp = log_softmax_probability(row)
        expected = -math.log1p(math.exp(64.0 * (0.2 - 0.9)))
        assert lp < 0.0
        assert abs(lp - expected) / abs(expected) < 1e-12


class TestMarginProbability:
    def test_plain_equals_softmax_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            row = random_row(rng, 6)
            assert margin_probability(MarginSpec.plain(), row) == softmax_probability(row)

    def test_additive_reduces_probability(self):
        rng = np.random.default_rng(7)
        spec = MarginSpec.additive(0.35)
        for _ in range(100):
            row = random_row(rng, 5)
            assert margin_probability(spec, row) < softmax_probability(row)

    def test_identity_composition_additive(self):
        # Additive(0.35) at s=32 keeps the scalar composition well inside
        # float64 conditioning, so the op chain itself must hit 1e-9.
        rng = np.random.default_rng(8)
        spec = MarginSpec.additive(0.35)
        for _ in range(200):
            row = random_row(rng, 3, scale=32.0)
            p = softmax_probability(row)
            a = modulating_factor(spec, float(row.cosines[row.label]), row.scale)
            composed = modulating_function(a, p) * p
            pm = margin_probability(spec, row)
            assert abs(pm - composed) / pm < 1e-9

    def test_rejects_unified(self):
        with pytest.raises(ContractViolation):
            margin_probability(MarginSpec.unified(-1.0), LogitRow(np.array([0.1, 0.2]), 0, 32.0))


class TestModulatingFactor:
    def test_plain_is_zero_everywhere(self):
        rng = np.random.default_rng(9)
        for c in rng.uniform(-1.0, 1.0, 50):
            assert modulating_factor(MarginSpec.plain(), float(c), 32.0) == 0.0

    def test_additive_exponential_oracle(self):
        a = modulating_factor(MarginSpec.additive(0.35), 0.7, 32.0)
        expected = 1.0 - math.exp(32.0 * 0.35)
        assert abs(a - expected) / abs(expected) < 1e-10
        assert abs(a - (-7.3129e4)) < 5.0

    def test_additive_angular_oracle(self):
        a = modulating_factor(MarginSpec.additive_angular(0.5), 0.7, 32.0)
        expected = 1.0 - math.exp(32.0 * (0.7 - math.cos(math.acos(0.7) + 0.5)))
        assert abs(a - expected) / abs(expected) < 1e-10

    def test_angular_overshoot_returned_as_is(self):
        # cos(2 theta) > cos(theta) once cos(theta) < -1/2, so the factor
        # goes positive and must come back honestly.
        a = modulating_factor(MarginSpec.angular(2), -0.8, 32.0)
        assert a > 0.0

    def test_additive_always_nonpositive(self):
        rng = np.random.default_rng(10)
        spec = MarginSpec.additive(0.35)
        for c in rng.uniform(-1.0, 1.0, 100):
            assert modulating_factor(spec, float(c), 32.0) <= 0.0

    def test_additive_angular_nonpositive_below_wrap(self):
        # cos(theta + m2) stays below cos(theta) only while theta + m2 <= pi;
        # past the wrap the factor goes positive just like the angular case.
        rng = np.random.default_rng(10)
        spec = MarginSpec.additive_angular(0.5)
        wrap = math.cos(math.pi - 0.5)
        for c in rng.uniform(wrap + 1e-6, 1.0, 100):
            assert modulating_factor(spec, float(c), 32.0) <= 0.0
        assert modulating_factor(spec, -0.999, 32.0) > 0.0


class TestModulatingFunction:
    def test_zero_factor_is_identity(self):
        for p in (1e-12, 0.25, 1.0):
            assert modulating_function(0.0, p) == 1.0

    def test_hand_values(self):
        assert modulating_function(-1.0, 0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert modulating_function(-10000.0, 0.9) == pytest.approx(1.0 / 1001.0, rel=1e-12)

    def test_rejects_positive_factor(self):
        with pytest.raises(ContractViolation):
            modulating_function(0.1, 0.5)

    def test_saturated_probability_with_huge_factor(self):
        # p == 1.0 with |a| >= 2**53 used to cancel the denominator to zero;
        # the stable grouping must return exactly 1.
        assert modulating_function(-1e300, 1.0) == 1.0
        assert modulating_function(-2.0 ** 60, 1.0) == 1.0

    def test_range_and_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            a = -math.exp(rng.uniform(-8.0, 8.0))
            p = rng.uniform(1e-9, 1.0)
            h = modulating_function(a, p)
            assert 0.0 < h <= 1.0
            assert h * p <= p

    def test_strictly_increasing_in_both_arguments(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            p = rng.uniform(1e-3, 1.0 - 1e-3)
            a_hi = rng.uniform(-40.0, -1e-3)
            a_lo = a_hi - rng.uniform(1e-3, 5.0)
            assert modulating_function(a_lo, p) < modulating_function(a_hi, p)
            p_lo = rng.uniform(1e-3, 0.5)
            p_hi = p_lo + rng.uniform(1e-3, 0.5)
            a = rng.uniform(-40.0, -1e-3)
            assert modulating_function(a, p_lo) < modulating_function(a, p_hi)


class TestUnifiedLoss:
    def test_zero_factor_matches_cross_entropy_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            row = random_row(rng, 7)
            assert unified_loss(0.0, row) == -log_softmax_probability(row)

    def test_uniform_row_gives_log2(self):
        row = LogitRow(np.array([0.4, 0.4]), 1, 32.0)
        assert abs(unified_loss(0.0, row) - math.log(2.0)) < 1e-15

    def test_composed_hand_value_gives_log3(self):
        # p = 0.5 on a symmetric row; h(-1, 0.5) = 2/3; -log(1/3) = log 3.
        row = LogitRow(np.array([0.4, 0.4]), 0, 32.0)
        assert abs(unified_loss(-1.0, row) - math.log(3.0)) < 1e-14

    def test_matches_additive_margin_with_inverted_factor(self):
        # Invert a = 1 - e^(s*m3): the additive margin m3 = log(1 - a)/s
        # reproduces the same training loss.
        rng = np.random.default_rng(14)
        a = -100.0
        s = 32.0
        m3 = math.log(1.0 - a) / s
        spec = MarginSpec.additive(m3)
        for _ in range(50):
            row = random_row(rng, 5, scale=s)
            lhs = unified_loss(a, row)
            rhs = margin_loss(spec, row)
            assert abs(lhs - rhs) / max(abs(rhs), 1e-12) < 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            row = random_row(rng, 4)
            a = -math.exp(rng.uniform(-5.0, 10.0))
            assert unified_loss(a, row) >= 0.0

    def test_rejects_positive_factor(self):
        with pytest.raises(ContractViolation):
            unified_loss(0.5, LogitRow(np.array([0.1, 0.2]), 0, 32.0))


class TestUnifiedLossGradient:
    def test_zero_factor_reduces_to_scaled_cross_entropy(self):
        rng = np.random.default_rng(16)
        for _ in range(30):
            row = random_row(rng, 6)
            z = row.scale * row.cosines
            p = np.exp(z - z.max())
            p /= p.sum()
            expected = row.scale * p
            expected[row.label] -= row.scale
            _, grads = batch_loss_and_grad(MarginSpec.unified(0.0), row.cosines[None, :],
                                           np.array([row.label]), row.scale)
            got = grads[0]
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(100):
            k = int(rng.integers(2, 8))
            cosines = rng.uniform(-0.95, 0.95, k)
            label = int(rng.integers(k))
            a = -math.exp(rng.uniform(-4.0, 6.0))
            _, grads = batch_loss_and_grad(MarginSpec.unified(a), cosines[None, :],
                                           np.array([label]), 32.0)
            grad = grads[0]
            for j in range(k):
                up = cosines.copy()
                up[j] += eps
                down = cosines.copy()
                down[j] -= eps
                fd = (unified_loss(a, LogitRow(up, label, 32.0))
                      - unified_loss(a, LogitRow(down, label, 32.0))) / (2.0 * eps)
                # Absolute floor covers near-zero components where the FD
                # truncation term dominates the quotient.
                assert abs(grad[j] - fd) <= 1e-5 * abs(fd) + 1e-7

    def test_symmetric_row_has_equal_off_label_components(self):
        _, grads = batch_loss_and_grad(MarginSpec.unified(-5.0), np.array([[0.2, 0.2, 0.2]]),
                                       np.array([1]), 32.0)
        assert grads[0, 0] == grads[0, 2]


class TestMarginLoss:
    def test_plain_uniform_gives_log4(self):
        row = LogitRow(np.array([0.1, 0.1, 0.1, 0.1]), 2, 32.0)
        assert abs(margin_loss(MarginSpec.plain(), row) - math.log(4.0)) < 1e-14

    def test_equals_unified_at_matching_factor(self):
        rng = np.random.default_rng(18)
        spec = MarginSpec.additive(0.35)
        for _ in range(100):
            row = random_row(rng, 5, scale=32.0)
            a = modulating_factor(spec, float(row.cosines[row.label]), row.scale)
            lhs = margin_loss(spec, row)
            rhs = unified_loss(a, row)
            assert abs(lhs - rhs) / max(abs(lhs), 1e-12) < 1e-9

    def test_additive_loss_non_increasing_in_target_cosine(self):
        spec = MarginSpec.additive(0.35)
        others = np.array([0.1, -0.4, 0.3])
        previous = None
        for c in np.linspace(-1.0, 1.0, 201):
            row = LogitRow(np.concatenate(([c], others)), 0, 32.0)
            value = margin_loss(spec, row)
            if previous is not None:
                assert value <= previous + 1e-12
            previous = value


class TestBatchLossAndGrad:
    def test_matches_scalar_unified(self):
        rng = np.random.default_rng(19)
        cosines = rng.uniform(-1.0, 1.0, (32, 6))
        labels = rng.integers(0, 6, 32)
        spec = MarginSpec.unified(-50.0)
        losses, grads = batch_loss_and_grad(spec, cosines, labels, 32.0)
        for i in range(32):
            row = LogitRow(cosines[i], int(labels[i]), 32.0)
            assert abs(losses[i] - unified_loss(-50.0, row)) < 1e-12 * max(1.0, losses[i])
            _, row_grads = batch_loss_and_grad(spec, cosines[i:i + 1], labels[i:i + 1], 32.0)
            assert np.allclose(grads[i], row_grads[0], rtol=1e-12, atol=1e-12)

    def test_plain_routes_through_zero_factor_bitwise(self):
        rng = np.random.default_rng(20)
        cosines = rng.uniform(-1.0, 1.0, (16, 5))
        labels = rng.integers(0, 5, 16)
        plain_losses, plain_grads = batch_loss_and_grad(MarginSpec.plain(), cosines, labels, 32.0)
        unified_losses, unified_grads = batch_loss_and_grad(MarginSpec.unified(0.0), cosines, labels, 32.0)
        assert np.array_equal(plain_losses, unified_losses)
        assert np.array_equal(plain_grads, unified_grads)

    def test_margin_kinds_match_scalar_loss(self):
        rng = np.random.default_rng(21)
        cosines = rng.uniform(-1.0, 1.0, (24, 4))
        labels = rng.integers(0, 4, 24)
        for spec in ALL_MARGINS:
            losses, _ = batch_loss_and_grad(spec, cosines, labels, 32.0)
            for i in range(24):
                row = LogitRow(cosines[i], int(labels[i]), 32.0)
                expected = margin_loss(spec, row)
                assert abs(losses[i] - expected) / max(abs(expected), 1e-12) < 1e-11

    def test_margin_gradients_match_central_differences(self):
        rng = np.random.default_rng(22)
        eps = 1e-6
        for spec in (MarginSpec.additive(0.35), MarginSpec.additive_angular(0.5),
                     MarginSpec.combined(2, 0.3, 0.2)):
            cosines = rng.uniform(-0.9, 0.9, (4, 5))
            labels = rng.integers(0, 5, 4)
            _, grads = batch_loss_and_grad(spec, cosines, labels, 32.0)
            for i in range(4):
                for j in range(5):
                    up = cosines.copy()
                    up[i, j] += eps
                    down = cosines.copy()
                    down[i, j] -= eps
                    lu, _ = batch_loss_and_grad(spec, up, labels, 32.0)
                    ld, _ = batch_loss_and_grad(spec, down, labels, 32.0)
                    fd = (lu[i] - ld[i]) / (2.0 * eps)
                    assert abs(grads[i, j] - fd) <= 1e-5 * abs(fd) + 1e-7

    @pytest.mark.parametrize("k", [2, 40, 500])
    @pytest.mark.parametrize("spec", SIX_KINDS, ids=lambda spec: spec.kind.value)
    def test_matches_the_allocating_form_bit_for_bit(self, spec, k):
        rng = np.random.default_rng(k)
        n = 128
        cosines = read_only(rng.uniform(-1.0, 1.0, (n, k)))
        labels = read_only(rng.integers(0, k, n))
        spread = cosines.max(axis=1) - cosines[np.arange(n), labels]
        # At s = 400 a cosine spread >= 1.25 takes the max-shift fallback.
        assert 0 < int((spread >= 1.25).sum()) < n
        for scale in (32.0, 400.0):
            losses, grads = batch_loss_and_grad(spec, cosines, labels, scale)
            expected_losses, expected_grads = allocating_loss_and_grad(spec, cosines, labels,
                                                                       scale)
            assert losses.tobytes() == expected_losses.tobytes()
            assert grads.tobytes() == expected_grads.tobytes()

    @pytest.mark.parametrize("spec", [MarginSpec.unified(-10.0), MarginSpec.additive(0.35)],
                             ids=lambda spec: spec.kind.value)
    def test_peak_allocation_stays_near_one_batch_matrix(self, spec):
        n, k = 128, 500
        rng = np.random.default_rng(23)
        cosines = rng.uniform(-1.0, 1.0, (n, k))
        labels = rng.integers(0, k, n)
        batch_loss_and_grad(spec, cosines, labels, 32.0)
        tracemalloc.start()
        try:
            batch_loss_and_grad(spec, cosines, labels, 32.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * k * 8
