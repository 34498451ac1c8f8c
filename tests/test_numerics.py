"""Tests for the numeric substrate: stable log-sum-exp, row normalization,
and the label-splittable random streams everything else seeds from. The
one-vector forms in tests/oracles.py are the reference for the row forms.
"""

import math

import numpy as np
import pytest

from lfsearch import numerics
from lfsearch.contracts import ContractViolation
from lfsearch.numerics import (RngStream, blas_environment, l2_normalize_rows, log_sum_exp_rows,
                               one_blas_thread, sample_gaussian)
from oracles import l2_normalize, log_sum_exp


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert abs(log_sum_exp_rows(np.array([[0.0, 0.0]]))[0] - math.log(2.0)) < 1e-15

    def test_single_term_is_identity(self):
        assert log_sum_exp_rows(np.array([[3.25]]))[0] == 3.25

    def test_matches_naive_at_moderate_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.uniform(-30.0, 30.0, size=rng.integers(1, 12))
            naive = math.log(np.exp(z).sum())
            assert abs(log_sum_exp_rows(z[None, :])[0] - naive) < 1e-12 * max(1.0, abs(naive))

    def test_no_overflow_at_large_logits(self):
        value = log_sum_exp_rows(np.array([[1000.0, 1000.0]]))[0]
        assert abs(value - (1000.0 + math.log(2.0))) < 1e-12

    def test_rows_agree_with_scalar(self):
        rng = np.random.default_rng(1)
        matrix = rng.uniform(-50.0, 50.0, size=(16, 7))
        rows = log_sum_exp_rows(matrix)
        for i in range(16):
            assert abs(rows[i] - log_sum_exp(matrix[i])) < 1e-12


class TestNormalize:
    def test_three_four_five(self):
        unit = l2_normalize_rows(np.array([[3.0, 4.0]]))[0]
        assert np.allclose(unit, [0.6, 0.8], atol=1e-15)

    def test_zero_vector_stays_finite(self):
        unit = l2_normalize_rows(np.zeros((1, 4)))[0]
        assert np.all(np.isfinite(unit))
        assert np.all(unit == 0.0)

    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(2)
        rows = l2_normalize_rows(rng.normal(size=(40, 9)))
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_rows_match_vector_normalization(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(10, 5))
        rows = l2_normalize_rows(m)
        for i in range(10):
            assert np.allclose(rows[i], l2_normalize(m[i]), atol=1e-15)


class TestRngStream:
    def test_same_seed_and_label_reproduce(self):
        a = RngStream(9, "x").generator().random(8)
        b = RngStream(9, "x").generator().random(8)
        assert np.array_equal(a, b)

    def test_different_labels_decorrelate(self):
        a = RngStream(9, "x").generator().random(8)
        b = RngStream(9, "y").generator().random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_decorrelate(self):
        a = RngStream(9, "x").generator().random(8)
        b = RngStream(10, "x").generator().random(8)
        assert not np.array_equal(a, b)

    def test_child_appends_to_label_path(self):
        nested = RngStream(5, "a").child("b").generator().random(4)
        flat = RngStream(5, "a/b").generator().random(4)
        assert np.array_equal(nested, flat)

    def test_child_independent_of_parent(self):
        parent = RngStream(5, "a")
        before = parent.child("b").generator().random(4)
        parent.generator().random(100)
        after = parent.child("b").generator().random(4)
        assert np.array_equal(before, after)

    def test_frozen_draws(self):
        # Pinned values guard the key derivation against silent changes.
        root = RngStream(42, "root")
        assert np.allclose(
            root.generator().random(3),
            [0.7557770087695697, 0.9709431038018234, 0.051891775378727245],
            rtol=0.0, atol=0.0)
        assert np.allclose(
            root.child("a").child("b").generator().random(2),
            [0.3938277163912771, 0.2318578426047423],
            rtol=0.0, atol=0.0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ContractViolation):
            RngStream(-1, "x")
        with pytest.raises(ContractViolation):
            RngStream(2 ** 64, "x")


class TestSampleGaussian:
    def test_deterministic_per_stream(self):
        s = RngStream(11, "g")
        assert np.array_equal(sample_gaussian(s, -1.0, 0.2, 6),
                              sample_gaussian(s, -1.0, 0.2, 6))

    def test_moments(self):
        draws = sample_gaussian(RngStream(12, "g"), -3.0, 0.5, 200_000)
        assert abs(draws.mean() + 3.0) < 0.01
        assert abs(draws.std() - 0.5) < 0.01

    def test_rejects_bad_sigma(self):
        with pytest.raises(ContractViolation):
            sample_gaussian(RngStream(1, "g"), 0.0, 0.0, 4)


class FakeOpenblas:
    """The two thread-count calls of the bundled OpenBLAS, recording each
    count set."""

    def __init__(self, threads):
        self.threads = threads
        self.set_calls = []

    def scipy_openblas_get_num_threads64_(self):
        return self.threads

    def scipy_openblas_set_num_threads64_(self, count):
        self.set_calls.append(count)
        self.threads = count


class TestOneBlasThread:
    def test_a_count_of_one_is_left_alone(self, monkeypatch):
        # A setter call would restart the thread pool that OpenBLAS shuts
        # down in a forked child.
        lib = FakeOpenblas(1)
        monkeypatch.setattr(numerics, "_openblas", lambda: lib)
        with one_blas_thread():
            inside = blas_environment()
        assert lib.set_calls == []
        assert (inside["blas_threads"], inside["pinned"]) == (1, True)
        assert blas_environment()["pinned"] is False

    def test_nested_pins_stay_pinned(self, monkeypatch):
        lib = FakeOpenblas(4)
        monkeypatch.setattr(numerics, "_openblas", lambda: lib)
        with one_blas_thread():
            with one_blas_thread():
                pass
            assert blas_environment()["pinned"] is True
        assert lib.set_calls == [1, 4]
        assert blas_environment()["pinned"] is False

    def test_without_the_library_the_body_runs_unpinned(self, monkeypatch):
        monkeypatch.setattr(numerics, "_openblas", lambda: None)
        with one_blas_thread():
            inside = blas_environment()
        assert (inside["blas_threads"], inside["pinned"]) == (None, False)
