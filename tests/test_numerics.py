"""Tests for the numeric substrate: stable log-sum-exp, row normalization,
and the label-splittable random streams everything else seeds from. The
one-vector forms in tests/oracles.py are the reference for the row forms.
"""

import math

import numpy as np
import pytest

from lfsearch import numerics
from lfsearch.contracts import ContractViolation
from lfsearch.numerics import (NORM_EPSILON, RngStream, blas_environment, l2_normalize_rows,
                               log_sum_exp_rows, one_blas_thread)
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

    def test_bit_for_bit_the_guarded_numpy_norm_form(self):
        """The same bytes as numpy's norm over its guard, on random rows, a
        zero row and subnormal rows, and in place; the rows near 1e300,
        whose squares overflow, come out of unit length."""
        rng = np.random.default_rng(4)
        m = np.concatenate([rng.normal(size=(50, 7)), np.zeros((1, 7)),
                            rng.normal(size=(4, 7)) * 1e-310,
                            rng.normal(size=(4, 7)) * 1e300])
        finite = slice(0, 55)
        shrunk = m[55:] / 1e300
        norms = np.linalg.norm(m[finite], axis=1, keepdims=True)
        want = m[finite] / np.maximum(norms, NORM_EPSILON)
        with np.errstate(over="ignore"):
            assert l2_normalize_rows(m)[finite].tobytes() == want.tobytes()
            got_norms, guards = np.empty(m.shape[0]), np.empty(m.shape[0])
            assert l2_normalize_rows(m, got_norms, guards, unit=m) is m
        assert m[finite].tobytes() == want.tobytes()
        assert got_norms[finite].tobytes() == norms[:, 0].tobytes()
        assert guards[finite].tobytes() == np.maximum(norms[:, 0], NORM_EPSILON).tobytes()
        assert np.allclose(np.linalg.norm(m[55:], axis=1), 1.0, rtol=0.0, atol=1e-15)
        assert np.allclose(got_norms[55:] / 1e300, np.linalg.norm(shrunk, axis=1),
                           rtol=1e-15, atol=0.0)
        assert np.array_equal(guards[55:], got_norms[55:])

    def test_a_row_whose_squares_overflow_has_unit_length(self):
        """A (1e200, 1e200) row, and rows near the largest float, normalise
        to unit length and keep their norms; rows beside them keep their
        bytes, and a row with a non-finite entry keeps its non-finite norm."""
        big = np.finfo(np.float64).max / 4
        m = np.array([[1e200, 1e200], [3.0, 4.0], [big, -big], [np.inf, 1.0],
                      [np.nan, 1.0]])
        norms = np.empty(5)
        with np.errstate(over="ignore", invalid="ignore"):
            unit = l2_normalize_rows(m, norms)
        assert np.allclose(unit[[0, 2]], [[0.5 ** 0.5, 0.5 ** 0.5], [0.5 ** 0.5, -0.5 ** 0.5]],
                           rtol=0.0, atol=1e-15)
        assert unit[1].tobytes() == np.array([0.6, 0.8]).tobytes()
        assert norms[:3] == pytest.approx([2 ** 0.5 * 1e200, 5.0, 2 ** 0.5 * big], rel=1e-15)
        assert norms[3] == np.inf and np.isnan(norms[4])
        assert np.isnan(unit[3, 0]) and unit[3, 1] == 0.0
        assert np.isnan(unit[4]).all()


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
