"""Tests for dense Fisher Hessians and their block diagonals (Eqs. 2, 3, 14, 15)."""

import numpy as np
import pytest

from repro.fisher.hessian import (
    block_diagonal_of_sum,
    point_block_coefficients,
    point_hessian_dense,
    sum_hessian_dense,
)
from tests.conftest import random_probabilities


@pytest.fixture
def rng():
    return np.random.default_rng(2)


class TestPointHessian:
    def test_shape(self, rng):
        x = rng.standard_normal(4)
        h = random_probabilities(rng, 1, 3)[0]
        assert point_hessian_dense(x, h).shape == (12, 12)

    def test_symmetric(self, rng):
        x = rng.standard_normal(5)
        h = random_probabilities(rng, 1, 4)[0]
        H = point_hessian_dense(x, h)
        np.testing.assert_allclose(H, H.T, rtol=1e-12)

    def test_positive_semidefinite(self, rng):
        x = rng.standard_normal(3)
        h = random_probabilities(rng, 1, 4)[0]
        eigenvalues = np.linalg.eigvalsh(point_hessian_dense(x, h))
        assert np.all(eigenvalues > -1e-10)

    def test_kronecker_structure(self, rng):
        """H_i = (diag(h) - h h^T) ⊗ x x^T exactly."""

        x = rng.standard_normal(3)
        h = random_probabilities(rng, 1, 2)[0]
        expected = np.kron(np.diag(h) - np.outer(h, h), np.outer(x, x))
        np.testing.assert_allclose(point_hessian_dense(x, h), expected, rtol=1e-12)

    def test_rank_at_most_c_minus_one(self, rng):
        """diag(h) - hh^T annihilates the all-ones vector, so rank(H_i) <= c-1."""

        x = rng.standard_normal(4)
        h = random_probabilities(rng, 1, 3)[0]
        H = point_hessian_dense(x, h)
        rank = np.linalg.matrix_rank(H, tol=1e-10)
        assert rank <= 2

    def test_invalid_probabilities_rejected(self, rng):
        with pytest.raises(ValueError):
            point_hessian_dense(rng.standard_normal(3), np.array([0.9, 0.9]))


class TestSumHessian:
    def test_equals_sum_of_point_hessians(self, rng):
        X = rng.standard_normal((6, 3))
        H = random_probabilities(rng, 6, 3)
        total = sum_hessian_dense(X, H)
        expected = sum(point_hessian_dense(X[i], H[i]) for i in range(6))
        np.testing.assert_allclose(total, expected, rtol=1e-10)

    def test_weights_scale_contributions(self, rng):
        X = rng.standard_normal((4, 3))
        H = random_probabilities(rng, 4, 3)
        w = np.array([2.0, 0.0, 1.0, 0.5])
        total = sum_hessian_dense(X, H, weights=w)
        expected = sum(w[i] * point_hessian_dense(X[i], H[i]) for i in range(4))
        np.testing.assert_allclose(total, expected, rtol=1e-10)

    def test_zero_weights_give_zero_matrix(self, rng):
        X = rng.standard_normal((3, 2))
        H = random_probabilities(rng, 3, 2)
        np.testing.assert_array_equal(sum_hessian_dense(X, H, weights=np.zeros(3)), 0.0)

    def test_wrong_weight_length_rejected(self, rng):
        X = rng.standard_normal((3, 2))
        H = random_probabilities(rng, 3, 2)
        with pytest.raises(ValueError):
            sum_hessian_dense(X, H, weights=np.ones(4))


class TestBlockDiagonal:
    def test_coefficients_formula(self, rng):
        H = random_probabilities(rng, 5, 4)
        np.testing.assert_allclose(point_block_coefficients(H), H * (1 - H), rtol=1e-12)

    def test_block_diagonal_matches_dense_extraction(self, rng):
        """B(sum_i H_i) assembled directly equals extracting the block diagonal
        of the dense sum (Definition 1 / Eq. 14)."""

        X = rng.standard_normal((8, 3))
        H = random_probabilities(rng, 8, 4)
        fast = block_diagonal_of_sum(X, H)
        dense = sum_hessian_dense(X, H)
        d = 3
        for k in range(4):
            sl = slice(k * d, (k + 1) * d)
            np.testing.assert_allclose(fast.blocks[k], dense[sl, sl], rtol=1e-8, atol=1e-10)

    def test_block_diagonal_with_weights(self, rng):
        X = rng.standard_normal((5, 3))
        H = random_probabilities(rng, 5, 2)
        w = rng.uniform(0, 1, size=5)
        fast = block_diagonal_of_sum(X, H, weights=w)
        dense = sum_hessian_dense(X, H, weights=w)
        for k in range(2):
            sl = slice(k * 3, (k + 1) * 3)
            np.testing.assert_allclose(fast.blocks[k], dense[sl, sl], rtol=1e-8, atol=1e-10)

    def test_single_block_formula(self, rng):
        """B_k(H_i) = h_k (1 - h_k) x x^T (Eq. 15)."""

        x = rng.standard_normal(3)
        H = random_probabilities(rng, 1, 3)
        fast = block_diagonal_of_sum(x[None, :], H)
        for k in range(3):
            expected = H[0, k] * (1 - H[0, k]) * np.outer(x, x)
            np.testing.assert_allclose(fast.blocks[k], expected, rtol=1e-9, atol=1e-12)


class TestCoefficientPromotion:
    """Probabilities are promoted to the compute dtype before ``h (1 - h)`` is
    formed, so low-precision inputs give exactly the coefficients and blocks
    of their float64 promotion."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_coefficients_equal_promoted_formula(self, rng, dtype):
        H = random_probabilities(rng, 6, 4).astype(dtype)
        H64 = H.astype(np.float64)
        coeff = point_block_coefficients(H)
        assert coeff.dtype == np.float64
        np.testing.assert_array_equal(coeff, H64 * (1.0 - H64))

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("h_dtype", [np.float32, np.float64])
    def test_block_diagonal_equals_promoted_inputs(self, rng, h_dtype, x_dtype, weighted):
        X = rng.standard_normal((7, 3)).astype(x_dtype)
        H = random_probabilities(rng, 7, 4).astype(h_dtype)
        w = rng.uniform(0, 1, size=7) if weighted else None
        blocks = block_diagonal_of_sum(X, H, weights=w)
        promoted = block_diagonal_of_sum(
            X.astype(np.float64), H.astype(np.float64), weights=w
        )
        assert blocks.blocks.dtype == np.float64
        np.testing.assert_array_equal(blocks.blocks, promoted.blocks)
