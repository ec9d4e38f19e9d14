"""Tests for FisherDataset and SigmaOperator."""

import numpy as np
import pytest

from repro.fisher.operators import FisherDataset, SigmaOperator
from tests.conftest import make_fisher_dataset, random_probabilities


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=9, num_pool=20, num_labeled=5, dimension=4, num_classes=3)


class TestFisherDataset:
    def test_sizes(self, dataset):
        assert dataset.num_pool == 20
        assert dataset.num_labeled == 5
        assert dataset.dimension == 4
        assert dataset.num_classes == 3
        assert dataset.joint_dimension == 12

    def test_sigma_matvec_consistency(self, dataset):
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, size=dataset.num_pool)
        v = rng.standard_normal(dataset.joint_dimension)
        np.testing.assert_allclose(
            dataset.sigma_matvec(v, z), dataset.sigma_dense(z) @ v, rtol=1e-7, atol=1e-8
        )

    def test_pool_block_diagonal_matches_dense(self, dataset):
        rng = np.random.default_rng(1)
        z = rng.uniform(0, 1, size=dataset.num_pool)
        bd = dataset.sigma_block_diagonal(z)
        dense = dataset.sigma_dense(z)
        d = dataset.dimension
        for k in range(dataset.num_classes):
            sl = slice(k * d, (k + 1) * d)
            np.testing.assert_allclose(bd.blocks[k], dense[sl, sl], rtol=1e-7, atol=1e-9)

    def test_labeled_matvec_matches_dense(self, dataset):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(dataset.joint_dimension)
        np.testing.assert_allclose(
            dataset.labeled_hessian_matvec(v),
            dataset.labeled_hessian_dense() @ v,
            rtol=1e-7,
            atol=1e-8,
        )

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FisherDataset(
                pool_features=rng.standard_normal((5, 3)),
                pool_probabilities=random_probabilities(rng, 5, 2),
                labeled_features=rng.standard_normal((2, 4)),
                labeled_probabilities=random_probabilities(rng, 2, 2),
            )

    def test_class_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            FisherDataset(
                pool_features=rng.standard_normal((5, 3)),
                pool_probabilities=random_probabilities(rng, 5, 2),
                labeled_features=rng.standard_normal((2, 3)),
                labeled_probabilities=random_probabilities(rng, 2, 3),
            )


class TestSigmaOperator:
    def test_matvec_matches_dense(self, dataset):
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 1, size=dataset.num_pool)
        op = SigmaOperator(dataset, z)
        v = rng.standard_normal(dataset.joint_dimension)
        np.testing.assert_allclose(op.matvec(v), op.dense() @ v, rtol=1e-6, atol=1e-7)

    def test_regularization_added(self, dataset):
        z = np.ones(dataset.num_pool) * 0.1
        op = SigmaOperator(dataset, z, regularization=0.5)
        v = np.ones(dataset.joint_dimension)
        plain = SigmaOperator(dataset, z).matvec(v)
        np.testing.assert_allclose(op.matvec(v), plain + 0.5 * v, rtol=1e-6)

    def test_preconditioner_is_block_inverse(self, dataset):
        rng = np.random.default_rng(4)
        z = rng.uniform(0.1, 1, size=dataset.num_pool)
        op = SigmaOperator(dataset, z, regularization=1e-3)
        v = rng.standard_normal(dataset.joint_dimension)
        # Applying B then B^{-1} must round-trip.
        np.testing.assert_allclose(
            op.precondition(op.block_diagonal.matvec(v)), v, rtol=1e-4, atol=1e-5
        )

    def test_negative_weights_rejected(self, dataset):
        with pytest.raises(ValueError):
            SigmaOperator(dataset, -np.ones(dataset.num_pool))

    def test_wrong_length_weights_rejected(self, dataset):
        with pytest.raises(ValueError):
            SigmaOperator(dataset, np.ones(dataset.num_pool + 1))
