"""Tests for FisherDataset."""

import numpy as np
import pytest

from repro.fisher.hessian import block_diagonal_of_sum
from repro.fisher.operators import FisherDataset
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

    def test_labeled_block_diagonal_assembled_once(self, dataset):
        """``B(H_o)`` is the from-scratch assembly, built once and kept."""

        reference = block_diagonal_of_sum(dataset.labeled_features, dataset.labeled_probabilities)
        blocks = dataset.labeled_block_diagonal()
        np.testing.assert_array_equal(blocks.blocks, reference.blocks)
        assert dataset.labeled_block_diagonal() is blocks

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
