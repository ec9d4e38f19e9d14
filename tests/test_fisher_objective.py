"""Tests for the Fisher Information Ratio objective f(z) (Eq. 4/5)."""

import numpy as np
import pytest

from repro.fisher.objective import fisher_ratio_objective
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=6, num_pool=25, num_labeled=6, dimension=4, num_classes=3)


def test_exact_objective_matches_definition(dataset):
    rng = np.random.default_rng(0)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    value = fisher_ratio_objective(dataset, z, regularization=1e-6)
    sigma = dataset.sigma_dense(z) + 1e-6 * np.eye(dataset.joint_dimension)
    expected = float(np.trace(np.linalg.inv(sigma) @ dataset.pool_hessian_dense()))
    assert value == pytest.approx(expected, rel=1e-8)


def test_objective_decreases_when_weights_grow(dataset):
    """Adding more weight to the pool can only improve (reduce) the ratio."""

    z_small = np.full(dataset.num_pool, 0.1)
    z_large = np.full(dataset.num_pool, 1.0)
    small = fisher_ratio_objective(dataset, z_small, regularization=1e-6)
    large = fisher_ratio_objective(dataset, z_large, regularization=1e-6)
    assert large < small


def test_objective_positive(dataset):
    z = np.full(dataset.num_pool, 0.5)
    assert fisher_ratio_objective(dataset, z, regularization=1e-6) > 0


def test_wrong_weight_length_rejected(dataset):
    with pytest.raises(ValueError):
        fisher_ratio_objective(dataset, np.ones(3))
