"""Tests for the K-Means implementation and selection strategy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kmeans import KMeansStrategy, kmeans, kmeans_plus_plus_init
from tests.test_baselines import make_context


def make_blobs(seed=0, k=3, per_cluster=30, d=2, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, d)) * 10.0
    X = np.concatenate([centers[i] + spread * rng.standard_normal((per_cluster, d)) for i in range(k)])
    labels = np.repeat(np.arange(k), per_cluster)
    return X, labels, centers


class TestKMeansPlusPlus:
    def test_returns_k_centroids_from_data(self):
        X, _, _ = make_blobs()
        centroids = kmeans_plus_plus_init(X, 3, rng=0)
        assert centroids.shape == (3, 2)
        # Every centroid is one of the input points.
        for centroid in centroids:
            assert np.any(np.all(np.isclose(X, centroid), axis=1))

    def test_duplicate_points_handled(self):
        X = np.ones((10, 3))
        centroids = kmeans_plus_plus_init(X, 4, rng=0)
        assert centroids.shape == (4, 3)

    def test_invalid_k_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(X, 6)


class TestKMeans:
    def test_recovers_well_separated_clusters(self):
        X, labels, centers = make_blobs(seed=1)
        result = kmeans(X, 3, rng=0)
        # Each true cluster should be internally consistent under the fit.
        for k in range(3):
            cluster_assignments = result.labels[labels == k]
            majority = np.bincount(cluster_assignments).max()
            assert majority / len(cluster_assignments) > 0.95

    def test_inertia_nonincreasing_vs_single_iteration(self):
        X, _, _ = make_blobs(seed=2)
        one = kmeans(X, 3, rng=0, max_iterations=1)
        many = kmeans(X, 3, rng=0, max_iterations=50)
        assert many.inertia <= one.inertia + 1e-9

    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((6, 2))
        result = kmeans(X, 6, rng=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_explicit_initialization(self):
        X, _, centers = make_blobs(seed=4)
        result = kmeans(X, 3, initial_centroids=centers)
        assert result.converged

    def test_labels_within_range(self):
        X, _, _ = make_blobs(seed=5)
        result = kmeans(X, 4, rng=0)
        assert set(np.unique(result.labels)).issubset(set(range(4)))

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)

    def test_wrong_initial_centroid_shape_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((5, 2)), 2, initial_centroids=np.zeros((2, 3)))


class TestKMeansStrategy:
    def test_returns_budget_unique_indices(self):
        context = make_context(seed=6)
        indices = KMeansStrategy().select(context)
        assert len(indices) == context.budget
        assert len(np.unique(indices)) == context.budget

    def test_selects_one_representative_per_blob(self):
        """With budget == number of well-separated blobs, the selection should
        hit every blob — the diversity property K-Means brings over Random."""

        X, labels, _ = make_blobs(seed=7, k=5, per_cluster=20)
        rng = np.random.default_rng(0)
        from tests.conftest import random_probabilities

        context_kwargs = dict(
            pool_features=X,
            pool_probabilities=random_probabilities(rng, X.shape[0], 3),
            labeled_features=rng.standard_normal((3, 2)),
            labeled_probabilities=random_probabilities(rng, 3, 3),
            budget=5,
            rng=np.random.default_rng(1),
        )
        from repro.baselines.base import SelectionContext

        indices = KMeansStrategy().select(SelectionContext(**context_kwargs))
        assert len(set(labels[indices].tolist())) == 5

    def test_is_stochastic_flag(self):
        assert KMeansStrategy.is_stochastic is True

    @pytest.mark.parametrize("value", [2.5, True, "3", 0])
    def test_max_iterations_validated(self, value):
        """Checked, not truncated: 2.5 and True used to become 2 and 1."""

        with pytest.raises(ValueError, match="KMeansStrategy.max_iterations"):
            KMeansStrategy(max_iterations=value)

    def test_max_iterations_accepts_numpy_integers(self):
        assert KMeansStrategy(max_iterations=np.int64(7)).max_iterations == 7


class TestKMeansCounts:
    """``kmeans`` checks its counts instead of truncating them."""

    @pytest.mark.parametrize("value", [2.5, True, "3", 0])
    def test_max_iterations_validated(self, value):
        X, _, _ = make_blobs(per_cluster=7)
        with pytest.raises(ValueError, match="max_iterations"):
            kmeans(X, 3, rng=0, max_iterations=value)

    @pytest.mark.parametrize("value", [2.5, True, "3"])
    def test_k_validated(self, value):
        X, _, _ = make_blobs(per_cluster=7)
        with pytest.raises(ValueError, match="k must be"):
            kmeans(X, value, rng=0)

    def test_numpy_integers_accepted(self):
        X, _, _ = make_blobs(per_cluster=7)
        result = kmeans(X, np.int64(3), rng=0, max_iterations=np.int32(5))
        reference = kmeans(X, 3, rng=0, max_iterations=5)
        np.testing.assert_array_equal(result.centroids, reference.centroids)
        assert result.iterations == reference.iterations


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=40),
    k=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_kmeans_partitions_all_points(n, k, seed):
    rng = np.random.default_rng(seed)
    k = min(k, n)
    X = rng.standard_normal((n, 3))
    result = kmeans(X, k, rng=seed)
    assert result.labels.shape == (n,)
    assert result.centroids.shape == (k, 3)
    assert result.inertia >= 0.0
