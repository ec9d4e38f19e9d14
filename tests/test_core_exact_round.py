"""Tests for the exact ROUND solver (Algorithm 1, Lines 10-19)."""

import numpy as np
import pytest

from repro.core.exact_round import exact_round
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=8, num_pool=18, num_labeled=6, dimension=3, num_classes=3)


@pytest.fixture
def z_relaxed(dataset):
    rng = np.random.default_rng(0)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    return 4.0 * z / z.sum()


class TestExactRound:
    def test_selects_requested_budget(self, dataset, z_relaxed):
        result = exact_round(dataset, z_relaxed, budget=4, eta=1.0)
        assert len(result.selected_indices) == 4

    def test_indices_unique_without_repeats(self, dataset, z_relaxed):
        result = exact_round(dataset, z_relaxed, budget=6, eta=1.0)
        assert len(np.unique(result.selected_indices)) == 6

    def test_indices_in_range(self, dataset, z_relaxed):
        result = exact_round(dataset, z_relaxed, budget=4, eta=1.0)
        assert np.all(result.selected_indices >= 0)
        assert np.all(result.selected_indices < dataset.num_pool)

    def test_deterministic(self, dataset, z_relaxed):
        a = exact_round(dataset, z_relaxed, budget=4, eta=1.0)
        b = exact_round(dataset, z_relaxed, budget=4, eta=1.0)
        np.testing.assert_array_equal(a.selected_indices, b.selected_indices)

    def test_objective_trace_recorded(self, dataset, z_relaxed):
        result = exact_round(dataset, z_relaxed, budget=3, eta=1.0)
        assert len(result.objective_trace) == 3
        assert all(np.isfinite(v) for v in result.objective_trace)

    def test_eta_changes_selection_possible(self, dataset, z_relaxed):
        """Different eta values generally lead to different FTRL trajectories.
        (Not guaranteed for every instance, so only check both run fine.)"""

        small = exact_round(dataset, z_relaxed, budget=4, eta=0.01)
        large = exact_round(dataset, z_relaxed, budget=4, eta=50.0)
        assert len(small.selected_indices) == len(large.selected_indices) == 4

    def test_invalid_eta_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            exact_round(dataset, z_relaxed, budget=2, eta=0.0)

    def test_budget_larger_than_pool_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            exact_round(dataset, z_relaxed, budget=dataset.num_pool + 1, eta=1.0)

    def test_wrong_z_length_rejected(self, dataset):
        with pytest.raises(ValueError):
            exact_round(dataset, np.ones(3), budget=2, eta=1.0)

    def test_timings_components(self, dataset, z_relaxed):
        result = exact_round(dataset, z_relaxed, budget=2, eta=1.0)
        assert result.timings.get("objective_function") > 0
        assert result.timings.get("compute_eigenvalues") > 0

    def test_greedy_first_pick_maximizes_trace_reduction(self, dataset, z_relaxed):
        """The first selected point is the argmin of the trace objective over
        all candidates — verify against a brute-force evaluation (Eq. 9)."""

        eta, budget = 1.0, 3
        result = exact_round(dataset, z_relaxed, budget=budget, eta=eta)

        from repro.fisher.hessian import point_hessian_dense

        dc = dataset.joint_dimension
        sigma = dataset.sigma_dense(z_relaxed) + 1e-6 * np.eye(dc)
        w, V = np.linalg.eigh(sigma)
        inv_sqrt = (V * (1.0 / np.sqrt(w))) @ V.T
        h_o = inv_sqrt @ dataset.labeled_hessian_dense() @ inv_sqrt
        A1 = np.sqrt(dc) * np.eye(dc)
        values = []
        for i in range(dataset.num_pool):
            Hi = inv_sqrt @ point_hessian_dense(
                dataset.pool_features[i], dataset.pool_probabilities[i]
            ) @ inv_sqrt
            values.append(float(np.trace(np.linalg.inv(A1 + eta / budget * h_o + eta * Hi))))
        assert result.selected_indices[0] == int(np.argmin(values))
