"""Tests for the block-diagonal ROUND solver (Algorithm 3, Proposition 4)."""

import numpy as np
import pytest

from repro.core.config import SIGMA_REGULARIZATION, RoundConfig
from repro.core.approx_round import RoundPrecompute, approx_round
from repro.fisher.operators import FisherDataset
from tests.conftest import make_fisher_dataset, random_probabilities


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=10, num_pool=30, num_labeled=8, dimension=4, num_classes=3)


@pytest.fixture
def z_relaxed(dataset):
    rng = np.random.default_rng(1)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    return 5.0 * z / z.sum()


class TestApproxRound:
    def test_selects_requested_budget(self, dataset, z_relaxed):
        result = approx_round(dataset, z_relaxed, budget=5, eta=1.0)
        assert len(result.selected_indices) == 5

    def test_indices_unique_and_in_range(self, dataset, z_relaxed):
        result = approx_round(dataset, z_relaxed, budget=6, eta=1.0)
        assert len(np.unique(result.selected_indices)) == 6
        assert np.all((result.selected_indices >= 0) & (result.selected_indices < dataset.num_pool))

    def test_deterministic(self, dataset, z_relaxed):
        a = approx_round(dataset, z_relaxed, budget=4, eta=1.0)
        b = approx_round(dataset, z_relaxed, budget=4, eta=1.0)
        np.testing.assert_array_equal(a.selected_indices, b.selected_indices)

    def test_objective_trace_positive(self, dataset, z_relaxed):
        result = approx_round(dataset, z_relaxed, budget=4, eta=1.0)
        assert all(v > 0 for v in result.objective_trace)

    def test_timings_components(self, dataset, z_relaxed):
        """The hot loop is attributed to named regions (no lumped "other")."""

        result = approx_round(dataset, z_relaxed, budget=3, eta=1.0)
        for region in ("setup", "score", "update_accumulated", "compute_eigenvalues", "refresh_inverse"):
            assert result.timings.get(region) > 0, region
        assert result.timings.get("other") == 0.0

    def test_invalid_inputs_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            approx_round(dataset, z_relaxed, budget=0, eta=1.0)
        with pytest.raises(ValueError):
            approx_round(dataset, z_relaxed, budget=2, eta=-1.0)
        with pytest.raises(ValueError):
            approx_round(dataset, np.ones(3), budget=2, eta=1.0)

    def test_selection_covers_diverse_points(self, dataset, z_relaxed):
        """The FTRL objective discourages picking near-duplicate points; at the
        very least the selected batch must not collapse onto one index."""

        result = approx_round(dataset, z_relaxed, budget=6, eta=1.0)
        assert len(set(result.selected_indices.tolist())) == 6


class TestBatchMinEigenvalue:
    """The § IV-A η score, ``RoundPrecompute.score``."""

    def test_positive_for_reasonable_batch(self, dataset, z_relaxed):
        score = RoundPrecompute.build(dataset, z_relaxed).score(np.arange(10))
        assert np.isfinite(score)

    def test_more_points_do_not_decrease_min_eigenvalue(self, dataset, z_relaxed):
        precompute = RoundPrecompute.build(dataset, z_relaxed)
        small = precompute.score(np.arange(5))
        large = precompute.score(np.arange(25))
        assert large >= small - 1e-10

    def test_empty_selection_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            RoundPrecompute.build(dataset, z_relaxed).score(np.array([], dtype=np.int64))


class TestProposition4Equivalence:
    def test_matches_exact_round_when_hessians_are_block_diagonal(self):
        """Proposition 4: with block-diagonal Fisher matrices the diagonal
        ROUND step is *equivalent* to the exact trace-objective ROUND step.

        Construct a dataset whose per-point Hessians are exactly block
        diagonal by using one-hot-dominated probability vectors?  That cannot
        make the off-diagonal h h^T term vanish, so instead verify the
        equivalence at the *objective* level: the point chosen by Eq. 17 must
        coincide with the argmin of Eq. 9 evaluated with block-diagonalized
        Hessians (B(H_i) in place of H_i)."""

        rng = np.random.default_rng(3)
        d, c, n, m, budget, eta = 3, 3, 15, 5, 3, 1.2
        dataset = FisherDataset(
            pool_features=rng.standard_normal((n, d)),
            pool_probabilities=random_probabilities(rng, n, c),
            labeled_features=rng.standard_normal((m, d)),
            labeled_probabilities=random_probabilities(rng, m, c),
        )
        z = np.full(n, budget / n)

        approx = approx_round(dataset, z, budget=budget, eta=eta, config=RoundConfig(eta=eta))

        # Brute-force the first selection of the *block-diagonalized* exact
        # objective: Trace[(B_t + eta B(H_i))^{-1} Sigma_*] (Eq. 18) with
        # B_t = sqrt(dc) Sigma_* + (eta/b) B(H_o).
        from repro.fisher.hessian import point_block_coefficients

        sigma = dataset.sigma_block_diagonal(z).add_identity(SIGMA_REGULARIZATION)
        labeled = dataset.labeled_block_diagonal()
        bt = sigma * np.sqrt(d * c) + labeled * (eta / budget)
        gammas = point_block_coefficients(dataset.pool_probabilities)
        scores = []
        for i in range(n):
            blocks = bt.blocks.copy()
            for k in range(c):
                blocks[k] = blocks[k] + eta * gammas[i, k] * np.outer(
                    dataset.pool_features[i], dataset.pool_features[i]
                )
            inv = np.linalg.inv(blocks)
            scores.append(float(np.einsum("kij,kji->", inv, sigma.blocks)))
        assert approx.selected_indices[0] == int(np.argmin(scores))
