"""Tests for the η grid search (§ IV-A selection rule)."""

import numpy as np
import pytest

from repro.core.approx_round import approx_round, selected_batch_min_eigenvalue
from repro.core.config import RoundConfig
from repro.core.eta_selection import select_eta
from repro.core.exact_round import ExactRoundPrecompute, exact_round
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=12, num_pool=25, num_labeled=6, dimension=3, num_classes=3)


@pytest.fixture
def z_relaxed(dataset):
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    return 4.0 * z / z.sum()


class TestSelectEta:
    def test_returns_best_scoring_eta(self, dataset, z_relaxed):
        grid = (0.1, 1.0, 10.0)
        result = select_eta(
            approx_round, dataset, z_relaxed, budget=4, eta_grid=grid, config=RoundConfig()
        )
        score = result.eta_score
        assert result.eta in grid
        # The reported score must equal the recomputed score of the winner and
        # be at least as good as every other grid point's score.
        assert score == pytest.approx(
            selected_batch_min_eigenvalue(dataset, result.selected_indices)
        )
        for eta in grid:
            other = approx_round(dataset, z_relaxed, 4, eta, RoundConfig())
            assert score >= selected_batch_min_eigenvalue(dataset, other.selected_indices) - 1e-12

    def test_eta_score_recorded_on_result(self, dataset, z_relaxed):
        result = select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=(0.5, 2.0))
        assert result.eta_score == pytest.approx(
            selected_batch_min_eigenvalue(dataset, result.selected_indices)
        )

    def test_single_candidate_grid(self, dataset, z_relaxed):
        result = select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=(1.5,))
        assert result.eta == 1.5

    def test_empty_grid_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=())

    def test_negative_eta_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=(-1.0, 1.0))


class TestOneEntryGrid:
    """A fixed η is the one-entry grid: its one trial is the plain solve, unscored."""

    @pytest.mark.parametrize("solver", [approx_round, exact_round], ids=["approx", "exact"])
    def test_equals_plain_solve(self, dataset, z_relaxed, solver):
        config = RoundConfig()
        plain = solver(dataset, z_relaxed, 3, 1.5, config)
        result = select_eta(solver, dataset, z_relaxed, budget=3, eta_grid=(1.5,), config=config)
        np.testing.assert_array_equal(result.selected_indices, plain.selected_indices)
        assert result.objective_trace == plain.objective_trace
        assert result.eta == 1.5
        assert result.eta_score is None
        assert "eta_scoring" not in result.timings.components


class TestGridTimings:
    @pytest.mark.parametrize("solver", [approx_round, exact_round], ids=["approx", "exact"])
    def test_timings_cover_every_trial(self, dataset, z_relaxed, solver):
        """The returned timings add up the whole grid, not just the winner."""

        trials = []

        def recording(*args, **kwargs):
            trials.append(solver(*args, **kwargs))
            return trials[-1]

        # A wrapped solver is not ``exact_round`` itself, so the dense
        # precompute is passed in; the approximate one is built inside.
        precompute = None
        if solver is exact_round:
            precompute = ExactRoundPrecompute.build(dataset, z_relaxed)
        grid = (0.1, 1.0, 10.0)
        result = select_eta(
            recording, dataset, z_relaxed, budget=3, eta_grid=grid, precompute=precompute
        )
        assert len(trials) == len(grid)
        for name in set().union(*(trial.timings.components for trial in trials)):
            summed = sum(trial.timings.get(name) for trial in trials)
            assert result.timings.get(name) >= summed - 1e-12, name
        assert result.timings.get("setup") > 0
        assert result.timings.get("eta_scoring") > 0
        assert result.eta_score is not None
        if precompute is not None:
            # One tally: the returned timings are the precompute's.
            assert result.timings.as_dict() == precompute.timings.as_dict()
