"""Tests for the end-to-end ExactFIRAL / ApproxFIRAL selectors."""

import numpy as np
import pytest

from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL, ExactFIRAL
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=21, num_pool=24, num_labeled=6, dimension=3, num_classes=3)


def fast_relax_config(**kwargs):
    defaults = dict(max_iterations=5, track_objective="none", seed=0)
    defaults.update(kwargs)
    return RelaxConfig(**defaults)


class TestApproxFIRAL:
    def test_selects_budget_unique_indices(self, dataset):
        selector = ApproxFIRAL(fast_relax_config(), RoundConfig(eta=1.0))
        result = selector.select(dataset, budget=5)
        assert result.budget == 5
        assert len(np.unique(result.selected_indices)) == 5

    def test_result_contains_relax_and_round(self, dataset):
        selector = ApproxFIRAL(fast_relax_config(), RoundConfig(eta=1.0))
        result = selector.select(dataset, budget=4)
        assert result.relax.weights.shape == (dataset.num_pool,)
        assert result.round.eta == 1.0
        assert result.metadata["method"] == "approx-firal"
        assert result.relax.timings.total() > 0
        assert result.round.timings.total() > 0

    def test_eta_grid_search_used_when_eta_none(self, dataset):
        selector = ApproxFIRAL(fast_relax_config(), RoundConfig(eta=None, eta_grid=(0.5, 2.0)))
        result = selector.select(dataset, budget=4)
        assert result.round.eta in (0.5, 2.0)
        assert result.round.eta_score is not None

    def test_deterministic_given_seed(self, dataset):
        a = ApproxFIRAL(fast_relax_config(seed=3), RoundConfig(eta=1.0)).select(dataset, 4)
        b = ApproxFIRAL(fast_relax_config(seed=3), RoundConfig(eta=1.0)).select(dataset, 4)
        np.testing.assert_array_equal(a.selected_indices, b.selected_indices)

    def test_budget_validation(self, dataset):
        selector = ApproxFIRAL(fast_relax_config(), RoundConfig(eta=1.0))
        with pytest.raises(ValueError):
            selector.select(dataset, budget=0)
        with pytest.raises(ValueError):
            selector.select(dataset, budget=dataset.num_pool + 1)

    def test_default_configuration_matches_paper(self):
        selector = ApproxFIRAL()
        assert selector.relax_config.num_probes == 10
        assert selector.relax_config.cg_tolerance == pytest.approx(0.1)
        assert selector.relax_config.objective_tolerance == pytest.approx(1e-4)


class TestExactFIRAL:
    def test_selects_budget_unique_indices(self, dataset):
        selector = ExactFIRAL(RelaxConfig(max_iterations=5, track_objective="exact"), RoundConfig(eta=1.0))
        result = selector.select(dataset, budget=4)
        assert result.budget == 4
        assert len(np.unique(result.selected_indices)) == 4
        assert result.metadata["method"] == "exact-firal"

    def test_default_relax_tracks_exact_objective(self):
        assert ExactFIRAL().relax_config.track_objective == "exact"

    def test_exact_and_approx_overlap_on_easy_instance(self, dataset):
        """The two selectors should pick strongly overlapping batches — the
        paper's accuracy equivalence (Fig. 2) rests on this."""

        budget = 6
        exact = ExactFIRAL(RelaxConfig(max_iterations=10), RoundConfig(eta=1.0)).select(dataset, budget)
        approx = ApproxFIRAL(
            RelaxConfig(max_iterations=10, track_objective="none", num_probes=40, cg_tolerance=1e-3),
            RoundConfig(eta=1.0),
        ).select(dataset, budget)
        overlap = len(set(exact.selected_indices.tolist()) & set(approx.selected_indices.tolist()))
        assert overlap >= budget // 2
