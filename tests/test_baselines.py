"""Tests for the Random / Entropy baselines and the strategy interface."""

import numpy as np
import pytest

from repro.baselines.base import FIRALStrategy, SelectionContext, SelectionStrategy
from repro.baselines.entropy import EntropyStrategy, predictive_entropy
from repro.baselines.random_sampling import RandomStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL
from tests.conftest import random_probabilities


def make_context(seed=0, n=30, m=6, d=4, c=3, budget=5):
    rng = np.random.default_rng(seed)
    return SelectionContext(
        pool_features=rng.standard_normal((n, d)),
        pool_probabilities=random_probabilities(rng, n, c),
        labeled_features=rng.standard_normal((m, d)),
        labeled_probabilities=random_probabilities(rng, m, c),
        budget=budget,
        rng=np.random.default_rng(seed + 1),
    )


class TestSelectionContext:
    def test_budget_exceeding_pool_rejected(self):
        with pytest.raises(ValueError):
            make_context(n=4, budget=5)

    def test_fisher_dataset_conversion(self):
        context = make_context()
        dataset = context.fisher_dataset()
        assert dataset.num_pool == 30
        assert dataset.num_labeled == 6

    def test_rng_is_generator(self):
        assert isinstance(make_context().rng, np.random.Generator)

    @pytest.mark.parametrize("budget", [2.5, True, "3"])
    def test_non_integer_budget_rejected(self, budget):
        """Checked, not kept as given: 2.5 and True used to pass."""

        with pytest.raises(ValueError, match="budget"):
            make_context(budget=budget)

    def test_numpy_integer_budget_accepted(self):
        context = make_context(budget=np.int64(4))
        assert context.budget == 4 and type(context.budget) is int


class TestRandomStrategy:
    def test_returns_budget_unique_indices(self):
        context = make_context()
        indices = RandomStrategy().select(context)
        assert len(indices) == 5
        assert len(np.unique(indices)) == 5

    def test_different_rng_gives_different_selection(self):
        a = RandomStrategy().select(make_context(seed=1))
        b = RandomStrategy().select(make_context(seed=2))
        assert not np.array_equal(a, b)

    def test_same_rng_reproducible(self):
        a = RandomStrategy().select(make_context(seed=3))
        b = RandomStrategy().select(make_context(seed=3))
        np.testing.assert_array_equal(a, b)

    def test_is_stochastic_flag(self):
        assert RandomStrategy.is_stochastic is True


class TestEntropyStrategy:
    def test_predictive_entropy_uniform_is_log_c(self):
        probs = np.full((3, 4), 0.25)
        np.testing.assert_allclose(predictive_entropy(probs), np.log(4.0), rtol=1e-10)

    def test_predictive_entropy_one_hot_is_zero(self):
        probs = np.eye(3)
        np.testing.assert_allclose(predictive_entropy(probs), 0.0, atol=1e-8)

    def test_selects_most_uncertain_points(self):
        context = make_context()
        # Make points 0..4 exactly uniform (max entropy); they must be chosen.
        context.pool_probabilities[:5] = 1.0 / context.pool_probabilities.shape[1]
        indices = EntropyStrategy().select(context)
        assert set(indices.tolist()) == {0, 1, 2, 3, 4}

    def test_deterministic(self):
        a = EntropyStrategy().select(make_context(seed=4))
        b = EntropyStrategy().select(make_context(seed=4))
        np.testing.assert_array_equal(a, b)

    def test_is_deterministic_flag(self):
        assert EntropyStrategy.is_stochastic is False


class TestFIRALStrategy:
    def test_wraps_approx_firal(self):
        context = make_context()
        strategy = FIRALStrategy(
            ApproxFIRAL(RelaxConfig(max_iterations=3, track_objective="none"), RoundConfig(eta=1.0))
        )
        indices = strategy.select(context)
        assert len(np.unique(indices)) == context.budget
        assert strategy.name == "approx-firal"
        assert strategy.last_result is not None

    def test_requires_selector_with_select(self):
        with pytest.raises(ValueError):
            FIRALStrategy(object())


class TestStrategyValidation:
    def test_duplicate_indices_caught(self):
        class Bad(SelectionStrategy):
            name = "bad"

            def select(self, context):
                return self._validate_selection(np.zeros(context.budget, dtype=np.int64), context)

        with pytest.raises(ValueError, match="duplicate"):
            Bad().select(make_context())

    def test_out_of_range_indices_caught(self):
        class Bad(SelectionStrategy):
            name = "bad"

            def select(self, context):
                idx = np.arange(context.budget) + 10_000
                return self._validate_selection(idx, context)

        with pytest.raises(ValueError, match="out-of-range"):
            Bad().select(make_context())

    def test_wrong_count_caught(self):
        class Bad(SelectionStrategy):
            name = "bad"

            def select(self, context):
                return self._validate_selection(np.arange(context.budget - 1), context)

        with pytest.raises(ValueError, match="wrong number"):
            Bad().select(make_context())
