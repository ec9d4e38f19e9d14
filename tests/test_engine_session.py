"""Session engine regression suite.

The contract of the engine refactor: with the default (legacy-equivalent)
``SessionConfig``, :class:`repro.engine.ActiveSession` reproduces the
pre-refactor ``run_active_learning`` loop **bit-identically** on the NumPy
backend — same accuracy curves, same selected points — for every strategy.
``_legacy_run`` below is a frozen copy of that pre-refactor loop (extended
only to track stable global ids) and is the reference the session is pinned
against.

Also covered here: the strategy lifecycle protocol (``begin_session`` /
``observe_labels``, and the refusal of non-``SelectionStrategy`` objects), the
``DensePointStore`` bookkeeping, and multi-rank sessions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.active.experiment import run_active_learning
from repro.active.problem import ActiveLearningProblem
from repro.active.results import ExperimentResult, RoundRecord
from repro.baselines.base import (
    FIRALStrategy,
    LabelObservation,
    SelectionContext,
    SelectionStrategy,
    SessionInfo,
)
from repro.baselines.entropy import EntropyStrategy
from repro.baselines.kmeans import KMeansStrategy
from repro.baselines.random_sampling import RandomStrategy
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import ApproxFIRAL, ExactFIRAL
from repro.datasets.registry import build_problem
from repro.engine.pool import DensePointStore
from repro.engine.session import ActiveSession, SessionConfig
from repro.models.logistic_regression import LogisticRegressionClassifier
from repro.models.metrics import accuracy, class_balanced_accuracy
from repro.utils.random import as_generator


# --------------------------------------------------------------------- #
# Frozen pre-refactor driver (reference for bit-identical equivalence)
# --------------------------------------------------------------------- #
def _legacy_run(
    problem,
    strategy,
    *,
    num_rounds,
    budget_per_round,
    classifier=None,
    seed=0,
    record_initial=True,
):
    """The pre-session ``run_active_learning`` loop, verbatim, plus global-id
    tracking so selections can be compared independently of pool reindexing."""

    rng = as_generator(seed)
    clf = classifier if classifier is not None else LogisticRegressionClassifier(problem.num_classes)

    labeled_features = np.asarray(problem.initial_features).copy()
    labeled_labels = np.asarray(problem.initial_labels).copy()
    pool_features = np.asarray(problem.pool_features).copy()
    pool_labels = np.asarray(problem.pool_labels).copy()
    num_initial = labeled_features.shape[0]
    pool_gids = np.arange(num_initial, num_initial + pool_features.shape[0], dtype=np.int64)
    selected_gids = []

    def evaluate(num_labeled):
        pool_acc = (
            accuracy(pool_labels, clf.predict(pool_features)) if pool_features.shape[0] > 0 else 1.0
        )
        eval_pred = clf.predict(problem.eval_features)
        return RoundRecord(
            num_labeled=num_labeled,
            pool_accuracy=pool_acc,
            eval_accuracy=accuracy(problem.eval_labels, eval_pred),
            balanced_eval_accuracy=class_balanced_accuracy(
                problem.eval_labels, eval_pred, problem.num_classes
            ),
        )

    result = ExperimentResult(strategy_name=strategy.name, dataset_name=problem.name)
    clf.fit(labeled_features, labeled_labels)
    if record_initial:
        result.records.append(evaluate(labeled_labels.shape[0]))

    for _ in range(num_rounds):
        pool_probabilities = clf.predict_proba(pool_features)
        labeled_probabilities = clf.predict_proba(labeled_features)
        context = SelectionContext(
            pool_features=pool_features,
            pool_probabilities=pool_probabilities,
            labeled_features=labeled_features,
            labeled_probabilities=labeled_probabilities,
            budget=budget_per_round,
            rng=rng,
        )
        selected = np.asarray(strategy.select(context), dtype=np.int64)
        selected_gids.extend(int(g) for g in pool_gids[selected])

        labeled_features = np.concatenate([labeled_features, pool_features[selected]], axis=0)
        labeled_labels = np.concatenate([labeled_labels, pool_labels[selected]], axis=0)
        keep = np.ones(pool_features.shape[0], dtype=bool)
        keep[selected] = False
        pool_features = pool_features[keep]
        pool_labels = pool_labels[keep]
        pool_gids = pool_gids[keep]

        clf.fit(labeled_features, labeled_labels)
        result.records.append(evaluate(labeled_labels.shape[0]))

    return result, np.asarray(selected_gids, dtype=np.int64)


def _small_problem(seed=0, num_classes=3, dimension=5, pool_per_class=20, eval_per_class=12):
    """Gaussian-blob problem small enough for ExactFIRAL in a test."""

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dimension)) * 3.0

    def draw(per_class):
        feats, labels = [], []
        for k in range(num_classes):
            feats.append(centers[k] + rng.standard_normal((per_class, dimension)))
            labels.append(np.full(per_class, k, dtype=np.int64))
        return np.concatenate(feats), np.concatenate(labels)

    init_f, init_y = draw(2)
    pool_f, pool_y = draw(pool_per_class)
    eval_f, eval_y = draw(eval_per_class)
    return ActiveLearningProblem(
        initial_features=init_f,
        initial_labels=init_y,
        pool_features=pool_f,
        pool_labels=pool_y,
        eval_features=eval_f,
        eval_labels=eval_y,
        num_classes=num_classes,
        name="blobs",
    )


def _approx_firal_strategy():
    return FIRALStrategy(
        ApproxFIRAL(RelaxConfig(max_iterations=6, seed=0), RoundConfig(eta=1.0))
    )


def _exact_firal_strategy():
    return FIRALStrategy(
        ExactFIRAL(RelaxConfig(max_iterations=4, track_objective="exact"), RoundConfig(eta=1.0))
    )


STRATEGY_FACTORIES = {
    "random": RandomStrategy,
    "entropy": EntropyStrategy,
    "kmeans": KMeansStrategy,
    "approx-firal": _approx_firal_strategy,
    "exact-firal": _exact_firal_strategy,
}


@pytest.fixture(scope="module")
def problem():
    return _small_problem(seed=0)


@pytest.fixture(scope="module")
def cifar_problem():
    return build_problem("cifar10", scale=0.03, seed=0)


def _assert_curves_identical(a: ExperimentResult, b: ExperimentResult):
    np.testing.assert_array_equal(a.num_labeled(), b.num_labeled())
    np.testing.assert_array_equal(a.pool_accuracy(), b.pool_accuracy())
    np.testing.assert_array_equal(a.eval_accuracy(), b.eval_accuracy())
    np.testing.assert_array_equal(a.balanced_eval_accuracy(), b.balanced_eval_accuracy())


class TestLegacyEquivalence:
    """Default-config session == frozen pre-refactor driver, bit for bit."""

    @pytest.mark.parametrize("name", sorted(STRATEGY_FACTORIES))
    def test_bit_identical_curves_and_ids(self, problem, name):
        factory = STRATEGY_FACTORIES[name]
        legacy_result, legacy_gids = _legacy_run(
            problem, factory(), num_rounds=3, budget_per_round=4, seed=7
        )

        session = ActiveSession(
            problem, factory(), budget_per_round=4, num_rounds=3, seed=7
        )
        session_result = session.run(3)
        session_gids = session.store.labeled_ids[problem.initial_size:]

        _assert_curves_identical(legacy_result, session_result)
        np.testing.assert_array_equal(legacy_gids, session_gids)

    def test_wrapper_matches_legacy_on_cifar(self, cifar_problem):
        legacy_result, legacy_gids = _legacy_run(
            cifar_problem, RandomStrategy(), num_rounds=3, budget_per_round=10, seed=0
        )
        wrapper_result = run_active_learning(
            cifar_problem, RandomStrategy(), num_rounds=3, budget_per_round=10, seed=0
        )
        _assert_curves_identical(legacy_result, wrapper_result)


class TestSessionAPI:
    def test_step_returns_records_and_advances(self, problem):
        session = ActiveSession(problem, RandomStrategy(), budget_per_round=5, seed=0)
        session.record_initial()
        before_pool = session.pool_size
        record = session.step()
        assert session.round_index == 1
        assert session.pool_size == before_pool - 5
        assert session.num_labeled == problem.initial_size + 5
        assert record.num_labeled == problem.initial_size + 5
        assert record.setup_seconds >= 0.0 and record.selection_seconds >= 0.0

    def test_setup_seconds_recorded_per_round(self, problem):
        result = ActiveSession(
            problem, EntropyStrategy(), budget_per_round=4, num_rounds=2, seed=0
        ).run(2)
        # Initial record carries zero setup; every round records a real timing.
        assert result.records[0].setup_seconds == 0.0
        assert all(r.setup_seconds > 0.0 for r in result.records[1:])

    def test_initial_record_only_once(self, problem):
        session = ActiveSession(problem, RandomStrategy(), budget_per_round=4, seed=0)
        session.record_initial()
        with pytest.raises(ValueError):
            session.record_initial()

    def test_budget_exceeding_pool_rejected(self, problem):
        with pytest.raises(ValueError):
            ActiveSession(
                problem, RandomStrategy(), budget_per_round=1000, num_rounds=100, seed=0
            )

    def test_open_ended_run_requires_rounds(self, problem):
        session = ActiveSession(problem, RandomStrategy(), budget_per_round=4, seed=0)
        with pytest.raises(ValueError):
            session.run()

    def test_reproducible_with_same_seed(self, problem):
        a = ActiveSession(problem, RandomStrategy(), budget_per_round=4, num_rounds=2, seed=3).run(2)
        b = ActiveSession(problem, RandomStrategy(), budget_per_round=4, num_rounds=2, seed=3).run(2)
        _assert_curves_identical(a, b)


class _RecordingStrategy(SelectionStrategy):
    name = "recording"

    def __init__(self):
        self.infos = []
        self.observations = []

    def begin_session(self, info: SessionInfo) -> None:
        self.infos.append(info)

    def select(self, context: SelectionContext) -> np.ndarray:
        assert context.round_index is not None
        return self._validate_selection(np.arange(context.budget), context)

    def observe_labels(self, observation: LabelObservation) -> None:
        self.observations.append(observation)


class _BareSelector:
    """Duck-typed strategy that does not subclass ``SelectionStrategy``."""

    name = "bare"

    def select(self, context):
        return np.arange(context.budget)


class TestLifecycleProtocol:
    def test_hooks_called_in_order(self, problem):
        strategy = _RecordingStrategy()
        ActiveSession(problem, strategy, budget_per_round=3, num_rounds=2, seed=0).run(2)
        assert strategy.infos == [SessionInfo()]
        assert len(strategy.observations) == 2
        first = strategy.observations[0]
        assert first.round_index == 0
        np.testing.assert_array_equal(first.pool_indices, [0, 1, 2])
        # Global pool ids start after the initial labeled block.
        np.testing.assert_array_equal(first.global_ids, problem.initial_size + np.arange(3))
        np.testing.assert_array_equal(
            first.labels, np.asarray(problem.pool_labels)[:3]
        )

    def test_non_strategy_rejected(self, problem):
        with pytest.raises(ValueError, match="strategy must be a SelectionStrategy"):
            ActiveSession(problem, _BareSelector(), budget_per_round=3, num_rounds=1, seed=0)


class TestEtaReuse:
    def _grid_strategy(self, **kw):
        return FIRALStrategy(
            ApproxFIRAL(
                RelaxConfig(max_iterations=5, seed=0),
                RoundConfig(eta_grid=(0.5, 1.0, 2.0)),
            ),
            **kw,
        )

    def test_first_round_searches_then_reuses(self, problem):
        strategy = self._grid_strategy()
        session = ActiveSession(
            problem,
            strategy,
            budget_per_round=4,
            num_rounds=3,
            seed=0,
            config=SessionConfig(reuse_eta=True),
        )
        session.step()
        first_eta = strategy.last_result.round.eta
        assert strategy._previous_eta == first_eta
        # Later rounds skip the grid: eta_score is only computed by the grid
        # search, so a reused-η round leaves it unset.
        session.step()
        assert strategy.last_result.round.eta == first_eta
        assert strategy.last_result.round.eta_score is None

    def test_off_by_default_keeps_searching(self, problem):
        strategy = self._grid_strategy()
        ActiveSession(
            problem, strategy, budget_per_round=4, num_rounds=2, seed=0
        ).run(2)
        assert strategy._previous_eta is None
        assert strategy.last_result.round.eta_score is not None


class TestPointStore:
    def test_ids_and_views(self):
        store = DensePointStore(
            np.arange(6, dtype=np.float64).reshape(3, 2),
            np.array([0, 1, 2]),
            np.arange(8, dtype=np.float64).reshape(4, 2) + 100,
            np.array([0, 1, 0, 1]),
        )
        assert store.total_points == 7
        assert store.num_initial == 3
        np.testing.assert_array_equal(store.pool_ids, [3, 4, 5, 6])
        np.testing.assert_array_equal(store.labeled_ids, [0, 1, 2])
        np.testing.assert_array_equal(store.pool_features_host()[0], [100, 101])

    def test_label_moves_points_in_selection_order(self):
        store = DensePointStore(
            np.zeros((2, 2)),
            np.array([0, 1]),
            np.arange(10, dtype=np.float64).reshape(5, 2),
            np.array([1, 0, 1, 0, 1]),
        )
        gids, labels = store.label(np.array([3, 0]))
        np.testing.assert_array_equal(gids, [5, 2])
        np.testing.assert_array_equal(labels, [0, 1])
        np.testing.assert_array_equal(store.labeled_ids, [0, 1, 5, 2])
        np.testing.assert_array_equal(store.pool_ids, [3, 4, 6])
        # Remaining pool rows keep their original relative order.
        np.testing.assert_array_equal(store.pool_features_host()[:, 0], [2, 4, 8])

    def test_label_rejects_bad_indices(self):
        store = DensePointStore(
            np.zeros((1, 2)), np.array([0]), np.ones((3, 2)), np.array([0, 0, 0])
        )
        with pytest.raises(ValueError):
            store.label(np.array([3]))
        with pytest.raises(ValueError):
            store.label(np.array([0, 0]))


# --------------------------------------------------------------------- #
# Multi-rank selection (SessionConfig.parallel_ranks)
# --------------------------------------------------------------------- #
def _parallel_capable_strategy():
    """ApproxFIRAL with the distributed solvers' configuration contract.

    The multi-rank selector runs RELAX with a fixed iteration budget
    (``track_objective="none"``), so the serial reference does too — that is
    the documented equivalence contract of ``SessionConfig.parallel_ranks``.
    """

    return FIRALStrategy(
        ApproxFIRAL(
            RelaxConfig(max_iterations=4, track_objective="none", seed=0),
            RoundConfig(eta=1.0),
        )
    )


def _run_session(problem, config):
    session = ActiveSession(
        problem,
        _parallel_capable_strategy(),
        budget_per_round=4,
        num_rounds=3,
        seed=0,
        config=config,
    )
    result = session.run()
    return (
        [record.eval_accuracy for record in result.records],
        session.store.labeled_ids.copy(),
    )


class TestParallelSession:
    def test_simulated_parallel_session_matches_serial(self, problem):
        """A whole FIRAL session over 2 simulated ranks selects identically."""

        serial_curve, serial_ids = _run_session(problem, SessionConfig())
        parallel_curve, parallel_ids = _run_session(problem, SessionConfig(parallel_ranks=2))
        assert parallel_curve == serial_curve
        np.testing.assert_array_equal(parallel_ids, serial_ids)

    @pytest.mark.multiprocess
    def test_shared_memory_parallel_session_matches_serial(self, problem):
        """A whole FIRAL session runs its selection across real OS processes."""

        serial_curve, serial_ids = _run_session(problem, SessionConfig())
        parallel_curve, parallel_ids = _run_session(
            problem, SessionConfig(parallel_ranks=2, parallel_transport="shared_memory")
        )
        assert parallel_curve == serial_curve
        np.testing.assert_array_equal(parallel_ids, serial_ids)

    def test_parallel_ranks_rejects_exact_firal(self, problem):
        """Exact-FIRAL has no distributed formulation; fail at session start."""

        with pytest.raises(ValueError, match="ApproxFIRAL"):
            ActiveSession(
                problem,
                _exact_firal_strategy(),
                budget_per_round=4,
                num_rounds=2,
                seed=0,
                config=SessionConfig(parallel_ranks=2),
            )

    def test_parallel_ranks_ignored_by_baselines(self, problem):
        """Non-FIRAL strategies ignore the request."""

        session = ActiveSession(
            problem,
            RandomStrategy(),
            budget_per_round=4,
            num_rounds=2,
            seed=0,
            config=SessionConfig(parallel_ranks=2),
        )
        result = session.run()
        assert len(result.records) == 3  # initial + 2 rounds

    def test_invalid_parallel_ranks_rejected(self, problem):
        with pytest.raises(ValueError):
            ActiveSession(
                problem,
                _parallel_capable_strategy(),
                budget_per_round=4,
                num_rounds=2,
                seed=0,
                config=SessionConfig(parallel_ranks=0),
            )
