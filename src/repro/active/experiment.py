"""Active-learning experiment driver (the Fig. 2 / Fig. 3 protocol).

One experiment runs as follows (matching § IV-A):

1. Train the multinomial logistic-regression classifier on the current
   labeled set (initially one or two points per class).
2. Record pool accuracy, evaluation accuracy and class-balanced evaluation
   accuracy.
3. Ask the selection strategy for ``b`` pool indices, reveal their labels,
   and move them into the labeled set.
4. Repeat for the configured number of rounds; record accuracy once more
   after the final batch.

The classifier hyperparameters stay fixed across rounds.  Stochastic
strategies (Random, K-Means) are repeated over several trials and aggregated
with mean ± std (the paper uses 10 trials).

Since the session-engine refactor these functions are thin wrappers over
:class:`repro.engine.ActiveSession` — the object that actually owns the
round loop's state.  With the default (legacy-equivalent)
:class:`~repro.engine.SessionConfig` the wrapper reproduces the historical
driver bit-identically on the NumPy backend; passing a config (e.g.
``SessionConfig(reuse_eta=True)``) opts into the cross-round options.
"""

from __future__ import annotations

from typing import Optional

from repro.active.problem import ActiveLearningProblem
from repro.active.results import AggregateResult, ExperimentResult
from repro.baselines.base import SelectionStrategy
from repro.engine.session import ActiveSession, SessionConfig
from repro.models.logistic_regression import LogisticRegressionClassifier
from repro.utils.random import spawn_generators
from repro.utils.validation import require

__all__ = ["run_active_learning", "run_trials"]


def run_active_learning(
    problem: ActiveLearningProblem,
    strategy: SelectionStrategy,
    *,
    num_rounds: int,
    budget_per_round: int,
    classifier: Optional[LogisticRegressionClassifier] = None,
    seed=0,
    record_initial: bool = True,
    config: Optional[SessionConfig] = None,
) -> ExperimentResult:
    """Run one active-learning experiment and return its accuracy curve.

    Parameters
    ----------
    problem:
        The dataset triple (initial labeled / pool / evaluation).
    strategy:
        Batch selection method.
    num_rounds:
        Number of selection rounds.
    budget_per_round:
        Points labeled per round (``b``).
    classifier:
        Optional pre-configured classifier; defaults to an L2-regularized
        multinomial logistic regression, fixed across rounds as in the paper.
    seed:
        Seed for the strategy's RNG stream.
    record_initial:
        Whether to record the accuracy of the classifier trained only on the
        initial labeled set (the leftmost point of the Fig. 2 curves).
    config:
        Optional :class:`~repro.engine.SessionConfig`; the default reproduces
        the legacy driver exactly.
    """

    require(num_rounds > 0, "num_rounds must be positive")
    session = ActiveSession(
        problem,
        strategy,
        budget_per_round=budget_per_round,
        num_rounds=num_rounds,
        classifier=classifier,
        seed=seed,
        config=config,
    )
    return session.run(num_rounds, record_initial=record_initial)


def run_trials(
    problem: ActiveLearningProblem,
    strategy_factory,
    *,
    num_rounds: int,
    budget_per_round: int,
    num_trials: int = 1,
    seed=0,
    classifier_factory=None,
    config: Optional[SessionConfig] = None,
) -> AggregateResult:
    """Repeat an experiment over ``num_trials`` seeds and aggregate.

    ``strategy_factory`` is called once per trial (so stateful strategies are
    rebuilt) and must return a :class:`SelectionStrategy`.  Deterministic
    strategies can safely use ``num_trials=1``.
    """

    require(num_trials > 0, "num_trials must be positive")
    trial_rngs = spawn_generators(seed, num_trials)
    trials = []
    strategy_name = None
    for trial_rng in trial_rngs:
        strategy = strategy_factory()
        strategy_name = strategy.name
        classifier = classifier_factory() if classifier_factory is not None else None
        trials.append(
            run_active_learning(
                problem,
                strategy,
                num_rounds=num_rounds,
                budget_per_round=budget_per_round,
                classifier=classifier,
                seed=trial_rng,
                config=config,
            )
        )
    return AggregateResult(
        strategy_name=strategy_name or "strategy",
        dataset_name=problem.name,
        trials=trials,
    )
