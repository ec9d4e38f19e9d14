"""Tests for the fast RELAX solver (Algorithm 2)."""

import sys
from collections import Counter

import numpy as np
import pytest

from repro.core.config import RelaxConfig
from repro.core.approx_relax import approx_relax
from repro.core.exact_relax import exact_relax, exact_relax_gradient
from repro.fisher.hessian import weighted_block_diagonal
from repro.fisher.matvec import HessianSumOperator
from repro.fisher.objective import fisher_ratio_objective
from repro.parallel.distributed_relax import distributed_relax
from repro.utils.validation import check_features, check_probabilities
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=5, num_pool=30, num_labeled=8, dimension=4, num_classes=3)


def count_calls(monkeypatch, function, counts, predicate=None):
    """Count ``function``'s calls from every ``repro`` module that imported it by name."""

    name = function.__name__

    def counting(*args, **kwargs):
        if predicate is None or predicate(*args, **kwargs):
            counts[name] += 1
        return function(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "repro" and vars(module).get(name) is function:
            monkeypatch.setattr(module, name, counting)


class TestApproxRelax:
    def test_weights_on_scaled_simplex(self, dataset):
        result = approx_relax(
            dataset, budget=6, config=RelaxConfig(max_iterations=5, track_objective="none")
        )
        assert np.all(result.weights >= 0)
        assert float(result.weights.sum()) == pytest.approx(6.0, rel=1e-8)

    def test_reproducible_with_seed(self, dataset):
        cfg = RelaxConfig(max_iterations=4, track_objective="none", seed=7)
        a = approx_relax(dataset, budget=5, config=cfg)
        b = approx_relax(dataset, budget=5, config=cfg)
        np.testing.assert_allclose(a.weights, b.weights, rtol=1e-12)

    def test_different_seeds_differ(self, dataset):
        a = approx_relax(dataset, 5, RelaxConfig(max_iterations=4, track_objective="none", seed=1))
        b = approx_relax(dataset, 5, RelaxConfig(max_iterations=4, track_objective="none", seed=2))
        assert not np.allclose(a.weights, b.weights)

    def test_exact_objective_tracking_decreases(self, dataset):
        result = approx_relax(
            dataset,
            budget=6,
            config=RelaxConfig(max_iterations=15, track_objective="exact", cg_tolerance=0.01),
        )
        assert result.objective_trace[-1] <= result.objective_trace[0] + 1e-9

    def test_cg_iterations_counted(self, dataset):
        result = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=3, track_objective="none")
        )
        assert result.cg_iterations > 0
        assert len(result.cg_iteration_history) == result.iterations
        assert sum(result.cg_iteration_history) == result.cg_iterations

    def test_first_iteration_cg_history_recorded(self, dataset):
        result = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=2, track_objective="none")
        )
        assert len(result.first_iteration_cg_history) >= 1
        assert result.first_iteration_cg_history[-1] <= result.first_iteration_cg_history[0]

    def test_timings_have_cg_and_preconditioner(self, dataset):
        result = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=2, track_objective="none")
        )
        assert result.timings.get("cg") > 0
        assert result.timings.get("setup_preconditioner") > 0
        assert result.timings.get("gradient") > 0

    def test_close_to_exact_relax_solution(self, dataset):
        """Fig. 4 of the paper: the approximate RELAX tracks the exact one.

        Compare the relaxed weight vectors after the same number of
        iterations; with tight CG tolerance and many probes they should be
        highly correlated (the selection only depends on the ordering of the
        large weights)."""

        iterations = 10
        exact = exact_relax(dataset, budget=6, config=RelaxConfig(max_iterations=iterations))
        approx = approx_relax(
            dataset,
            budget=6,
            config=RelaxConfig(
                max_iterations=iterations,
                track_objective="none",
                num_probes=60,
                cg_tolerance=1e-4,
                seed=0,
            ),
        )
        correlation = np.corrcoef(exact.weights, approx.weights)[0, 1]
        assert correlation > 0.95

    def test_objective_estimate_mode_runs(self, dataset):
        result = approx_relax(
            dataset,
            budget=4,
            config=RelaxConfig(max_iterations=3, track_objective="estimate"),
        )
        assert len(result.objective_trace) >= 1

    def test_invalid_budget_rejected(self, dataset):
        with pytest.raises(ValueError):
            approx_relax(dataset, budget=-1)

    def test_estimate_runs_no_extra_solve(self, dataset, monkeypatch):
        """The estimate is read off Lines 6-7: every Sigma_z matvec is a counted CG step."""

        calls = []
        matvec = HessianSumOperator.matvec

        def counting(operator, V, weights=None):
            if weights is not None:  # the z-weighted H_z of a Sigma_z matvec
                assert operator is dataset.pool_operator
                calls.append(1)
            return matvec(operator, V, weights)

        monkeypatch.setattr(HessianSumOperator, "matvec", counting)
        result = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=4, objective_tolerance=0.0)
        )
        assert len(calls) == result.cg_iterations
        assert len(result.objective_trace) == 4

    def test_solve_validates_and_assembles_labeled_blocks_once(self, monkeypatch):
        """Inputs are checked when the dataset is built, never during a solve,
        however many CG steps it takes; ``B(H_o)`` is assembled once per
        dataset, not once per mirror-descent step."""

        counts = Counter()
        solves = {}
        for tolerance in (0.5, 1e-8):
            data = make_fisher_dataset(seed=5, num_pool=30, num_labeled=8, dimension=4, num_classes=3)
            counts.clear()
            with monkeypatch.context() as patch:
                count_calls(patch, check_features, counts)
                count_calls(patch, check_probabilities, counts)
                count_calls(
                    patch, weighted_block_diagonal, counts, lambda X, *_, **__: X is data.labeled_features
                )
                config = RelaxConfig(max_iterations=4, cg_tolerance=tolerance, track_objective="none")
                result = approx_relax(data, budget=5, config=config)
            solves[tolerance] = (result.cg_iterations, dict(counts))
        (few, loose), (many, tight) = solves[0.5], solves[1e-8]
        assert many > 2 * few
        assert loose == tight == {"weighted_block_diagonal": 1}

    def test_stopping_rule_returns_the_stalled_iterate(self, dataset):
        """A stop at step t returns z_t, before its update, and counts t - 1 updates."""

        stopped = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=10, objective_tolerance=1.0, seed=0)
        )
        one_step = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=1, track_objective="none", seed=0)
        )
        assert stopped.converged
        assert stopped.iterations == 1
        assert len(stopped.objective_trace) == 2
        assert sum(stopped.cg_iteration_history) == stopped.cg_iterations
        np.testing.assert_array_equal(stopped.weights, one_step.weights)


def _centered(values):
    values = np.asarray(values, dtype=np.float64)
    return values - values.mean()


class TestGradientOracle:
    """Algorithm 2's Line-9 gradient against the dense exact gradient.

    One mirror-descent step from the uniform point with ``beta = 1`` and no
    gradient normalization gives ``z_i ∝ exp(-g_i)``, so the centered
    ``-log z`` is the centered Hutchinson + CG gradient estimate.  It must
    approach :func:`exact_relax_gradient` (dense solves) as the probe count
    ``s`` grows, at the ``1/sqrt(s)`` Monte Carlo rate, on the serial solver
    and on the distributed one alike.
    """

    BUDGET = 5

    def _relative_error(self, solver, num_probes):
        dataset = make_fisher_dataset(seed=0)
        config = RelaxConfig(
            max_iterations=1,
            normalize_gradient=False,
            learning_rate=1.0,
            cg_tolerance=1e-10,
            track_objective="none",
            num_probes=num_probes,
        )
        weights = np.asarray(solver(dataset, self.BUDGET, config).weights)
        uniform = np.full(dataset.num_pool, self.BUDGET / dataset.num_pool)
        exact = _centered(
            exact_relax_gradient(dataset, uniform, regularization=config.regularization)
        )
        estimate = _centered(-np.log(weights))
        return np.linalg.norm(estimate - exact) / np.linalg.norm(exact)

    @pytest.mark.parametrize(
        "solver",
        [
            pytest.param(approx_relax, id="serial"),
            pytest.param(
                lambda ds, b, cfg: distributed_relax(ds, b, num_ranks=1, config=cfg), id="1-rank"
            ),
            pytest.param(
                lambda ds, b, cfg: distributed_relax(ds, b, num_ranks=2, config=cfg), id="2-ranks"
            ),
        ],
    )
    def test_estimate_converges_to_exact_gradient(self, solver):
        few = self._relative_error(solver, num_probes=10)
        many = self._relative_error(solver, num_probes=1000)
        assert many < 0.08
        assert many < few / 4


class TestObjectiveOracle:
    """The in-loop Hutchinson objective against the dense ``Tr(Sigma_z^{-1} H_p)``.

    With one step, ``objective_trace[0]`` is the estimate at the uniform
    start; its RMS relative error over seeds must fall with the probe count
    ``s`` at the ``1/sqrt(s)`` Monte Carlo rate.
    """

    BUDGET = 5

    def _rms_relative_error(self, num_probes):
        dataset = make_fisher_dataset(seed=0)
        uniform = np.full(dataset.num_pool, self.BUDGET / dataset.num_pool)
        exact = fisher_ratio_objective(dataset, uniform, regularization=RelaxConfig().regularization)
        errors = []
        for seed in range(8):
            config = RelaxConfig(
                max_iterations=1, cg_tolerance=1e-10, num_probes=num_probes, seed=seed
            )
            estimate = approx_relax(dataset, self.BUDGET, config).objective_trace[0]
            errors.append((estimate - exact) / exact)
        return float(np.sqrt(np.mean(np.square(errors))))

    def test_estimate_converges_to_exact_objective(self):
        few = self._rms_relative_error(num_probes=10)
        many = self._rms_relative_error(num_probes=1000)
        assert many < 0.02
        assert many < few / 4


class TestRelaxConfig:
    @pytest.mark.parametrize("field", ["max_iterations", "num_probes", "cg_max_iterations"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            RelaxConfig(**{field: value})
        RelaxConfig(**{field: np.int64(3)})

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ValueError):
            RelaxConfig(learning_rate_schedule="linear")

    def test_invalid_track_mode_rejected(self):
        with pytest.raises(ValueError):
            RelaxConfig(track_objective="sometimes")

    def test_step_size_sqrt_schedule_decays(self):
        cfg = RelaxConfig(learning_rate=2.0, learning_rate_schedule="sqrt", normalize_gradient=False)
        assert cfg.step_size(1, 1.0) == pytest.approx(2.0)
        assert cfg.step_size(4, 1.0) == pytest.approx(1.0)

    def test_step_size_constant_schedule(self):
        cfg = RelaxConfig(learning_rate=0.5, learning_rate_schedule="constant", normalize_gradient=False)
        assert cfg.step_size(10, 1.0) == pytest.approx(0.5)

    def test_step_size_normalizes_by_gradient_scale(self):
        cfg = RelaxConfig(learning_rate=1.0, learning_rate_schedule="constant", normalize_gradient=True)
        assert cfg.step_size(1, 4.0) == pytest.approx(0.25)

    def test_step_size_requires_one_based_iteration(self):
        with pytest.raises(ValueError):
            RelaxConfig().step_size(0, 1.0)
