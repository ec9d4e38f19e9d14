"""Tests for the fast RELAX solver (Algorithm 2)."""

import sys
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core.config import SIGMA_REGULARIZATION, RelaxConfig
from repro.core.approx_relax import approx_relax
from repro.core.exact_relax import exact_relax, exact_relax_gradient
from repro.core.spmd import block_partition
from repro.fisher.hessian import weighted_block_diagonal
from repro.fisher.matvec import HessianSumOperator, PreparedHessianSum
from repro.fisher.objective import fisher_ratio_objective
from repro.fisher.operators import SigmaOperator
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
        """The estimate is read off Lines 6-7: every Sigma_z matvec is one apply
        of the step's prepared Sigma_z, and every apply is a counted CG step."""

        prepared, applies = [], Counter()
        prepare, apply = SigmaOperator.prepare, PreparedHessianSum.matvec

        def preparing(sigma, z):
            prepared.append(prepare(sigma, z))
            return prepared[-1]

        def applying(operator, V):
            if any(operator is sigma_z for sigma_z in prepared):
                applies[id(operator)] += 1
            return apply(operator, V)

        monkeypatch.setattr(SigmaOperator, "prepare", preparing)
        monkeypatch.setattr(PreparedHessianSum, "matvec", applying)
        result = approx_relax(
            dataset, budget=5, config=RelaxConfig(max_iterations=4, objective_tolerance=0.0)
        )
        per_step = [applies[id(operator)] for operator in prepared]
        assert sum(per_step) == result.cg_iterations
        assert per_step == result.cg_iteration_history
        assert len(result.objective_trace) == 4

    @pytest.mark.parametrize("num_ranks", [1, 2])
    def test_one_sigma_build_per_solve_one_preparation_per_step(self, dataset, monkeypatch, num_ranks):
        """Each rank copies its Sigma_z rows once per solve, the pool rows and its
        share of the labeled rows, and prepares them once per mirror-descent step."""

        built, preparations = {}, Counter()
        init, prepare = SigmaOperator.__init__, SigmaOperator.prepare

        def building(sigma, data, labeled_rows=slice(None)):
            init(sigma, data, labeled_rows)
            built[id(sigma)] = (data.num_pool, labeled_rows, sigma.rows.num_points)

        def preparing(sigma, z):
            preparations[id(sigma)] += 1
            return prepare(sigma, z)

        monkeypatch.setattr(SigmaOperator, "__init__", building)
        monkeypatch.setattr(SigmaOperator, "prepare", preparing)
        config = RelaxConfig(max_iterations=3, track_objective="none")
        if num_ranks == 1:
            approx_relax(dataset, budget=5, config=config)
        else:
            distributed_relax(dataset, 5, num_ranks=num_ranks, config=config)
        assert len(built) == num_ranks
        assert preparations == {key: 3 for key in built}
        shares = block_partition(dataset.num_labeled, num_ranks)
        assert sorted((rows.start, rows.stop) for _, rows, _ in built.values()) == [
            (share.start, share.stop) for share in shares
        ]
        for pool_rows, labeled_rows, num_points in built.values():
            assert pool_rows == dataset.num_pool // num_ranks
            assert num_points == pool_rows + labeled_rows.stop - labeled_rows.start

    def test_prepared_scratch_lives_only_in_cg(self, dataset, monkeypatch):
        """No prepared Sigma_z holds scratch while ``H_p W`` (Line 7) or the
        gradient (Line 9) lay out their own, so neither adds to the other."""

        prepared, calls = [], Counter()
        prepare = SigmaOperator.prepare
        matvec, forms = HessianSumOperator.matvec, HessianSumOperator.probe_quadratic_forms

        def preparing(sigma, z):
            sigma_z = prepare(sigma, z)
            prepared.append(weakref.ref(sigma_z))
            return sigma_z

        def check(line):
            calls[line] += 1
            live = [ref() for ref in prepared if ref() is not None]
            assert all(sigma_z._buffer is None for sigma_z in live), line

        def checked_matvec(operator, V, weights=None):
            check("H_p W")
            return matvec(operator, V, weights)

        def checked_forms(operator, V, W):
            check("gradient")
            return forms(operator, V, W)

        monkeypatch.setattr(SigmaOperator, "prepare", preparing)
        monkeypatch.setattr(HessianSumOperator, "matvec", checked_matvec)
        monkeypatch.setattr(HessianSumOperator, "probe_quadratic_forms", checked_forms)
        approx_relax(dataset, budget=5, config=RelaxConfig(max_iterations=3, objective_tolerance=0.0))
        assert len(prepared) == 3
        assert calls == {"H_p W": 3, "gradient": 3}

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

    One mirror-descent step from the uniform point takes ``beta_1 =
    1 / ||g||_inf`` and gives ``z_i ∝ exp(-g_i / ||g||_inf)``, so the centered
    ``-log z`` is the centered Hutchinson + CG gradient estimate over its own
    largest magnitude.  It must approach :func:`exact_relax_gradient` (dense
    solves), normalized the same way, as the probe count ``s`` grows, at the
    ``1/sqrt(s)`` Monte Carlo rate, on the serial solver and on the
    distributed one alike.
    """

    BUDGET = 5

    def _relative_error(self, solver, num_probes):
        dataset = make_fisher_dataset(seed=0)
        config = RelaxConfig(
            max_iterations=1,
            cg_tolerance=1e-10,
            track_objective="none",
            num_probes=num_probes,
        )
        weights = np.asarray(solver(dataset, self.BUDGET, config).weights)
        uniform = np.full(dataset.num_pool, self.BUDGET / dataset.num_pool)
        gradient = np.asarray(
            exact_relax_gradient(dataset, uniform, regularization=SIGMA_REGULARIZATION)
        )
        exact = _centered(gradient) / np.abs(gradient).max()
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
        exact = fisher_ratio_objective(dataset, uniform, regularization=SIGMA_REGULARIZATION)
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

    def test_invalid_track_mode_rejected(self):
        with pytest.raises(ValueError):
            RelaxConfig(track_objective="sometimes")

    def test_step_size_is_inverse_sqrt_over_gradient_scale(self):
        """``beta_t = 1 / (sqrt(t) · g)``, and ``1 / sqrt(t)`` for a zero gradient."""

        cfg = RelaxConfig()
        for t in (1, 2, 4, 7, 100):
            for g in (4.0, 0.3, 1e-12, 2.5e7):
                assert cfg.step_size(t, g) == 1.0 / t**0.5 / g
            assert cfg.step_size(t, 0.0) == 1.0 / t**0.5

    def test_step_size_requires_one_based_iteration(self):
        with pytest.raises(ValueError):
            RelaxConfig().step_size(0, 1.0)
