"""Tests for the η grid search (§ IV-A selection rule)."""

import numpy as np
import pytest

import repro.parallel.launcher as launcher
from repro.core.approx_round import approx_round
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.eta_selection import select_eta
from repro.core.exact_round import ExactRoundPrecompute, exact_round
from repro.core.firal import ApproxFIRAL, ExactFIRAL
from repro.fisher.hessian import weighted_block_diagonal
from repro.parallel.distributed_round import distributed_round
from repro.parallel.firal import DistributedApproxFIRAL
from tests.conftest import make_fisher_dataset


@pytest.fixture
def dataset():
    return make_fisher_dataset(seed=12, num_pool=25, num_labeled=6, dimension=3, num_classes=3)


@pytest.fixture
def z_relaxed(dataset):
    rng = np.random.default_rng(2)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    return 4.0 * z / z.sum()


def batch_score(dataset, selected):
    """``min_k lambda_min(H_k)`` of a batch, from the dataset's own rows."""

    return weighted_block_diagonal(
        dataset.pool_features[selected], dataset.pool_probabilities[selected]
    ).min_eigenvalue()


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
        assert score == pytest.approx(batch_score(dataset, result.selected_indices))
        for eta in grid:
            other = approx_round(dataset, z_relaxed, 4, eta, RoundConfig())
            assert score >= batch_score(dataset, other.selected_indices) - 1e-12

    def test_eta_score_recorded_on_result(self, dataset, z_relaxed):
        result = select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=(0.5, 2.0))
        assert result.eta_score == pytest.approx(batch_score(dataset, result.selected_indices))

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


#: η values every entry point refuses, by the name of the argument (and
#: ``None``, which only ``RoundConfig.eta`` takes: "search the grid").
BAD_ETAS = [True, np.bool_(True), "1", float("inf"), -float("inf"), float("nan"), 0.0, -1.0]


class TestEtaValidation:
    """η is a finite positive real wherever it enters: ``RoundConfig.eta``,
    each ``eta_grid`` entry, ``select_eta``/``approx_round``/``exact_round``,
    every selector's ``select(eta=)`` and ``distributed_round``'s grid."""

    @pytest.mark.parametrize("eta", BAD_ETAS, ids=repr)
    def test_config_eta_rejected_by_name(self, eta):
        with pytest.raises(ValueError, match=r"^eta must be "):
            RoundConfig(eta=eta)

    @pytest.mark.parametrize("eta", BAD_ETAS + [None], ids=repr)
    def test_config_grid_entry_rejected_by_name(self, eta):
        with pytest.raises(ValueError, match=r"^eta_grid\[1\] must be "):
            RoundConfig(eta_grid=(0.5, eta, 2.0))

    @pytest.mark.parametrize("eta", BAD_ETAS + [None], ids=repr)
    def test_select_eta_grid_entry_rejected_by_name(self, dataset, z_relaxed, eta):
        with pytest.raises(ValueError, match=r"^eta_grid\[0\] must be "):
            select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=(eta,))

    @pytest.mark.parametrize("solver", [approx_round, exact_round], ids=["approx", "exact"])
    @pytest.mark.parametrize("eta", BAD_ETAS + [None], ids=repr)
    def test_round_eta_rejected_by_name(self, dataset, z_relaxed, solver, eta):
        with pytest.raises(ValueError, match=r"^eta must be "):
            solver(dataset, z_relaxed, 3, eta, RoundConfig())

    def test_numpy_reals_accepted_and_identical(self, dataset, z_relaxed):
        assert RoundConfig(eta=np.float32(0.5), eta_grid=(np.float64(1.0), 2)).eta == 0.5
        plain = select_eta(approx_round, dataset, z_relaxed, budget=3, eta_grid=(1.0, 2.0))
        numpy = select_eta(
            approx_round, dataset, z_relaxed, budget=3, eta_grid=(np.float64(1.0), np.int64(2))
        )
        np.testing.assert_array_equal(numpy.selected_indices, plain.selected_indices)
        assert (numpy.eta, numpy.eta_score) == (plain.eta, plain.eta_score)

    @pytest.mark.parametrize("selector", ["approx", "exact", "distributed"])
    @pytest.mark.parametrize("eta", BAD_ETAS + ["2"], ids=repr)
    def test_selector_eta_rejected_by_name_before_any_solve(
        self, dataset, monkeypatch, selector, eta
    ):
        """``select(eta=)`` checks η before RELAX runs or a rank launches."""

        launches = []
        monkeypatch.setattr(launcher, "run_spmd", lambda *a, **k: launches.append(a))
        relax = RelaxConfig(max_iterations=2, track_objective="none")
        make = {
            "approx": lambda: ApproxFIRAL(relax),
            "exact": lambda: ExactFIRAL(relax),
            "distributed": lambda: DistributedApproxFIRAL(relax, num_ranks=2),
        }[selector]
        solver = make()
        solver._relax = lambda *args: pytest.fail("RELAX ran before the eta check")
        with pytest.raises(ValueError, match=r"^eta must be "):
            solver.select(dataset, 3, eta=eta)
        assert launches == []

    @pytest.mark.parametrize(
        "grid",
        [(), (True, 2.0), ("2",), (float("inf"),), (float("nan"),), (-1.0,), (0.5, 0.0)],
        ids=repr,
    )
    def test_distributed_round_grid_rejected_before_launch(
        self, dataset, z_relaxed, monkeypatch, grid
    ):
        launches = []
        monkeypatch.setattr(launcher, "run_spmd", lambda *a, **k: launches.append(a))
        with pytest.raises(ValueError, match=r"^eta_grid"):
            distributed_round(dataset, z_relaxed, 3, eta_grid=grid, num_ranks=2)
        assert launches == []


class TestRoundEtaRange:
    """ROUND fails loudly where ``B_t`` loses definiteness in floating point.

    Proposition 4's score and Algorithm 1's objective (the trace of the
    inverse of a positive-definite matrix) are positive, so a best value
    that is not positive (or not finite) is a numerical fault, refused with
    a ``ValueError`` naming η.  At the paper's η values the selections stand.
    """

    @pytest.fixture
    def problem(self):
        return make_fisher_dataset(seed=12, num_pool=20), np.full(20, 0.2)

    def test_approx_round_refuses_a_vanishing_best_score(self, problem):
        # Every score underflows to 0.0 here.
        dataset, z = problem
        with pytest.raises(ValueError, match=r"definiteness .*eta=1e\+300"):
            approx_round(dataset, z, 4, 1e300)

    def test_exact_round_refuses_a_negative_best_objective(self, problem):
        # Step 3's best trace reads about -2.2 here.
        dataset, z = problem
        with pytest.raises(ValueError, match=r"step 3: .*definiteness .*eta=10000000000\.0"):
            exact_round(dataset, z, 4, 1e10)

    def test_selections_in_range_unchanged(self, problem):
        dataset, z = problem
        approx = {0.1: [9, 16, 2, 0], 0.5: [9, 16, 2, 0], 1.0: [9, 16, 2, 0],
                  2.0: [9, 16, 2, 0], 8.0: [9, 0, 2, 11], 1e12: [9, 0, 2, 11]}
        exact = {0.1: [9, 16, 2, 0], 0.5: [9, 16, 2, 0], 1.0: [9, 16, 2, 4],
                 2.0: [9, 16, 2, 4], 8.0: [9, 16, 2, 4]}
        for eta, expected in approx.items():
            assert approx_round(dataset, z, 4, eta).selected_indices.tolist() == expected, eta
        for eta, expected in exact.items():
            assert exact_round(dataset, z, 4, eta).selected_indices.tolist() == expected, eta
