"""Tests that the distributed solvers agree with the serial ones.

The central correctness claim of the parallel substrate: running Algorithm 2
or Algorithm 3 over p simulated ranks produces the same results as the serial
implementation (up to floating-point reduction order), for any rank count.
"""

import importlib

import numpy as np
import pytest

from repro.core.approx_relax import approx_relax
from repro.core.approx_round import approx_round
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.eta_selection import select_eta
from repro.core.firal import ApproxFIRAL
from repro.parallel.cluster import ScalingMeasurement, SimulatedCluster
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round, distributed_round_search
from repro.parallel.firal import DistributedApproxFIRAL
from repro.parallel.partition import partition_pool
from tests.conftest import make_fisher_dataset


@pytest.fixture(scope="module")
def dataset():
    return make_fisher_dataset(seed=30, num_pool=36, num_labeled=8, dimension=4, num_classes=3)


@pytest.fixture(scope="module")
def z_relaxed(dataset):
    rng = np.random.default_rng(0)
    z = rng.uniform(0, 1, size=dataset.num_pool)
    return 6.0 * z / z.sum()


def relax_config(iterations=3):
    return RelaxConfig(max_iterations=iterations, track_objective="none", seed=11)


class TestDistributedRelax:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 5])
    def test_matches_serial(self, dataset, num_ranks):
        serial = approx_relax(dataset, budget=6, config=relax_config())
        distributed = distributed_relax(dataset, 6, num_ranks=num_ranks, config=relax_config())
        np.testing.assert_allclose(distributed.weights, serial.weights, rtol=1e-2, atol=1e-4)
        assert distributed.num_ranks == num_ranks

    def test_single_rank_is_numerically_identical(self, dataset):
        serial = approx_relax(dataset, budget=6, config=relax_config())
        distributed = distributed_relax(dataset, 6, num_ranks=1, config=relax_config())
        np.testing.assert_array_equal(distributed.weights, serial.weights)

    @pytest.mark.parametrize("tolerance", [1e-4, 1.0], ids=["runs-out", "rule-fires"])
    def test_estimate_mode_single_rank_is_bit_identical(self, dataset, tolerance):
        """The in-loop estimate and stopping rule run on ranks as they do serially."""

        config = RelaxConfig(max_iterations=5, objective_tolerance=tolerance, seed=11)
        serial = approx_relax(dataset, budget=6, config=config)
        distributed = distributed_relax(dataset, 6, num_ranks=1, config=config)
        np.testing.assert_array_equal(distributed.weights, serial.weights)
        assert distributed.iterations == serial.iterations
        assert distributed.cg_iterations == serial.cg_iterations
        if tolerance == 1.0:
            assert serial.converged and serial.iterations < config.max_iterations

    def test_estimate_mode_ranks_agree(self, dataset):
        """At two ranks the replicated trace stops every rank at the same step:
        the driver's divergence check passes and the weights track serial."""

        config = RelaxConfig(max_iterations=5, objective_tolerance=1e-4, seed=11)
        serial = approx_relax(dataset, budget=6, config=config)
        distributed = distributed_relax(dataset, 6, num_ranks=2, config=config)
        np.testing.assert_allclose(distributed.weights, serial.weights, rtol=1e-2, atol=1e-4)
        assert "objective" in distributed.per_rank_seconds

    def test_weights_on_scaled_simplex(self, dataset):
        result = distributed_relax(dataset, 6, num_ranks=4, config=relax_config())
        assert np.all(result.weights >= 0)
        assert float(result.weights.sum()) == pytest.approx(6.0, rel=1e-6)

    def test_per_rank_timings_and_comm_log_populated(self, dataset):
        result = distributed_relax(dataset, 6, num_ranks=3, config=relax_config(iterations=1))
        assert "cg" in result.per_rank_seconds
        assert result.per_rank_seconds["cg"].shape == (3,)
        assert result.comm_log.calls["allreduce"] > 0
        assert result.comm_log.calls["bcast"] >= 1
        assert result.compute_seconds() > 0

    def test_objective_tracking_rejected(self, dataset):
        with pytest.raises(ValueError):
            distributed_relax(
                dataset, 6, num_ranks=2, config=RelaxConfig(track_objective="exact")
            )

    @pytest.mark.parametrize("iterations", [1, 3])
    def test_comm_pattern_matches_paper(self, dataset, iterations):
        """Per iteration (§ III-C): one probe bcast; allreduces for B(Sigma_z),
        every Sigma_z matvec, H_p W and the three update scalars; one final
        allgather of the weights."""

        config = RelaxConfig(
            max_iterations=iterations, normalize_gradient=True, track_objective="none", seed=11
        )
        result = distributed_relax(dataset, 6, num_ranks=3, config=config)
        calls = result.comm_log.calls
        assert calls["bcast"] == iterations
        assert calls["allreduce"] == 5 * iterations + result.cg_iterations
        assert calls["allgather"] == 1


class TestDistributedRound:
    @pytest.mark.parametrize("num_ranks", [1, 2, 3, 6])
    def test_selects_same_points_as_serial(self, dataset, z_relaxed, num_ranks):
        serial = approx_round(dataset, z_relaxed, budget=5, eta=1.0)
        distributed = distributed_round(dataset, z_relaxed, 5, 1.0, num_ranks=num_ranks)
        np.testing.assert_array_equal(distributed.selected_indices, serial.selected_indices)

    def test_comm_pattern_matches_paper(self, dataset, z_relaxed):
        """Per iteration: one argmax allreduce, bcasts of (x, h), one allgather
        of the eigenvalues — plus the single Sigma_* assembly allreduce."""

        budget = 4
        result = distributed_round(dataset, z_relaxed, budget, 1.0, num_ranks=3)
        calls = result.comm_log.calls
        assert calls["allgather"] == budget
        assert calls["allreduce"] == budget + 1
        assert calls["bcast"] == 2 * budget

    def test_grid_search_comm_pattern_matches_paper(self, dataset, z_relaxed):
        """One Sigma_* allreduce, then per trial the single-η pattern plus one
        scoring allreduce of the selected batch's block-Hessian partials."""

        budget, grid = 4, (0.5, 1.0, 2.0)
        result, _ = distributed_round_search(
            dataset, z_relaxed, budget, eta_grid=grid, num_ranks=3
        )
        calls = result.comm_log.calls
        trials = len(grid)
        assert calls["allreduce"] == 1 + trials * (budget + 1)
        assert calls["allgather"] == trials * budget
        assert calls["bcast"] == 2 * trials * budget

    def test_per_rank_timings_populated(self, dataset, z_relaxed):
        result = distributed_round(dataset, z_relaxed, 3, 1.0, num_ranks=2)
        assert result.per_rank_seconds["score"].shape == (2,)
        assert result.compute_seconds() > 0

    def test_invalid_inputs_rejected(self, dataset, z_relaxed):
        with pytest.raises(ValueError):
            distributed_round(dataset, z_relaxed, 0, 1.0, num_ranks=2)
        with pytest.raises(ValueError):
            distributed_round(dataset, np.ones(3), 2, 1.0, num_ranks=2)


UNEVEN_OFFSETS = pytest.mark.parametrize(
    "offsets",
    [np.array([0, 29, 36]), np.array([0, 4, 30, 36])],
    ids=["2-ranks", "3-ranks"],
)


def _record_shard_sizes(monkeypatch, module_name):
    """Wrap the driver module's ``partition_pool``; return the shard sizes it scatters."""

    # The package re-exports each driver function under its submodule's
    # name, so reach the module through importlib.
    module = importlib.import_module(module_name)
    real = module.partition_pool
    sizes = []

    def recording(dataset, num_ranks, offsets=None):
        shards = real(dataset, num_ranks, offsets=offsets)
        sizes.append([shard.num_pool for shard in shards])
        return shards

    monkeypatch.setattr(module, "partition_pool", recording)
    return sizes


class TestExplicitOffsetsMatchSerial:
    """Uneven shard boundaries (a sharded store's ownership table) change who
    owns which points, not what the drivers compute."""

    @UNEVEN_OFFSETS
    def test_relax(self, dataset, offsets, monkeypatch):
        sizes = _record_shard_sizes(monkeypatch, "repro.parallel.distributed_relax")
        serial = approx_relax(dataset, budget=6, config=relax_config())
        distributed = distributed_relax(
            dataset, 6, num_ranks=offsets.size - 1, config=relax_config(), offsets=offsets
        )
        assert sizes == [np.diff(offsets).tolist()]
        np.testing.assert_allclose(distributed.weights, serial.weights, rtol=1e-2, atol=1e-4)
        assert distributed.num_ranks == offsets.size - 1

    @UNEVEN_OFFSETS
    def test_round(self, dataset, z_relaxed, offsets, monkeypatch):
        sizes = _record_shard_sizes(monkeypatch, "repro.parallel.distributed_round")
        serial = approx_round(dataset, z_relaxed, budget=5, eta=1.0)
        distributed = distributed_round(
            dataset, z_relaxed, 5, 1.0, num_ranks=offsets.size - 1, offsets=offsets
        )
        assert sizes == [np.diff(offsets).tolist()]
        np.testing.assert_array_equal(distributed.selected_indices, serial.selected_indices)

    @UNEVEN_OFFSETS
    def test_round_search(self, dataset, z_relaxed, offsets, monkeypatch):
        sizes = _record_shard_sizes(monkeypatch, "repro.parallel.distributed_round")
        grid = (0.5, 1.0, 2.0)
        config = RoundConfig(eta_grid=grid)
        serial, serial_score = select_eta(
            approx_round, dataset, z_relaxed, 5, eta_grid=grid, config=config
        )
        distributed, score = distributed_round_search(
            dataset,
            z_relaxed,
            5,
            eta_grid=grid,
            num_ranks=offsets.size - 1,
            config=config,
            offsets=offsets,
        )
        assert sizes == [np.diff(offsets).tolist()]
        np.testing.assert_array_equal(distributed.selected_indices, serial.selected_indices)
        assert distributed.eta == serial.eta
        np.testing.assert_allclose(score, serial_score, rtol=1e-10)


class TestDistributedApproxFIRAL:
    """The full RELAX → η → ROUND selector over distributed solvers."""

    def _serial(self, eta=None):
        return ApproxFIRAL(
            RelaxConfig(max_iterations=3, track_objective="none", seed=7),
            RoundConfig(eta=eta, eta_grid=(0.5, 2.0)),
        )

    def _distributed(self, num_ranks, eta=None):
        return DistributedApproxFIRAL(
            RelaxConfig(max_iterations=3, track_objective="none", seed=7),
            RoundConfig(eta=eta, eta_grid=(0.5, 2.0)),
            num_ranks=num_ranks,
        )

    @pytest.mark.parametrize("num_ranks", [1, 2, 3])
    def test_fixed_eta_selects_serial_points(self, dataset, num_ranks):
        serial = self._serial(eta=1.0).select(dataset, 5)
        distributed = self._distributed(num_ranks, eta=1.0).select(dataset, 5)
        np.testing.assert_array_equal(
            distributed.selected_indices, serial.selected_indices
        )

    def test_eta_grid_search_selects_serial_points(self, dataset):
        serial = self._serial().select(dataset, 4)
        distributed = self._distributed(2).select(dataset, 4)
        np.testing.assert_array_equal(
            distributed.selected_indices, serial.selected_indices
        )
        assert distributed.round.eta == serial.round.eta

    def test_objective_tracking_normalized_away(self):
        selector = DistributedApproxFIRAL(RelaxConfig(track_objective="exact"), num_ranks=2)
        assert selector.relax_config.track_objective == "none"

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            DistributedApproxFIRAL(num_ranks=0)
        with pytest.raises(ValueError):
            DistributedApproxFIRAL(num_ranks=2, transport="mpi")

    @pytest.mark.parametrize("num_ranks", [1.5, True, "2"])
    @pytest.mark.parametrize(
        "entry", ["selector", "relax", "round", "round_search", "partition"]
    )
    def test_non_integer_rank_count_rejected(self, dataset, z_relaxed, entry, num_ranks):
        """A rank count is an integer: no truncation to one rank, no bare TypeError."""

        calls = {
            "selector": lambda: DistributedApproxFIRAL(num_ranks=num_ranks),
            "relax": lambda: distributed_relax(
                dataset, 6, num_ranks=num_ranks, config=relax_config()
            ),
            "round": lambda: distributed_round(dataset, z_relaxed, 3, 1.0, num_ranks=num_ranks),
            "round_search": lambda: distributed_round_search(
                dataset, z_relaxed, 3, eta_grid=(1.0,), num_ranks=num_ranks
            ),
            "partition": lambda: partition_pool(dataset, num_ranks),
        }
        with pytest.raises(ValueError, match="num_ranks"):
            calls[entry]()

    def test_numpy_integer_rank_count_accepted(self, dataset):
        selector = DistributedApproxFIRAL(num_ranks=np.int64(2))
        assert selector.num_ranks == 2 and type(selector.num_ranks) is int
        assert len(partition_pool(dataset, np.int32(3))) == 3


class TestSimulatedCluster:
    def test_relax_measurement_components(self, dataset):
        cluster = SimulatedCluster()
        measurement = cluster.measure_relax_step(dataset, budget=6, num_ranks=3)
        assert measurement.step == "relax"
        assert measurement.num_ranks == 3
        assert "cg" in measurement.measured_compute
        assert measurement.modeled_communication > 0
        assert measurement.theoretical["total"] > 0
        assert measurement.measured_total() > 0
        assert "p=3" in measurement.row()

    def test_round_measurement_components(self, dataset, z_relaxed):
        cluster = SimulatedCluster()
        measurement = cluster.measure_round_step(
            dataset, z_relaxed, eta=1.0, num_ranks=2, budget=2
        )
        assert measurement.step == "round"
        assert "score" in measurement.measured_compute
        assert measurement.theoretical_total() > 0

    def test_strong_scaling_returns_one_measurement_per_rank_count(self, dataset):
        cluster = SimulatedCluster()
        measurements = cluster.strong_scaling(
            lambda: dataset, [1, 2, 4], step="round", budget=1, eta=1.0
        )
        assert [m.num_ranks for m in measurements] == [1, 2, 4]
        assert all(m.num_points == dataset.num_pool for m in measurements)

    def test_weak_scaling_grows_problem(self):
        cluster = SimulatedCluster()

        def factory(total):
            return make_fisher_dataset(seed=1, num_pool=total, num_labeled=6, dimension=4, num_classes=3)

        measurements = cluster.weak_scaling(
            factory, [1, 2], step="round", points_per_rank=12, budget=1, eta=1.0
        )
        assert measurements[0].num_points == 12
        assert measurements[1].num_points == 24

    def test_invalid_step_rejected(self, dataset):
        with pytest.raises(ValueError):
            SimulatedCluster().strong_scaling(lambda: dataset, [1], step="foo")

    def test_scaling_measurement_defaults(self):
        m = ScalingMeasurement(step="relax", num_ranks=1, num_points=10)
        assert m.measured_total() == 0.0
