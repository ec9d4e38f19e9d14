"""Tests for the SPMD launcher and the real shared-memory transport.

The ``multiprocess``-marked tests spawn actual OS processes (the CI
``multiprocess`` job runs exactly these with ``pytest -m multiprocess``); the
rest exercise the launcher's thread path.  Entry points handed to the
shared-memory transport must be module-level functions — spawn pickles them
by reference — which is why the bodies below are not closures.
"""

import numpy as np
import pytest

from repro.core.approx_round import approx_round
from repro.core.config import RelaxConfig
from repro.parallel.comm import CommunicationLog
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round
from repro.parallel.launcher import RankFailedError, run_spmd
from tests.conftest import make_fisher_dataset


# --------------------------------------------------------------------- #
# module-level rank bodies (picklable for the spawn transport)
# --------------------------------------------------------------------- #
def echo_rank(comm, arg):
    return (comm.rank, comm.size, arg)


def collective_roundtrip(comm, arg):
    total = comm.allreduce(np.asarray(arg, dtype=np.float64))
    gathered = comm.allgather(np.full(comm.rank + 1, float(comm.rank)))
    blessed = comm.bcast(np.arange(3.0) if comm.rank == 1 else None, root=1)
    owner, index, value = comm.argmax_allreduce(2.5, 40 + comm.rank)  # tie
    comm.barrier()
    return {
        "sum": np.asarray(total),
        "gathered": np.asarray(gathered),
        "bcast": np.asarray(blessed),
        "winner": (owner, index, value),
        "log": comm.log,
    }


def failing_rank(comm, arg):
    if comm.rank == 1:
        raise RuntimeError("deliberate failure")
    return comm.allreduce(np.ones(2))


def oversized_payload(comm, arg):
    return comm.allreduce(np.ones(4096, dtype=np.float64))


class TestRunSpmdSimulated:
    def test_outputs_in_rank_order(self):
        outputs = run_spmd(echo_rank, ["a", "b", "c"])
        assert outputs == [(0, 3, "a"), (1, 3, "b"), (2, 3, "c")]

    def test_single_rank_runs_inline(self):
        assert run_spmd(echo_rank, ["only"]) == [(0, 1, "only")]

    def test_error_propagates(self):
        with pytest.raises(RuntimeError, match="deliberate failure"):
            run_spmd(failing_rank, [None, None])

    def test_empty_rank_list_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(echo_rank, [])

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            run_spmd(echo_rank, [1], transport="mpi")

    def test_shared_log_records_once_per_collective(self):
        outputs = run_spmd(collective_roundtrip, [[1.0], [2.0]])
        log = outputs[0]["log"]
        assert isinstance(log, CommunicationLog)
        assert log.calls == {"allreduce": 2, "allgather": 1, "bcast": 1}  # sum + maxloc
        # Under the simulated transport all ranks share one log object.
        assert outputs[1]["log"] is log


@pytest.mark.multiprocess
class TestSharedMemoryTransport:
    """Real OS processes over multiprocessing.shared_memory."""

    def test_collectives_roundtrip_across_processes(self):
        outputs = run_spmd(
            collective_roundtrip,
            [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
            transport="shared_memory",
            max_message_bytes=4096,
        )
        assert len(outputs) == 3
        for out in outputs:
            np.testing.assert_array_equal(out["sum"], [9.0, 12.0])
            np.testing.assert_array_equal(out["gathered"], [0.0, 1.0, 1.0, 2.0, 2.0, 2.0])
            np.testing.assert_array_equal(out["bcast"], [0.0, 1.0, 2.0])
            # MAXLOC tie: lowest rank wins on the real transport too.
            assert out["winner"] == (0, 40, 2.5)

    def test_traffic_identical_to_simulated(self):
        """Byte-for-byte identical CommunicationLog on both transports."""

        args = [[1.0, 2.0], [3.0, 4.0]]
        simulated = run_spmd(collective_roundtrip, args, transport="simulated")
        real = run_spmd(
            collective_roundtrip, args, transport="shared_memory", max_message_bytes=4096
        )
        assert simulated[0]["log"].as_dict() == real[0]["log"].as_dict()

    def test_child_failure_surfaces_with_traceback(self):
        with pytest.raises(RankFailedError, match="deliberate failure"):
            run_spmd(failing_rank, [None, None], transport="shared_memory")

    def test_payload_exceeding_slot_capacity_rejected(self):
        with pytest.raises(RankFailedError, match="slot capacity"):
            run_spmd(
                oversized_payload, [None, None], transport="shared_memory", max_message_bytes=128
            )


@pytest.mark.multiprocess
class TestDistributedSolversOverProcesses:
    """Acceptance pins: ≥2 real OS processes, selections vs the serial solver,
    bytes vs the simulated transport."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return make_fisher_dataset(seed=30, num_pool=36, num_labeled=8, dimension=4, num_classes=3)

    @pytest.fixture(scope="class")
    def z_relaxed(self, dataset):
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, size=dataset.num_pool)
        return 6.0 * z / z.sum()

    def test_round_selects_serial_points_across_processes(self, dataset, z_relaxed):
        serial = approx_round(dataset, z_relaxed, budget=5, eta=1.0)
        real = distributed_round(
            dataset, z_relaxed, 5, eta_grid=(1.0,), num_ranks=2, transport="shared_memory"
        )
        np.testing.assert_array_equal(real.selected_indices, serial.selected_indices)
        assert real.transport == "shared_memory"

    def test_round_bytes_match_simulated(self, dataset, z_relaxed):
        simulated = distributed_round(dataset, z_relaxed, 4, eta_grid=(1.0,), num_ranks=2)
        real = distributed_round(
            dataset, z_relaxed, 4, eta_grid=(1.0,), num_ranks=2, transport="shared_memory"
        )
        assert real.comm_log.as_dict() == simulated.comm_log.as_dict()

    def test_relax_matches_simulated_within_tolerance(self, dataset):
        """Real-transport weights equal the simulated run up to reduction order.

        The wire format is exact (float64 round-trips bit-for-bit through
        shared memory) and both transports reduce in rank order, so on the
        NumPy backend the tolerance is tight; it is a tolerance rather than
        equality because the acceptance contract only promises agreement up
        to floating-point reduction order across process boundaries.
        """

        cfg = RelaxConfig(max_iterations=3, track_objective="none", seed=11)
        simulated = distributed_relax(dataset, 6, num_ranks=2, config=cfg)
        real = distributed_relax(
            dataset, 6, num_ranks=2, config=cfg, transport="shared_memory"
        )
        np.testing.assert_allclose(
            np.asarray(real.weights), np.asarray(simulated.weights), rtol=1e-12, atol=1e-15
        )
        assert real.comm_log.as_dict() == simulated.comm_log.as_dict()
        assert real.iterations == simulated.iterations

    def test_relax_per_rank_seconds_cover_all_ranks(self, dataset):
        cfg = RelaxConfig(max_iterations=1, track_objective="none", seed=0)
        real = distributed_relax(
            dataset, 6, num_ranks=2, config=cfg, transport="shared_memory"
        )
        assert real.per_rank_seconds["cg"].shape == (2,)
        assert real.compute_seconds() > 0
