"""Tests for deterministic fault injection and rank-failure recovery.

The simulated-transport tests run in tier-1 CI; the ``chaos``-marked classes
re-run every failure mode with real OS processes over the shared-memory
transport (the CI ``chaos`` job runs exactly these with ``pytest -m chaos``).
Entry points handed to the spawn transport must be module-level functions.
"""

import numpy as np
import pytest

from repro.parallel.comm import CommAbortedError, CommError, CommProtocolError
from repro.parallel.faults import (
    FAULT_MODES,
    FaultInjectingEntry,
    FaultPlan,
    InjectedFaultError,
)
from repro.parallel.launcher import RankFailedError, run_spmd

COLLECTIVES = ("allreduce", "allgather", "bcast", "argmax_allreduce", "barrier")


# --------------------------------------------------------------------- #
# module-level rank bodies (picklable for the spawn transport)
# --------------------------------------------------------------------- #
def roundtrip_rank(comm, arg):
    """One call to each collective, in a fixed program order."""

    total = comm.allreduce(np.asarray([float(comm.rank + 1)]))
    gathered = comm.allgather(np.asarray([float(comm.rank)]))
    blessed = comm.bcast(np.asarray([7.0]) if comm.rank == 0 else None, root=0)
    winner = comm.argmax_allreduce(float(comm.rank), 10 + comm.rank)
    comm.barrier()
    return (
        np.asarray(total),
        np.asarray(gathered),
        np.asarray(blessed),
        winner,
    )


def attempt_echo_rank(comm, arg):
    comm.allreduce(np.asarray([1.0]))
    return (comm.rank, comm.attempt)


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(rank=-1)
        with pytest.raises(ValueError):
            FaultPlan(rank=0, at_call=0)
        with pytest.raises(ValueError):
            FaultPlan(rank=0, mode="explode")
        with pytest.raises(ValueError):
            FaultPlan(rank=0, collective="reduce_scatter")
        with pytest.raises(ValueError):
            FaultPlan(rank=0, delay_seconds=-1.0)
        with pytest.raises(ValueError):
            FaultPlan(rank=0, attempt=-1)

    def test_modes_are_closed(self):
        assert FAULT_MODES == ("kill", "delay", "drop")

    def test_dict_roundtrip(self):
        plan = FaultPlan(rank=1, at_call=3, mode="drop", collective="bcast", attempt=2)
        assert FaultPlan.from_dict(plan.to_dict()) == plan


class TestSimulatedInjection:
    def test_clean_plan_is_invisible(self):
        """A plan whose rank is outside the communicator never fires."""

        clean = run_spmd(roundtrip_rank, [None, None])
        inert = run_spmd(
            FaultInjectingEntry(roundtrip_rank, FaultPlan(rank=7)), [None, None]
        )
        for a, b in zip(clean, inert):
            np.testing.assert_array_equal(a[0], b[0])
            np.testing.assert_array_equal(a[1], b[1])
            np.testing.assert_array_equal(a[2], b[2])
            assert a[3] == b[3]

    @pytest.mark.parametrize("collective", COLLECTIVES)
    def test_kill_propagates_root_cause_per_collective(self, collective):
        """Satellite pin: the injected death at every collective site surfaces
        as the root cause, with its structured fields, not a peer's abort."""

        plan = FaultPlan(rank=1, mode="kill", collective=collective)
        with pytest.raises(InjectedFaultError) as excinfo:
            run_spmd(FaultInjectingEntry(roundtrip_rank, plan), [None, None])
        # Dispatch on the structured fields, never on the message text.
        assert excinfo.value.rank == 1
        assert excinfo.value.collective == collective
        assert excinfo.value.sequence == 1

    def test_delay_is_benign(self):
        plan = FaultPlan(rank=0, mode="delay", delay_seconds=0.01)
        clean = run_spmd(roundtrip_rank, [None, None])
        delayed = run_spmd(FaultInjectingEntry(roundtrip_rank, plan), [None, None])
        np.testing.assert_array_equal(clean[0][0], delayed[0][0])
        np.testing.assert_array_equal(clean[1][1], delayed[1][1])
        assert clean[0][3] == delayed[0][3]

    def test_drop_surfaces_as_protocol_error(self):
        """A dropped collective desynchronizes the rank; the next rendezvous
        detects the divergence deterministically instead of reducing garbage."""

        plan = FaultPlan(rank=1, mode="drop", collective="allreduce")
        with pytest.raises((CommProtocolError, CommAbortedError)) as excinfo:
            run_spmd(FaultInjectingEntry(roundtrip_rank, plan), [None, None])
        assert excinfo.value.rank is not None
        assert excinfo.value.collective is not None

    def test_peer_abort_carries_collective_context(self):
        """The surviving rank's CommAbortedError names the collective it was
        blocked in when its peer died.

        The kill fires at the dead rank's *first* collective, so the
        survivor is deterministically parked at that same rendezvous — a
        later kill site would race the survivor's exit from the previous
        collective's closing barrier.
        """

        plan = FaultPlan(rank=1, mode="kill", collective="allreduce")
        errors = {}

        def capture(comm, arg):
            try:
                return roundtrip_rank(comm, arg)
            except CommError as exc:
                errors[comm.rank] = exc
                raise

        with pytest.raises(InjectedFaultError):
            run_spmd(FaultInjectingEntry(capture, plan), [None, None])
        survivor = errors.get(0)
        assert isinstance(survivor, CommAbortedError)
        assert survivor.rank == 0
        assert survivor.collective == "allreduce"
        assert survivor.sequence == 1

    def test_retry_recovers_from_transient_fault(self):
        """An attempt-0-gated kill fails the first launch; max_retries=1
        relaunches and the second attempt runs clean."""

        plan = FaultPlan(rank=1, mode="kill", attempt=0)
        entry = FaultInjectingEntry(attempt_echo_rank, plan)
        with pytest.raises(InjectedFaultError):
            run_spmd(entry, [None, None])
        outputs = run_spmd(entry, [None, None], max_retries=1, retry_backoff=0.0)
        assert outputs == [(0, 1), (1, 1)]

    def test_retry_does_not_mask_rank_body_bugs(self):
        def buggy(comm, arg):
            raise KeyError("not a communicator failure")

        with pytest.raises(KeyError):
            run_spmd(buggy, [None, None], max_retries=5, retry_backoff=0.0)

    def test_permanent_fault_exhausts_retries(self):
        plan = FaultPlan(rank=1, mode="kill")
        with pytest.raises(InjectedFaultError):
            run_spmd(
                FaultInjectingEntry(attempt_echo_rank, plan),
                [None, None],
                max_retries=2,
                retry_backoff=0.0,
            )

    def test_overlapping_launches_leave_environ_unchanged(self):
        """Launch A starts, launch B starts on another thread, A ends, then B
        ends: each rank reads its launch's attempt off its communicator, and
        neither launch writes the environment."""

        import os
        import threading

        before = dict(os.environ)
        a_running, b_running, a_done = threading.Event(), threading.Event(), threading.Event()

        def launch_a(comm, arg):
            a_running.set()
            assert b_running.wait(10.0)
            return comm.attempt

        def launch_b(comm, arg):
            b_running.set()
            assert a_done.wait(10.0)
            return comm.attempt

        outputs = {}

        def run_a():
            outputs["a"] = run_spmd(launch_a, [None])

        def run_b():
            outputs["b"] = run_spmd(launch_b, [None])

        thread_a = threading.Thread(target=run_a)
        thread_a.start()
        assert a_running.wait(10.0)
        thread_b = threading.Thread(target=run_b)
        thread_b.start()
        thread_a.join(10.0)
        assert not thread_a.is_alive()
        a_done.set()
        thread_b.join(10.0)
        assert not thread_b.is_alive()
        assert outputs == {"a": [0], "b": [0]}
        assert dict(os.environ) == before


@pytest.mark.chaos
@pytest.mark.multiprocess
class TestSharedMemoryInjection:
    """Every failure mode again, with ranks as real spawned OS processes."""

    @pytest.mark.parametrize("collective", COLLECTIVES)
    def test_kill_propagates_root_cause_per_collective(self, collective):
        plan = FaultPlan(rank=1, mode="kill", collective=collective)
        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(
                FaultInjectingEntry(roundtrip_rank, plan),
                [None, None],
                transport="shared_memory",
                max_message_bytes=1024,
            )
        # The original exception type and its structured fields survive the
        # process boundary — recovery code dispatches on these, not on the
        # pickled traceback text.
        assert excinfo.value.cause_type == InjectedFaultError.__name__
        assert excinfo.value.rank == 1
        assert excinfo.value.collective == collective
        assert excinfo.value.sequence == 1

    def test_delay_is_benign(self):
        plan = FaultPlan(rank=0, mode="delay", delay_seconds=0.01)
        clean = run_spmd(
            roundtrip_rank, [None, None], transport="shared_memory", max_message_bytes=1024
        )
        delayed = run_spmd(
            FaultInjectingEntry(roundtrip_rank, plan),
            [None, None],
            transport="shared_memory",
            max_message_bytes=1024,
        )
        np.testing.assert_array_equal(clean[0][0], delayed[0][0])
        assert clean[1][3] == delayed[1][3]

    def test_drop_surfaces_as_protocol_error(self):
        plan = FaultPlan(rank=1, mode="drop", collective="allreduce")
        with pytest.raises(RankFailedError) as excinfo:
            run_spmd(
                FaultInjectingEntry(roundtrip_rank, plan),
                [None, None],
                transport="shared_memory",
                max_message_bytes=1024,
            )
        assert excinfo.value.cause_type in (
            CommProtocolError.__name__,
            CommAbortedError.__name__,
        )
        assert excinfo.value.collective is not None

    def test_retry_recovers_from_transient_fault(self):
        """The attempt gate crosses the spawn boundary via the environment."""

        plan = FaultPlan(rank=1, mode="kill", attempt=0)
        entry = FaultInjectingEntry(attempt_echo_rank, plan)
        outputs = run_spmd(
            entry,
            [None, None],
            transport="shared_memory",
            max_message_bytes=1024,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert outputs == [(0, 1), (1, 1)]
