"""SPMD launcher: run one rank entry point per rank over a chosen transport.

The distributed solvers are written as *per-rank* functions
(``relax_rank_main`` / ``round_rank_main``) taking a
:class:`~repro.parallel.comm.Comm` handle plus a picklable per-rank argument
object.  :func:`run_spmd` executes ``len(rank_args)`` such ranks and returns
their outputs in rank order, over either transport:

* ``transport="simulated"`` — ranks are threads of this process over
  :class:`~repro.parallel.comm.SimulatedComm`.  Collectives rendezvous at a
  ``threading.Barrier``; NumPy/torch kernels release the GIL, so rank compute
  genuinely overlaps.  A failing rank aborts the barrier so its peers raise
  :class:`~repro.parallel.comm.CommAbortedError` instead of deadlocking.
* ``transport="shared_memory"`` — ranks are real OS processes started with
  the spawn-safe ``multiprocessing`` context, communicating through a
  :class:`~repro.parallel.comm.SharedMemoryComm` over one shared-memory
  segment.  The entry point and per-rank arguments must be picklable (the
  entry point must be a module-level function); results come back over a
  queue and are re-ordered by rank.

Both transports produce per-rank outputs the drivers in
``distributed_relax`` / ``distributed_round`` merge into one result;
``collective_log`` picks the canonical communication log of a run (the
shared log for threads, rank 0's log for processes — all ranks' logs are
identical by construction).
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from repro.fisher.operators import FisherDataset
from repro.parallel.comm import (
    Comm,
    CommAbortedError,
    CommError,
    CommunicationLog,
    SharedMemoryComm,
    SimulatedComm,
    _HEADER_BYTES,
    create_communicators,
)
from repro.utils.validation import require

__all__ = [
    "RankFailedError",
    "TRANSPORTS",
    "collective_log",
    "merge_component_seconds",
    "rank_shard",
    "run_spmd",
    "ship_array",
]

TRANSPORTS = ("simulated", "shared_memory")

#: Default per-rank slot capacity (bytes) when the caller gives no bound.
DEFAULT_MESSAGE_BYTES = 1 << 22

RankMain = Callable[[Comm, Any], Any]


class RankFailedError(CommError):
    """One or more ranks raised; carries the first failure's rank and traceback.

    Inherits the structured :class:`~repro.parallel.comm.CommError` fields;
    for failures that crossed a process boundary (shared-memory transport)
    ``cause_type`` additionally names the original exception class, so
    recovery code can distinguish a root cause from a peer's
    ``CommAbortedError`` echo without parsing the traceback text.
    """

    def __init__(
        self,
        rank: int,
        message: str,
        *,
        sequence: Optional[int] = None,
        tag: Optional[int] = None,
        collective: Optional[str] = None,
        cause_type: Optional[str] = None,
    ):
        super().__init__(
            f"rank {rank} failed: {message}",
            rank=rank,
            sequence=sequence,
            tag=tag,
            collective=collective,
        )
        self.cause_type = cause_type


def ship_array(backend, array, transport: str):
    """Prepare an array for a rank spec.

    The shared-memory transport pickles specs into spawned processes, so
    backend arrays are converted to contiguous host arrays; the simulated
    transport shares memory with its rank threads, so (possibly
    device-resident) arrays pass through untouched.
    """

    if transport == "shared_memory":
        return np.ascontiguousarray(backend.to_numpy(array))
    return array


def rank_shard(spec) -> FisherDataset:
    """The rank's pool shard plus the replicated labeled set, from its spec.

    Each rank assembles ``B(H_o)`` once from its replicated labeled arrays.
    """

    return FisherDataset(
        pool_features=spec.pool_features,
        pool_probabilities=spec.pool_probabilities,
        labeled_features=spec.labeled_features,
        labeled_probabilities=spec.labeled_probabilities,
    )


def merge_component_seconds(outputs: Sequence[Any]) -> dict:
    """Per-rank ``seconds`` dicts → component name → array of per-rank seconds.

    Component order follows first appearance across ranks, so rank 0's
    ordering (the canonical SPMD program order) leads.
    """

    components: List[str] = []
    for output in outputs:
        for name in output.seconds:
            if name not in components:
                components.append(name)
    return {
        name: np.asarray([output.seconds.get(name, 0.0) for output in outputs], dtype=np.float64)
        for name in components
    }


def collective_log(outputs: Sequence[Any]) -> CommunicationLog:
    """The canonical :class:`CommunicationLog` of a finished SPMD run.

    Every rank output is expected to expose a ``log`` attribute.  Under the
    simulated transport all ranks share one log object and rank 0 records;
    under the shared-memory transport each rank records privately but the
    logs are identical — either way rank 0's log *is* the run's log.
    """

    require(len(outputs) > 0, "no rank outputs")
    return outputs[0].log


def run_spmd(
    entry: RankMain,
    rank_args: Sequence[Any],
    *,
    transport: str = "simulated",
    max_message_bytes: Optional[int] = None,
    timeout: float = 120.0,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
) -> List[Any]:
    """Run ``entry(comm, rank_args[rank])`` on every rank; return outputs in rank order.

    Parameters
    ----------
    entry:
        The per-rank SPMD body.  For the shared-memory transport it must be a
        module-level (picklable) function.
    rank_args:
        One argument object per rank; its length fixes the communicator size.
    transport:
        ``"simulated"`` (threads, default) or ``"shared_memory"`` (spawned
        processes).
    max_message_bytes:
        Upper bound on a single collective contribution, sizing the per-rank
        shared-memory slots.  Ignored by the simulated transport.  The
        distributed solvers compute a tight bound from the problem shape.
    timeout:
        Seconds a rank waits at a collective barrier before declaring the
        run deadlocked (both transports) — a peer that never posts the
        matching collective surfaces as
        :class:`~repro.parallel.comm.CommAbortedError` instead of a hang.
        For shared memory the parent additionally polls for results
        indefinitely while rank processes are alive — a long solve is not a
        failure — and raises :class:`RankFailedError` only when a rank
        reports an error or dies without reporting.
    max_retries:
        Relaunch the whole SPMD program up to this many extra times when a
        launch fails with a :class:`~repro.parallel.comm.CommError`
        (rank failure, barrier abort, protocol divergence).  Safe because a
        launch is all-or-nothing: per-rank state lives only inside the
        failed launch, so a relaunch replays the identical deterministic
        program.  Non-communicator errors (a bug in the rank body) propagate
        immediately.  Every rank's communicator carries the zero-based
        attempt index as ``comm.attempt``, so fault plans gated on one
        attempt model transient failures; nothing process-wide is written,
        so overlapping launches on other threads cannot see or change it.
    retry_backoff:
        Base of the exponential backoff between attempts:
        ``retry_backoff * 2**attempt`` seconds after attempt ``attempt``.
    """

    require(len(rank_args) > 0, "at least one rank is required")
    require(transport in TRANSPORTS, f"unknown transport '{transport}'; use one of {TRANSPORTS}")
    require(max_retries >= 0, "max_retries must be non-negative")
    require(retry_backoff >= 0, "retry_backoff must be non-negative")

    attempt = 0
    while True:
        try:
            if transport == "simulated":
                return _run_threads(entry, rank_args, timeout, attempt)
            return _run_processes(entry, rank_args, max_message_bytes, timeout, attempt)
        except CommError:
            if attempt >= max_retries:
                raise
            time.sleep(retry_backoff * (2**attempt))
            attempt += 1


# --------------------------------------------------------------------- #
# simulated transport: threads
# --------------------------------------------------------------------- #
def _run_threads(
    entry: RankMain, rank_args: Sequence[Any], timeout: float, attempt: int
) -> List[Any]:
    num_ranks = len(rank_args)
    comms = create_communicators(num_ranks, timeout=timeout, attempt=attempt)
    if num_ranks == 1:
        # A single rank never blocks on the barrier; run it inline so stack
        # traces, profilers and debuggers see a plain call.
        return [entry(comms[0], rank_args[0])]

    outputs: List[Any] = [None] * num_ranks
    failures: List[Optional[BaseException]] = [None] * num_ranks

    def _rank_body(rank: int, comm: SimulatedComm) -> None:
        try:
            outputs[rank] = entry(comm, rank_args[rank])
        except BaseException as exc:  # noqa: BLE001 - repropagated below
            failures[rank] = exc
            comm.abort()  # unblock peers waiting at the rendezvous

    threads = [
        threading.Thread(target=_rank_body, args=(rank, comms[rank]), name=f"spmd-rank-{rank}")
        for rank in range(num_ranks)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Prefer the root cause over the CommAbortedError echoes of its peers.
    primary = next(
        (exc for exc in failures if exc is not None and not isinstance(exc, CommAbortedError)),
        next((exc for exc in failures if exc is not None), None),
    )
    if primary is not None:
        raise primary
    return outputs


# --------------------------------------------------------------------- #
# shared-memory transport: spawned processes
# --------------------------------------------------------------------- #
def _comm_error_fields(exc: BaseException) -> dict:
    """Structured context of a failure, picklable for the result queue."""

    if isinstance(exc, CommError):
        return {
            "sequence": exc.sequence,
            "tag": exc.tag,
            "collective": exc.collective,
        }
    return {}


def _process_rank_main(entry, rank, size, shm_name, barrier, capacity, timeout, attempt, args, queue):
    """Module-level child body (spawn requires a picklable, importable target)."""

    comm = SharedMemoryComm(
        rank, size, shm_name, barrier, capacity, timeout=timeout, attempt=attempt
    )
    try:
        payload = entry(comm, args)
        queue.put((rank, True, payload))
    except BaseException as exc:  # noqa: BLE001 - serialized back to the parent
        # Break the shared barrier so peer ranks stop waiting for this rank
        # instead of blocking until the timeout.
        barrier.abort()
        queue.put(
            (rank, False, (type(exc).__name__, traceback.format_exc(), _comm_error_fields(exc)))
        )
    finally:
        comm.close()


def _run_processes(
    entry: RankMain,
    rank_args: Sequence[Any],
    max_message_bytes: Optional[int],
    timeout: float,
    attempt: int,
) -> List[Any]:
    import multiprocessing as mp
    from multiprocessing import shared_memory
    from queue import Empty

    num_ranks = len(rank_args)
    capacity = int(max_message_bytes or DEFAULT_MESSAGE_BYTES)
    require(capacity > 0, "max_message_bytes must be positive")
    slot_bytes = _HEADER_BYTES + capacity

    ctx = mp.get_context("spawn")
    segment = shared_memory.SharedMemory(create=True, size=num_ranks * slot_bytes)
    barrier = ctx.Barrier(num_ranks)
    queue = ctx.Queue()
    processes = [
        ctx.Process(
            target=_process_rank_main,
            args=(
                entry, rank, num_ranks, segment.name, barrier, capacity, timeout, attempt,
                rank_args[rank], queue,
            ),
            name=f"spmd-rank-{rank}",
            daemon=True,
        )
        for rank in range(num_ranks)
    ]
    outputs: List[Any] = [None] * num_ranks
    try:
        for process in processes:
            process.start()
        failures: List[tuple] = []
        received_ranks: set = set()
        received = 0
        poll_seconds = min(timeout, 10.0)
        while received < num_ranks:
            try:
                rank, ok, payload = queue.get(timeout=poll_seconds)
            except Empty:
                # A slow solve is not a failure — ranks only report once the
                # whole SPMD body finishes, and genuine deadlocks are bounded
                # by the children's own barrier timeout.  Only a rank that
                # *died* without reporting (hard crash, OOM kill) ends the
                # run from the parent side; give the queue one grace read in
                # case its result was still in flight.
                dead = [
                    r for r, p in enumerate(processes)
                    if not p.is_alive() and r not in received_ranks
                ]
                if not dead:
                    continue
                try:
                    rank, ok, payload = queue.get(timeout=2.0)
                except Empty:
                    codes = {r: processes[r].exitcode for r in dead}
                    raise RankFailedError(
                        dead[0],
                        f"rank process exited without reporting a result (exit codes: {codes})",
                    ) from None
            received_ranks.add(rank)
            received += 1
            if ok:
                outputs[rank] = payload
            else:
                failures.append((rank, *payload))
        if failures:
            # Queue arrival order races between children; report the root
            # cause, not a peer's CommAbortedError echo of it.
            primary = next(
                (f for f in failures if f[1] != CommAbortedError.__name__), failures[0]
            )
            fields = primary[3] if len(primary) > 3 else {}
            raise RankFailedError(
                primary[0], f"\n{primary[2]}", cause_type=primary[1], **fields
            )
        return outputs
    finally:
        # Best-effort teardown: never let cleanup of one process mask the
        # original error (e.g. an unpicklable spec failing the Nth start()
        # leaves later processes never-started, whose join() would raise),
        # and always unlink the /dev/shm segment — leaking it would pin
        # num_ranks * slot_bytes of shared memory until reboot.
        for process in processes:
            try:
                process.join(timeout=timeout)
            except (ValueError, AssertionError):  # never started
                continue
        for process in processes:
            try:
                if process.is_alive():  # pragma: no cover - defensive teardown
                    process.terminate()
                    process.join(timeout=5.0)
            except (ValueError, AssertionError):  # pragma: no cover
                continue
        queue.close()
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
