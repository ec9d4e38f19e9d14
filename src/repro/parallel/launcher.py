"""SPMD launcher: the one launch path of every distributed solve.

The distributed solvers are written as *per-rank* programs
(``relax_rank_main`` / ``round_rank_main``) taking a
:class:`~repro.parallel.comm.Comm` handle plus a picklable
:class:`RankSpec`.  :func:`launch_shards` launches either of them: it
partitions the pool (balanced, or along explicit shard offsets), ships each
rank its shard, builds one spec per rank and calls :func:`run_spmd`, which
executes ``len(rank_args)`` ranks and returns their outputs in rank order,
over either transport:

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

Each rank program returns a :class:`RankOutput` holding its loop's own
result; :meth:`RankAccounting.from_outputs` merges a launch's outputs into
the per-rank compute seconds and the communication log that both
distributed results report (rank 0's log is the run's log: the shared log
for threads, and for processes a private log identical on every rank).
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import Array, get_backend
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.result import RelaxResult, RoundResult
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
from repro.parallel.partition import partition_pool, pool_offsets
from repro.utils.validation import require

__all__ = [
    "RankAccounting",
    "RankFailedError",
    "RankOutput",
    "RankSpec",
    "TRANSPORTS",
    "launch_shards",
    "run_spmd",
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


@dataclass
class RankSpec:
    """Picklable per-rank inputs of a rank program.

    The arrays are the rank's pool shard plus the replicated labeled set;
    under the shared-memory transport they are contiguous host copies (the
    spec is pickled into a spawned process), under the simulated transport
    the rank threads share the driver's arrays.  ``offsets`` is the global
    shard table, so ``offsets[-1]`` is the whole pool's size.  ROUND ranks
    also get their slice ``z`` of the relaxed weights and the η grid.
    """

    pool_features: Array
    pool_probabilities: Array
    labeled_features: Array
    labeled_probabilities: Array
    offsets: np.ndarray
    budget: int
    config: Union[RelaxConfig, RoundConfig]
    z: Optional[Array] = None
    eta_grid: Tuple[float, ...] = ()

    def shard(self) -> FisherDataset:
        """The rank's pool shard plus the replicated labeled set.

        Each rank assembles ``B(H_o)`` once from its replicated labeled arrays.
        """

        return FisherDataset(
            pool_features=self.pool_features,
            pool_probabilities=self.pool_probabilities,
            labeled_features=self.labeled_features,
            labeled_probabilities=self.labeled_probabilities,
        )


@dataclass
class RankOutput:
    """What one rank reports: its loop's own result and the run's log.

    ``result.timings`` are the rank's compute seconds per component,
    collectives excluded.
    """

    rank: int
    result: Union[RelaxResult, RoundResult]
    log: CommunicationLog


class RankAccounting:
    """Per-rank accounting shared by the distributed results.

    A subclass is a dataclass with the fields ``num_ranks``, ``transport``,
    ``per_rank_seconds`` (component name → array of per-rank compute
    seconds, collectives excluded) and ``comm_log`` (every collective with
    its message size).  The parallel compute estimate of a component is its
    max over ranks.
    """

    @classmethod
    def from_outputs(cls, outputs: Sequence[RankOutput], transport: str, **fields):
        """The result of a finished launch: ``fields`` plus its accounting.

        Component order follows first appearance across ranks, so rank 0's
        ordering (the canonical SPMD program order) leads.
        """

        seconds = [output.result.timings.as_dict() for output in outputs]
        components = dict.fromkeys(name for rank_seconds in seconds for name in rank_seconds)
        return cls(
            num_ranks=len(outputs),
            transport=transport,
            per_rank_seconds={
                name: np.asarray([s.get(name, 0.0) for s in seconds], dtype=np.float64)
                for name in components
            },
            comm_log=outputs[0].log,
            **fields,
        )

    def max_rank_seconds(self, component: str) -> float:
        values = self.per_rank_seconds.get(component)
        return float(values.max()) if values is not None and values.size else 0.0

    def compute_seconds(self) -> float:
        """Modeled parallel compute time: sum over components of max over ranks."""

        return float(sum(self.max_rank_seconds(name) for name in self.per_rank_seconds))


def launch_shards(
    entry: RankMain,
    dataset: FisherDataset,
    *,
    num_ranks: int,
    budget: int,
    config: Union[RelaxConfig, RoundConfig],
    transport: str,
    timeout: float,
    offsets: Optional[np.ndarray],
    fault_plan,
    max_message_bytes: int,
    z: Optional[Array] = None,
    eta_grid: Sequence[float] = (),
) -> List[RankOutput]:
    """Launch ``entry`` over the pool of ``dataset`` split across ``num_ranks`` ranks.

    The pool is partitioned along ``offsets`` (a sharded pool store's
    ownership table) or, when ``None``, evenly; every rank gets its shard,
    the replicated labeled set, the global offsets table, and for ROUND its
    slice of ``z`` and the η grid.  The shared-memory transport pickles the
    specs into spawned processes, so its arrays are shipped as contiguous
    host copies; the simulated transport's rank threads share the arrays
    untouched.
    """

    backend = get_backend()

    def ship(array):
        if transport == "shared_memory":
            return np.ascontiguousarray(backend.to_numpy(array))
        return array

    shards = partition_pool(dataset, num_ranks, offsets=offsets)
    offsets = pool_offsets(dataset.num_pool, num_ranks, offsets)
    specs = [
        RankSpec(
            pool_features=ship(shard.pool_features),
            pool_probabilities=ship(shard.pool_probabilities),
            labeled_features=ship(shard.labeled_features),
            labeled_probabilities=ship(shard.labeled_probabilities),
            offsets=offsets,
            budget=int(budget),
            config=config,
            z=None if z is None else ship(z[int(offsets[rank]) : int(offsets[rank + 1])]),
            eta_grid=tuple(eta_grid),
        )
        for rank, shard in enumerate(shards)
    ]
    return run_spmd(
        entry,
        specs,
        transport=transport,
        max_message_bytes=max_message_bytes,
        timeout=timeout,
        fault_plan=fault_plan,
    )


def run_spmd(
    entry: RankMain,
    rank_args: Sequence[Any],
    *,
    transport: str = "simulated",
    max_message_bytes: Optional[int] = None,
    timeout: float = 120.0,
    max_retries: int = 0,
    retry_backoff: float = 0.05,
    fault_plan=None,
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
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan`: every rank's
        communicator is wrapped in a
        :class:`~repro.parallel.faults.FaultInjectingComm` firing it (the
        entry runs inside a picklable
        :class:`~repro.parallel.faults.FaultInjectingEntry`) — the
        chaos-testing hook the recovery tests and benchmarks use.
    """

    require(len(rank_args) > 0, "at least one rank is required")
    require(transport in TRANSPORTS, f"unknown transport '{transport}'; use one of {TRANSPORTS}")
    require(max_retries >= 0, "max_retries must be non-negative")
    require(retry_backoff >= 0, "retry_backoff must be non-negative")
    if fault_plan is not None:
        from repro.parallel.faults import FaultInjectingEntry  # faults imports this module

        entry = FaultInjectingEntry(entry, fault_plan)

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
