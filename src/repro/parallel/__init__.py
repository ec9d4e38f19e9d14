"""Parallel (multi-rank) substrate for Approx-FIRAL.

The paper's implementation distributes the pool points across ``p`` GPUs and
uses three MPI collectives (Allreduce, Allgather, Bcast) for all
inter-GPU communication (§ III-C).  This package provides:

* :mod:`repro.parallel.comm` — the :class:`Comm` protocol with two
  transports: :class:`SimulatedComm` (ranks as threads of one process,
  rendezvous over a shared slot table) and :class:`SharedMemoryComm` (ranks
  as real spawned OS processes over a ``multiprocessing.shared_memory``
  segment with a barrier/sequence-number protocol).  Both record message
  counts and volumes identically, so the analytic cost model of
  :mod:`repro.perfmodel` applies to simulated and real runs alike.
* :mod:`repro.parallel.launcher` — :func:`run_spmd`, which executes one
  per-rank entry point per rank over either transport.
* :mod:`repro.parallel.partition` — block partitioning of pool points and of
  class blocks across ranks.
* :mod:`repro.parallel.distributed_relax` / ``distributed_round`` — the
  rank programs (``relax_rank_main`` / ``round_rank_main`` /
  ``round_search_rank_main``) and transport-agnostic drivers for Algorithms
  2 and 3 and the η grid search.  Each rank program builds its shard, runs
  the serial solver's loop from :mod:`repro.core` with its communicator and
  reports: there is one SPMD loop per algorithm, and the serial solvers are
  its one-rank case (:data:`repro.core.spmd.ONE_RANK`).
* :mod:`repro.parallel.firal` — :class:`DistributedApproxFIRAL`, the full
  RELAX → η → ROUND selector over distributed solvers (what a session with
  ``SessionConfig.parallel_ranks`` runs).
* :mod:`repro.parallel.faults` — deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultInjectingComm`): kill, delay or drop a
  chosen rank at a chosen collective call, reproducibly on both transports,
  so rank-failure recovery is testable in CI without real hardware.
* :mod:`repro.parallel.cluster` — a driver that runs a p-rank job and
  reports per-rank compute time plus modeled communication time, which is
  how the strong/weak scaling figures (Figs. 6-7) are regenerated.
"""

from repro.parallel.comm import (
    Comm,
    CommAbortedError,
    CommError,
    CommProtocolError,
    CommunicationLog,
    SharedMemoryComm,
    SimulatedComm,
    create_communicators,
)
from repro.parallel.launcher import RankFailedError, TRANSPORTS, run_spmd
from repro.parallel.faults import (
    FaultInjectingComm,
    FaultInjectingEntry,
    FaultPlan,
    InjectedFaultError,
)
from repro.parallel.partition import block_partition, partition_indices, partition_pool, pool_offsets
from repro.parallel.distributed_relax import distributed_relax, relax_rank_main
from repro.parallel.distributed_round import (
    distributed_round,
    distributed_round_search,
    round_rank_main,
    round_search_rank_main,
)
from repro.parallel.firal import DistributedApproxFIRAL
from repro.parallel.cluster import SimulatedCluster, ScalingMeasurement

__all__ = [
    "Comm",
    "CommAbortedError",
    "CommError",
    "CommProtocolError",
    "CommunicationLog",
    "DistributedApproxFIRAL",
    "FaultInjectingComm",
    "FaultInjectingEntry",
    "FaultPlan",
    "InjectedFaultError",
    "RankFailedError",
    "SharedMemoryComm",
    "SimulatedComm",
    "TRANSPORTS",
    "create_communicators",
    "run_spmd",
    "block_partition",
    "partition_indices",
    "partition_pool",
    "pool_offsets",
    "distributed_relax",
    "relax_rank_main",
    "distributed_round",
    "distributed_round_search",
    "round_rank_main",
    "round_search_rank_main",
    "SimulatedCluster",
    "ScalingMeasurement",
]
