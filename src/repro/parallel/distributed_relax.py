"""Distributed (SPMD) RELAX (Algorithm 2): the rank program and its driver.

The pool is partitioned across ``p`` ranks; the labeled set is replicated,
but each rank's ``Sigma_z`` matvecs cover only its ``block_partition`` share
of the labeled rows, so the labeled term is computed once, not ``p`` times.
The loop itself is :func:`repro.core.approx_relax.relax_loop` — the same
code the serial :func:`~repro.core.approx_relax.approx_relax` runs with its
one-rank communicator — and follows the communication pattern of § III-C:

* probes are broadcast from rank 0 (``MPI_Bcast``),
* the block-diagonal preconditioner is assembled from per-rank partial sums
  (``MPI_Allreduce`` of ``c d^2`` floats), with the labeled term and the
  ``O(c d^3)`` inversion replicated on every rank exactly as in the real
  code,
* every CG iteration allreduces the per-rank partial matvecs, each one
  Lemma-2 pass over the rank's pool rows and labeled share
  (``MPI_Allreduce`` of ``c d s`` floats), and so does ``H_p W``; the CG
  vector arithmetic operates on replicated ``dc``-dimensional state and is
  therefore identical on every rank, as are the objective estimate and the
  stopping rule,
* the gradient and the ``z`` update are purely local except for the simplex
  normalization (allreduces of scalars).

:func:`relax_rank_main` builds the rank's shard, runs the loop and reports.
:func:`distributed_relax` is the driver: it launches the rank program
through :func:`repro.parallel.launcher.launch_shards` — the one launch path
of the distributed solvers, over threads (``transport="simulated"``) or real
spawned processes (``transport="shared_memory"``) — and merges the per-rank
outputs.  Per-rank compute seconds are measured for each component
(collectives excluded) so the strong/weak scaling figures can combine
``max``-over-ranks compute with the analytic communication model; the
communication log records every collective with its message size, with
identical accounting on both transports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np  # host-side timing/bookkeeping only; array math uses the backend

from repro.backend import Array, get_backend
from repro.core.approx_relax import relax_loop
from repro.core.config import RelaxConfig
from repro.fisher.operators import FisherDataset
from repro.parallel.comm import Comm, CommunicationLog
from repro.parallel.launcher import RankAccounting, RankOutput, RankSpec, launch_shards
from repro.utils.validation import check_positive_int, require

__all__ = [
    "DistributedRelaxResult",
    "distributed_relax",
    "relax_rank_main",
]


@dataclass
class DistributedRelaxResult(RankAccounting):
    """Output of a distributed RELAX solve.

    ``per_rank_seconds`` maps a component name (``"setup_preconditioner"``,
    ``"cg"``, ``"gradient"``, ``"other"``, and ``"objective"`` under
    ``track_objective="estimate"``) to an array of per-rank compute seconds;
    see :class:`~repro.parallel.launcher.RankAccounting`.
    """

    weights: Array
    iterations: int
    cg_iterations: int
    num_ranks: int
    transport: str
    per_rank_seconds: Dict[str, np.ndarray]
    comm_log: CommunicationLog


def relax_rank_main(comm: Comm, spec: RankSpec) -> RankOutput:
    """SPMD body of Algorithm 2 for one rank."""

    pool_size = int(spec.offsets[-1])
    result = relax_loop(comm, spec.shard(), pool_size, spec.budget, spec.config)
    return RankOutput(rank=comm.rank, result=result, log=comm.log)


def relax_message_bytes(num_pool: int, joint_dimension: int, num_classes: int,
                        dimension: int, num_probes: int) -> int:
    """Tight upper bound on one RELAX collective contribution, in bytes.

    The largest payloads are the probe block / CG partials (``dc × s``
    float64), the block-diagonal partial sums (``c × d × d`` float64) and a
    rank's final weight shard (``≤ n`` float64).
    """

    itemsize = np.dtype(np.float64).itemsize
    return itemsize * max(
        joint_dimension * num_probes,
        num_classes * dimension * dimension,
        num_pool,
        1,
    )


def distributed_relax(
    dataset: FisherDataset,
    budget: int,
    *,
    num_ranks: int,
    config: Optional[RelaxConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
) -> DistributedRelaxResult:
    """Run Algorithm 2 over ``num_ranks`` ranks of the chosen transport.

    ``offsets`` overrides the balanced pool split with explicit shard
    boundaries (a sharded pool store's ownership table); see
    :func:`repro.parallel.partition.partition_pool`.  ``fault_plan`` wraps
    every rank's communicator in a
    :class:`~repro.parallel.faults.FaultInjectingComm` firing the plan — the
    chaos-testing hook the recovery tests and benchmarks use.

    Runs the loop of :func:`repro.core.approx_relax.approx_relax`, so the
    result equals the serial solver's up to reduction order, and at one rank
    bit for bit (weights, ``iterations`` and ``cg_iterations``), which the
    test suite verifies.  ``track_objective="estimate"`` (the objective
    read off the Line-6/7 solve, and its stopping rule) runs at any rank
    count; ``"exact"`` needs the whole pool and is rejected.
    ``transport="shared_memory"`` runs every rank as a real spawned OS
    process communicating over shared memory; results match the simulated
    transport up to the floating-point effects of crossing a process
    boundary (none on the NumPy backend — the wire format is exact).
    """

    require(budget > 0, "budget must be positive")
    num_ranks = check_positive_int(num_ranks, "num_ranks")
    cfg = config or RelaxConfig(track_objective="none")
    require(
        cfg.track_objective != "exact",
        "distributed_relax cannot track the exact objective; use 'estimate' or 'none'",
    )
    outputs = launch_shards(
        relax_rank_main,
        dataset,
        num_ranks=num_ranks,
        budget=budget,
        config=cfg,
        transport=transport,
        timeout=timeout,
        offsets=offsets,
        fault_plan=fault_plan,
        max_message_bytes=relax_message_bytes(
            dataset.num_pool,
            dataset.joint_dimension,
            dataset.num_classes,
            dataset.dimension,
            cfg.num_probes,
        ),
    )
    results = [output.result for output in outputs]
    require(
        len({(result.iterations, result.cg_iterations) for result in results}) == 1,
        "ranks diverged: unequal mirror-descent or CG iteration counts",
    )
    return DistributedRelaxResult.from_outputs(
        outputs,
        transport,
        weights=get_backend().asarray(results[0].weights),
        iterations=results[0].iterations,
        cg_iterations=results[0].cg_iterations,
    )
