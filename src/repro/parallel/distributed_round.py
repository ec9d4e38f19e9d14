"""Distributed (SPMD) ROUND (Algorithm 3) over an η grid: the rank program and its driver.

The loops are the serial ones, run with the rank's communicator:
:func:`repro.core.eta_selection.select_eta` over
:func:`repro.core.approx_round.approx_round` and a
:class:`~repro.core.approx_round.RoundPrecompute` built with the global
shard offsets.  Per selection iteration (§ III-C):

* every rank scores its local pool shard with Proposition 4's objective and
  the global argmax is found with an ``MPI_Allreduce`` (MAXLOC-style, ties
  to the lowest rank),
* the owner of the winner broadcasts ``x_it`` and ``h_it`` (``MPI_Bcast`` of
  ``c + d`` floats),
* the ``c`` class-block eigenvalue problems are distributed across ranks and
  collected with ``MPI_Allgather``,
* the FTRL constant ν and the refreshed ``B_{t+1}^{-1}`` are computed
  redundantly on every rank (replicated ``O(c d^3)`` work).

:func:`round_rank_main` runs the whole § IV-A grid in one launch: the setup
once, then every trial, and with more than one η each trial's score (each
rank's block-Hessian partial of the selected points it owns, one
``MPI_Allreduce`` of ``c d^2`` floats per trial).  A fixed η is a one-entry
grid: one trial, no score.  The rank reports the precompute's timings: the
setup, every trial and the scoring, collectives excluded.

:func:`distributed_round` is the driver: it launches the rank program
through :func:`repro.parallel.launcher.launch_shards` (balanced by default,
or along a sharded pool store's ownership boundaries via ``offsets=``), over
threads (``transport="simulated"``) or real spawned processes
(``transport="shared_memory"``), then merges the per-rank outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np  # host-side timing/offset bookkeeping only

from repro.backend import Array, get_backend
from repro.core.approx_round import RoundPrecompute, approx_round
from repro.core.config import RoundConfig, check_eta_grid
from repro.core.eta_selection import select_eta
from repro.fisher.operators import FisherDataset
from repro.parallel.comm import Comm, CommunicationLog
from repro.parallel.launcher import RankAccounting, RankOutput, RankSpec, launch_shards
from repro.utils.validation import check_positive_int, require

__all__ = [
    "DistributedRoundResult",
    "distributed_round",
    "round_rank_main",
]


@dataclass
class DistributedRoundResult(RankAccounting):
    """Output of a distributed ROUND solve (see ``DistributedRelaxResult``).

    ``eta`` is the winning grid entry and ``eta_score`` its
    ``min_k lambda_min(H_k)``, ``None`` for a one-entry grid, mirroring
    ``RoundResult.eta_score`` on the serial path.
    """

    selected_indices: np.ndarray
    eta: float
    num_ranks: int
    transport: str
    per_rank_seconds: Dict[str, np.ndarray]
    comm_log: CommunicationLog
    eta_score: Optional[float] = None


def round_rank_main(comm: Comm, spec: RankSpec) -> RankOutput:
    """SPMD body of the § IV-A η grid search with Algorithm 3 for one rank.

    :func:`~repro.core.eta_selection.select_eta` over the rank's shard and a
    precompute built once for the grid.  Scores and the best-so-far rule are
    replicated, so every rank picks the same winner (ties keep the earliest
    grid entry).
    """

    shard = spec.shard()
    precompute = RoundPrecompute.build(shard, spec.z, comm=comm, offsets=spec.offsets)
    result = select_eta(
        approx_round, shard, spec.z, spec.budget,
        eta_grid=spec.eta_grid, config=spec.config, precompute=precompute,
    )
    return RankOutput(rank=comm.rank, result=result, log=comm.log)


def round_message_bytes(num_classes: int, dimension: int) -> int:
    """Tight upper bound on one ROUND collective contribution, in bytes.

    Dominated by the ``c × d × d`` block-diagonal partial (the grid search's
    per-trial scoring partial has the same shape); the per-iteration
    payloads (winner feature/coefficients, per-rank eigenvalue slices) are
    strictly smaller.
    """

    itemsize = np.dtype(np.float64).itemsize
    return itemsize * max(num_classes * dimension * dimension, 1)


def distributed_round(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    *,
    eta_grid: Sequence[float],
    num_ranks: int,
    config: Optional[RoundConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
) -> DistributedRoundResult:
    """Run the η grid search with Algorithm 3 over ``num_ranks`` ranks in **one** launch.

    Every rank runs :func:`repro.core.eta_selection.select_eta` over one
    ``RoundPrecompute``: one spawn, one shard scatter and one ``Sigma_*``
    assembly for the whole grid (under ``transport="shared_memory"`` a
    launch per trial would pay ~1 s of interpreter start-up per rank per
    trial).  The result has ``select_eta``'s semantics: the winning trial's
    selection, η and ``min_k lambda_min(H_k)`` score, ties keeping the
    earliest grid entry; a one-entry grid ``(η,)`` is the fixed-η solve and
    scores nothing.  Selects the same points as the serial ``select_eta``
    over :func:`repro.core.approx_round.approx_round` (verified by the test
    suite); ties in the global argmax resolve to the lowest rank on every
    transport (MPI ``MAXLOC`` semantics).  ``offsets`` overrides the
    balanced pool split with explicit shard boundaries (a sharded pool
    store's ownership table).
    """

    require(budget > 0, "budget must be positive")
    num_ranks = check_positive_int(num_ranks, "num_ranks")
    grid = check_eta_grid(eta_grid)
    z_relaxed = get_backend().ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (dataset.num_pool,), "z_relaxed must match the pool size")

    outputs = launch_shards(
        round_rank_main,
        dataset,
        num_ranks=num_ranks,
        budget=budget,
        config=config or RoundConfig(),
        transport=transport,
        timeout=timeout,
        offsets=offsets,
        fault_plan=fault_plan,
        max_message_bytes=round_message_bytes(dataset.num_classes, dataset.dimension),
        z=z_relaxed,
        eta_grid=grid,
    )
    first = outputs[0].result
    for output in outputs[1:]:
        require(
            bool(np.array_equal(output.result.selected_indices, first.selected_indices))
            and output.result.eta == first.eta,
            "ranks diverged: replicated selection state differs across ranks",
        )
    return DistributedRoundResult.from_outputs(
        outputs,
        transport,
        selected_indices=np.asarray(first.selected_indices, dtype=np.int64),
        eta=float(first.eta),
        eta_score=first.eta_score,
    )
