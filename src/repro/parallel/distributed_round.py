"""Distributed (SPMD) ROUND (Algorithm 3) and η grid search: rank programs and drivers.

The loops are the serial ones, run with the rank's communicator:
:func:`repro.core.approx_round.approx_round` over a
:class:`~repro.core.approx_round.RoundPrecompute` built with the global
shard offsets, and :func:`repro.core.eta_selection.select_eta` for the
§ IV-A grid.  Per selection iteration (§ III-C):

* every rank scores its local pool shard with Proposition 4's objective and
  the global argmax is found with an ``MPI_Allreduce`` (MAXLOC-style, ties
  to the lowest rank),
* the owner of the winner broadcasts ``x_it`` and ``h_it`` (``MPI_Bcast`` of
  ``c + d`` floats),
* the ``c`` class-block eigenvalue problems are distributed across ranks and
  collected with ``MPI_Allgather``,
* the FTRL constant ν and the refreshed ``B_{t+1}^{-1}`` are computed
  redundantly on every rank (replicated ``O(c d^3)`` work).

:func:`round_rank_main` selects at one η; :func:`round_search_rank_main`
runs the whole grid in one launch — the setup once, then every trial plus
its score (each rank's block-Hessian partial of the selected points it
owns, one ``MPI_Allreduce`` of ``c d^2`` floats per trial).  Both build
the rank's shard, call the loop and report the precompute's timings: the
setup, every trial and the scoring, collectives excluded.

:func:`distributed_round` / :func:`distributed_round_search` are the
drivers: they partition the dataset (balanced by default, or along a
sharded pool store's ownership boundaries via ``offsets=``) and run the
rank program over threads (``transport="simulated"``) or real spawned
processes (``transport="shared_memory"``) via
:func:`repro.parallel.launcher.run_spmd`, then merge the per-rank outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np  # host-side timing/offset bookkeeping only

from repro.backend import Array, get_backend
from repro.core.approx_round import RoundPrecompute, approx_round
from repro.core.config import RoundConfig
from repro.core.eta_selection import default_eta_grid, select_eta
from repro.fisher.operators import FisherDataset
from repro.parallel.comm import Comm, CommunicationLog
from repro.parallel.launcher import (
    collective_log,
    merge_component_seconds,
    rank_shard,
    run_spmd,
    ship_array,
)
from repro.parallel.partition import partition_pool, pool_offsets
from repro.utils.validation import check_positive_int, require

__all__ = [
    "DistributedRoundResult",
    "RoundRankSpec",
    "RoundRankOutput",
    "RoundSearchRankOutput",
    "distributed_round",
    "distributed_round_search",
    "round_rank_main",
    "round_search_rank_main",
]


@dataclass
class DistributedRoundResult:
    """Output of a distributed ROUND solve (see ``DistributedRelaxResult``).

    ``eta_score`` is only set by :func:`distributed_round_search` (the
    winning trial's ``min_k lambda_min(H_k)``), mirroring
    ``RoundResult.eta_score`` on the serial path.
    """

    selected_indices: np.ndarray
    eta: float
    num_ranks: int
    transport: str = "simulated"
    per_rank_seconds: Dict[str, np.ndarray] = field(default_factory=dict)
    comm_log: CommunicationLog = field(default_factory=CommunicationLog)
    eta_score: Optional[float] = None

    def max_rank_seconds(self, component: str) -> float:
        values = self.per_rank_seconds.get(component)
        return float(values.max()) if values is not None and values.size else 0.0

    def compute_seconds(self) -> float:
        return float(sum(self.max_rank_seconds(name) for name in self.per_rank_seconds))


@dataclass
class RoundRankSpec:
    """Picklable per-rank inputs of :func:`round_rank_main`.

    ``eta_grid`` is only read by :func:`round_search_rank_main` (the in-rank
    grid search); the single-η program uses ``eta``.
    """

    pool_features: Array
    pool_probabilities: Array
    labeled_features: Array
    labeled_probabilities: Array
    z_local: Array
    offsets: np.ndarray
    budget: int
    eta: float
    config: RoundConfig
    eta_grid: Optional[Tuple[float, ...]] = None


@dataclass
class RoundRankOutput:
    """What one rank reports back to the driver."""

    rank: int
    selected_indices: np.ndarray
    seconds: Dict[str, float]
    log: CommunicationLog


@dataclass
class RoundSearchRankOutput(RoundRankOutput):
    """Grid-search rank report: the winning trial's selection, η and score."""

    eta: float = 0.0
    eta_score: float = -math.inf


def _rank_precompute(comm: Comm, spec: RoundRankSpec):
    """The rank's shard and its η-independent ROUND state over ``comm``."""

    shard = rank_shard(spec)
    precompute = RoundPrecompute.build(shard, spec.z_local, comm=comm, offsets=spec.offsets)
    return shard, precompute


def round_rank_main(comm: Comm, spec: RoundRankSpec) -> RoundRankOutput:
    """SPMD body of Algorithm 3 for one rank, at the spec's fixed η."""

    shard, precompute = _rank_precompute(comm, spec)
    result = approx_round(
        shard, spec.z_local, int(spec.budget), float(spec.eta), spec.config,
        precompute=precompute,
    )
    return RoundRankOutput(
        rank=comm.rank,
        selected_indices=result.selected_indices,
        seconds=precompute.timings.as_dict(),
        log=comm.log,
    )


def round_search_rank_main(comm: Comm, spec: RoundRankSpec) -> RoundSearchRankOutput:
    """SPMD body of the § IV-A η grid search for one rank.

    :func:`~repro.core.eta_selection.select_eta` over the rank's shard and a
    precompute built once for the grid.  Scores and the best-so-far rule are
    replicated, so every rank picks the same winner (ties keep the earliest
    grid entry).
    """

    shard, precompute = _rank_precompute(comm, spec)
    result, score = select_eta(
        approx_round, shard, spec.z_local, int(spec.budget),
        eta_grid=spec.eta_grid, config=spec.config, precompute=precompute,
    )
    return RoundSearchRankOutput(
        rank=comm.rank,
        selected_indices=result.selected_indices,
        seconds=precompute.timings.as_dict(),
        log=comm.log,
        eta=result.eta,
        eta_score=score,
    )


def round_message_bytes(num_classes: int, dimension: int) -> int:
    """Tight upper bound on one ROUND collective contribution, in bytes.

    Dominated by the ``c × d × d`` block-diagonal partial (the grid search's
    per-trial scoring partial has the same shape); the per-iteration
    payloads (winner feature/coefficients, per-rank eigenvalue slices) are
    strictly smaller.
    """

    itemsize = np.dtype(np.float64).itemsize
    return itemsize * max(num_classes * dimension * dimension, 1)


def _wrap_entry(entry, fault_plan):
    """Wrap an SPMD entry for fault injection when a plan is given."""

    if fault_plan is None:
        return entry
    from repro.parallel.faults import FaultInjectingEntry

    return FaultInjectingEntry(entry, fault_plan)


def _build_rank_specs(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    cfg: RoundConfig,
    num_ranks: int,
    transport: str,
    offsets: Optional[np.ndarray],
    eta_grid: Optional[Tuple[float, ...]] = None,
) -> List[RoundRankSpec]:
    """Partition the pool and assemble one picklable spec per rank."""

    backend = get_backend()
    shards = partition_pool(dataset, num_ranks, offsets=offsets)
    offsets = pool_offsets(dataset.num_pool, num_ranks, offsets)
    specs = []
    for rank, shard in enumerate(shards):
        z_local = z_relaxed[int(offsets[rank]) : int(offsets[rank + 1])]
        specs.append(
            RoundRankSpec(
                pool_features=ship_array(backend, shard.pool_features, transport),
                pool_probabilities=ship_array(backend, shard.pool_probabilities, transport),
                labeled_features=ship_array(backend, shard.labeled_features, transport),
                labeled_probabilities=ship_array(backend, shard.labeled_probabilities, transport),
                z_local=ship_array(backend, z_local, transport),
                offsets=offsets,
                budget=int(budget),
                eta=float(eta),
                config=cfg,
                eta_grid=eta_grid,
            )
        )
    return specs




def distributed_round(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    *,
    num_ranks: int,
    config: Optional[RoundConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
) -> DistributedRoundResult:
    """Run Algorithm 3 over ``num_ranks`` ranks of the chosen transport.

    Selects the same points as :func:`repro.core.approx_round.approx_round`
    (verified by the test suite) while recording per-rank compute time and
    the collective-communication pattern; ties in the global argmax resolve
    to the lowest rank on every transport (MPI ``MAXLOC`` semantics).
    ``offsets`` overrides the balanced pool split with explicit shard
    boundaries (a sharded pool store's ownership table).
    """

    require(budget > 0, "budget must be positive")
    require(eta > 0, "eta must be positive")
    num_ranks = check_positive_int(num_ranks, "num_ranks")
    cfg = config or RoundConfig(eta=eta)
    backend = get_backend()

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (dataset.num_pool,), "z_relaxed must match the pool size")

    specs = _build_rank_specs(
        dataset, z_relaxed, budget, eta, cfg, num_ranks, transport, offsets
    )
    outputs = run_spmd(
        _wrap_entry(round_rank_main, fault_plan),
        specs,
        transport=transport,
        max_message_bytes=round_message_bytes(dataset.num_classes, dataset.dimension),
        timeout=timeout,
    )
    selected = outputs[0].selected_indices
    for output in outputs[1:]:
        require(
            bool(np.array_equal(output.selected_indices, selected)),
            "ranks diverged: replicated selection state differs across ranks",
        )
    return DistributedRoundResult(
        selected_indices=np.asarray(selected, dtype=np.int64),
        eta=float(eta),
        num_ranks=num_ranks,
        transport=transport,
        per_rank_seconds=merge_component_seconds(outputs),
        comm_log=collective_log(outputs),
    )


def distributed_round_search(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    *,
    eta_grid=None,
    num_ranks: int,
    config: Optional[RoundConfig] = None,
    transport: str = "simulated",
    timeout: float = 120.0,
    offsets: Optional[np.ndarray] = None,
    fault_plan=None,
) -> Tuple[DistributedRoundResult, float]:
    """Run the § IV-A η grid search inside **one** ``run_spmd`` launch.

    Every rank runs :func:`repro.core.eta_selection.select_eta` over one
    ``RoundPrecompute``: one spawn, one shard scatter and one ``Sigma_*``
    assembly for the whole grid, instead of one full
    :func:`distributed_round` launch per trial (which under
    ``transport="shared_memory"`` paid ~1 s of interpreter start-up per rank
    per trial).  Returns ``(result, score)`` with the same semantics as
    ``select_eta``: the winning trial's selection, η and
    ``min_k lambda_min(H_k)`` score, ties keeping the earliest grid entry.
    """

    require(budget > 0, "budget must be positive")
    num_ranks = check_positive_int(num_ranks, "num_ranks")
    cfg = config or RoundConfig()
    if eta_grid is None:
        eta_grid = default_eta_grid(dataset.joint_dimension)
    grid = tuple(float(e) for e in eta_grid)
    require(len(grid) > 0, "eta grid must not be empty")
    require(all(e > 0 for e in grid), "eta values must be positive")
    backend = get_backend()

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (dataset.num_pool,), "z_relaxed must match the pool size")

    specs = _build_rank_specs(
        dataset, z_relaxed, budget, grid[0], cfg, num_ranks, transport, offsets,
        eta_grid=grid,
    )
    outputs = run_spmd(
        _wrap_entry(round_search_rank_main, fault_plan),
        specs,
        transport=transport,
        max_message_bytes=round_message_bytes(dataset.num_classes, dataset.dimension),
        timeout=timeout,
    )
    selected = outputs[0].selected_indices
    for output in outputs[1:]:
        require(
            bool(np.array_equal(output.selected_indices, selected))
            and output.eta == outputs[0].eta,
            "ranks diverged: replicated grid-search state differs across ranks",
        )
    result = DistributedRoundResult(
        selected_indices=np.asarray(selected, dtype=np.int64),
        eta=float(outputs[0].eta),
        num_ranks=num_ranks,
        transport=transport,
        per_rank_seconds=merge_component_seconds(outputs),
        comm_log=collective_log(outputs),
        eta_score=float(outputs[0].eta_score),
    )
    return result, float(outputs[0].eta_score)
