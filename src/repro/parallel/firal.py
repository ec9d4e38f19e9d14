"""Approx-FIRAL over the distributed solvers: the multi-rank selector.

:class:`DistributedApproxFIRAL` exposes the same
``select(dataset, budget, *, eta=None)`` contract as
:class:`repro.core.firal.ApproxFIRAL`, but executes the RELAX mirror descent
and every ROUND solve (including the § IV-A η grid search) across
``num_ranks`` ranks of the chosen transport — threads
(``transport="simulated"``) or real spawned OS processes
(``transport="shared_memory"``).  It is what
:class:`repro.baselines.FIRALStrategy` swaps in when a session is configured
with ``SessionConfig.parallel_ranks``, so a whole active-learning run can
execute its selection step across processes while the engine, strategies and
oracle loop stay unchanged.

Numerics: the rank programs run the serial solvers' loops
(:func:`repro.core.approx_relax.relax_loop`,
:func:`repro.core.approx_round.approx_round`,
:func:`repro.core.eta_selection.select_eta`), so one rank selects what
:class:`ApproxFIRAL` selects, bit for bit, and RELAX's
``track_objective="estimate"`` runs at any rank count.  This selector still
normalizes ``relax_config`` to ``track_objective="none"``: that keeps the
probe stream the parallel sessions and their pinned selections use (estimate
mode discards one extra probe draw per step).  Dropping the rewrite together
with the discarded draw is a re-baseline of the accuracy spec and is left
for a change of its own; a serial :class:`ApproxFIRAL` with
``track_objective="none"`` selects identically on the NumPy backend, which
the engine test suite pins.

The § IV-A η grid search runs **in-rank**: one ``run_spmd`` launch executes
the whole grid plus the min-eigenvalue scoring
(:func:`repro.parallel.distributed_round.distributed_round`, whose ranks
each run ``select_eta`` over one ``RoundPrecompute``), so the spawn cost and
the η-independent ``Sigma_*`` setup are paid once per grid — under
``transport="shared_memory"`` one process spawn per round instead of one per
grid trial.  A fixed η (``eta=`` or ``RoundConfig.eta``) is the one-entry
grid of the same launch.

When the driving session stores its pool in a
:class:`~repro.engine.ShardedPointStore`, the per-round shard boundaries are
threaded in through :attr:`DistributedApproxFIRAL.partition_offsets`
(``SelectionContext.shard_offsets`` → ``FIRALStrategy``), so every scatter
follows the store's per-rank ownership instead of re-balancing the pool.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.backend import Array
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.firal import _FIRALBase
from repro.fisher.operators import FisherDataset
from repro.parallel.distributed_relax import distributed_relax
from repro.parallel.distributed_round import distributed_round
from repro.parallel.launcher import TRANSPORTS
from repro.utils.validation import check_positive_int, require

__all__ = ["DistributedApproxFIRAL"]


class DistributedApproxFIRAL(_FIRALBase):
    """Approx-FIRAL (Algorithms 2 + 3) executed over ``num_ranks`` ranks.

    Parameters
    ----------
    relax_config / round_config:
        Solver options, as for :class:`~repro.core.firal.ApproxFIRAL`.
        ``relax_config.track_objective`` is forced to ``"none"`` to keep the
        parallel sessions' probe stream (see the module docstring);
        everything else is preserved.
    num_ranks:
        Communicator size — threads (simulated) or processes (shared memory).
    transport:
        ``"simulated"`` or ``"shared_memory"``.
    timeout:
        Seconds a rank may wait at a collective before the run is declared
        dead (shared-memory transport).
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` injected into
        every SPMD launch this selector makes — the chaos-testing hook a
        session's ``SessionConfig.fault_plan`` threads down.
    """

    #: same algorithm as the serial selector — only the execution substrate
    #: differs, so results/labels stay comparable across runs.
    name = "approx-firal"

    def __init__(
        self,
        relax_config: Optional[RelaxConfig] = None,
        round_config: Optional[RoundConfig] = None,
        *,
        num_ranks: int,
        transport: str = "simulated",
        timeout: float = 120.0,
        fault_plan=None,
    ):
        num_ranks = check_positive_int(num_ranks, "num_ranks")
        require(transport in TRANSPORTS, f"unknown transport '{transport}'; use one of {TRANSPORTS}")
        relax_config = relax_config or RelaxConfig()
        if relax_config.track_objective != "none":
            relax_config = replace(relax_config, track_objective="none")
        super().__init__(relax_config, round_config)
        self.num_ranks = num_ranks
        self.transport = transport
        self.timeout = float(timeout)
        self.fault_plan = fault_plan
        #: Explicit per-rank pool boundaries for the next ``select`` call
        #: (set per round by ``FIRALStrategy`` from
        #: ``SelectionContext.shard_offsets``); ``None`` means the balanced
        #: default split.
        self.partition_offsets: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # _FIRALBase hooks
    # ------------------------------------------------------------------ #
    def _relax(self, dataset: FisherDataset, budget: int):
        return distributed_relax(
            dataset,
            budget,
            num_ranks=self.num_ranks,
            config=self.relax_config,
            transport=self.transport,
            timeout=self.timeout,
            offsets=self.partition_offsets,
            fault_plan=self.fault_plan,
        )

    def _round(self, dataset: FisherDataset, weights: Array, budget: int, grid: Sequence[float]):
        return distributed_round(
            dataset,
            weights,
            budget,
            eta_grid=grid,
            num_ranks=self.num_ranks,
            config=self.round_config,
            transport=self.transport,
            timeout=self.timeout,
            offsets=self.partition_offsets,
            fault_plan=self.fault_plan,
        )
