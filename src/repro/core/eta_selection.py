"""FTRL learning-rate (η) selection: the one ROUND entry point.

§ IV-A of the paper: "we execute the ROUND step with different η values, and
then select the one that maximizes ``min_k lambda_min(H_k)``, where ``H``
represents the summation of Hessians of the selected b points".  The same
rule is inherited from Exact-FIRAL, so both solvers share this module.
Sessions search ``RoundConfig.eta_grid``; a fixed η is the one-entry grid
``(η,)``, whose one trial is the plain ROUND solve and is not scored.

The grid search is where the ROUND solvers' η-independent setup would
otherwise be paid once **per trial**: ``Sigma_*`` assembly and the pool
promotions for the block-diagonal solver, the ``O(n c^3 d^3)`` candidate
similarity transforms for the dense one.  :func:`select_eta` therefore
assembles the solver's precompute context once and threads it through every
grid trial; the context also scores each trial's batch.

:func:`select_eta` is the one grid loop for every rank count: the SPMD
program of :func:`repro.parallel.distributed_round.distributed_round`
calls it on its shard with a precompute built over its communicator, so a
batch's score is the allreduce of the ranks' owned-row partials.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Optional, Sequence

from repro.backend import Array
from repro.core.approx_round import RoundPrecompute
from repro.core.config import RoundConfig, check_eta_grid
from repro.core.exact_round import ExactRoundPrecompute, exact_round
from repro.core.result import RoundResult
from repro.fisher.operators import FisherDataset

__all__ = ["select_eta"]

RoundSolver = Callable[[FisherDataset, Array, int, float, Optional[RoundConfig]], RoundResult]


def select_eta(
    solver: RoundSolver,
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    *,
    eta_grid: Sequence[float],
    config: Optional[RoundConfig] = None,
    precompute=None,
) -> RoundResult:
    """Run the ROUND solver for each candidate η and keep the best batch.

    Parameters
    ----------
    solver:
        Either :func:`repro.core.approx_round.approx_round` or
        :func:`repro.core.exact_round.exact_round` (they share a signature).
    dataset, z_relaxed, budget:
        Round-solve inputs.
    eta_grid:
        Candidate η values, e.g. ``RoundConfig.eta_grid``, each a finite
        positive real.  A one-entry grid ``(η,)`` runs its one trial and
        scores nothing: the fixed-η solve.
    config:
        Round options forwarded to every trial solve.
    precompute:
        Optional pre-built η-independent context (``RoundPrecompute`` /
        ``ExactRoundPrecompute``) matching ``solver``; built automatically
        when omitted.  It runs every trial and scores every batch.

    Returns
    -------
    RoundResult
        The winning round result; its ``eta_score`` is the winner's
        ``min_k lambda_min(H_k)`` (``None`` for a one-entry grid), and ties
        keep the earliest grid entry.  Its ``timings`` are the precompute's
        tally, so they cover the whole grid: the precompute build
        (``"setup"``), every trial's components summed and every batch
        score (``"eta_scoring"``), collectives excluded.
    """

    grid = check_eta_grid(eta_grid)

    if precompute is None:
        build = ExactRoundPrecompute.build if solver is exact_round else RoundPrecompute.build
        precompute = build(dataset, z_relaxed)

    def trial(eta: float) -> RoundResult:
        return solver(dataset, z_relaxed, budget, float(eta), config, precompute=precompute)

    if len(grid) == 1:
        # A fixed η: its one trial is the answer, with nothing to compare.
        return replace(trial(grid[0]), timings=precompute.timings)
    best, best_score = None, -math.inf
    for eta in grid:
        result = trial(eta)
        score = precompute.score(result.selected_indices)
        if score > best_score:
            best, best_score = result, score
    return replace(best, eta_score=float(best_score), timings=precompute.timings)
