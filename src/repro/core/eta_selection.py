"""FTRL learning-rate (η) selection.

§ IV-A of the paper: "we execute the ROUND step with different η values, and
then select the one that maximizes ``min_k lambda_min(H_k)``, where ``H``
represents the summation of Hessians of the selected b points".  The same
rule is inherited from Exact-FIRAL, so both solvers share this module.

Theorem 1 suggests the theoretical scale η = 8 sqrt(dc) / ε; the default grid
therefore mixes O(1) values with multiples of sqrt(dc).

The grid search is where the ROUND solvers' η-independent setup would
otherwise be paid once **per trial**: ``Sigma_*`` assembly and the pool
promotions for the block-diagonal solver, the ``O(n c^3 d^3)`` candidate
similarity transforms for the dense one.  :func:`select_eta` therefore
assembles the solver's precompute context once and threads it through every
grid trial; the context also scores each trial's batch.

:func:`select_eta` is the one grid loop for every rank count: the SPMD
program of :func:`repro.parallel.distributed_round.distributed_round_search`
calls it on its shard with a precompute built over its communicator, so a
batch's score is the allreduce of the ranks' owned-row partials.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence, Tuple

from repro.backend import Array
from repro.core.approx_round import RoundPrecompute
from repro.core.config import RoundConfig
from repro.core.exact_round import ExactRoundPrecompute, exact_round
from repro.core.result import RoundResult
from repro.fisher.operators import FisherDataset
from repro.utils.validation import require

__all__ = ["default_eta_grid", "select_eta"]

RoundSolver = Callable[[FisherDataset, Array, int, float, Optional[RoundConfig]], RoundResult]


def default_eta_grid(joint_dimension: int) -> Tuple[float, ...]:
    """Grid of candidate η values mixing O(1) and sqrt(dc)-scaled entries."""

    require(joint_dimension > 0, "joint_dimension must be positive")
    scale = math.sqrt(joint_dimension)
    return (0.1, 0.5, 1.0, 2.0, 0.5 * scale, scale, 8.0 * scale)


def select_eta(
    solver: RoundSolver,
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    *,
    eta_grid: Optional[Sequence[float]] = None,
    config: Optional[RoundConfig] = None,
    precompute=None,
) -> Tuple[RoundResult, float]:
    """Run the ROUND solver for each candidate η and keep the best batch.

    Parameters
    ----------
    solver:
        Either :func:`repro.core.approx_round.approx_round` or
        :func:`repro.core.exact_round.exact_round` (they share a signature).
    dataset, z_relaxed, budget:
        Round-solve inputs.
    eta_grid:
        Candidate η values; defaults to :func:`default_eta_grid`.
    config:
        Round options forwarded to every trial solve.
    precompute:
        Optional pre-built η-independent context (``RoundPrecompute`` /
        ``ExactRoundPrecompute``) matching ``solver``; built automatically
        when omitted.  It runs every trial and scores every batch.

    Returns
    -------
    (RoundResult, float)
        The winning round result (with ``eta_score`` filled in) and its score
        ``min_k lambda_min(H_k)``; ties keep the earliest grid entry.
    """

    grid = tuple(eta_grid) if eta_grid is not None else default_eta_grid(dataset.joint_dimension)
    require(len(grid) > 0, "eta grid must not be empty")
    require(all(e > 0 for e in grid), "eta values must be positive")

    if precompute is None:
        build = ExactRoundPrecompute.build if solver is exact_round else RoundPrecompute.build
        precompute = build(dataset, z_relaxed, config)

    best_result: Optional[RoundResult] = None
    best_score = -math.inf
    for eta in grid:
        result = solver(dataset, z_relaxed, budget, float(eta), config, precompute=precompute)
        score = precompute.score(result.selected_indices)
        if score > best_score:
            best_score = score
            best_result = result
    assert best_result is not None
    best_result.eta_score = float(best_score)
    return best_result, float(best_score)
