"""Result containers for the RELAX, ROUND and end-to-end FIRAL solves.

The containers keep the diagnostics the paper's figures need: the objective
trace across mirror-descent iterations (Fig. 4), CG residual histories
(Fig. 1), per-component timing breakdowns (Fig. 5–7, Table VI) and the η
selection metadata (§ IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.backend import Array
from repro.utils.timing import TimingBreakdown

__all__ = ["RelaxResult", "RoundResult", "SelectionResult"]


@dataclass
class RelaxResult:
    """Output of a RELAX solve.

    Attributes
    ----------
    weights:
        The relaxed solution ``z* in R^n`` with ``z >= 0`` and ``sum z = b``.
    objective_trace:
        ``f(z)`` per mirror-descent iteration (empty if tracking disabled).
        Under ``track_objective="estimate"`` entry ``t`` estimates ``f`` at
        the iterate entering step ``t``; under ``"exact"`` it is ``f`` after
        step ``t``'s update.
    iterations:
        Number of mirror-descent updates the returned weights carry.
    converged:
        Whether the relative-objective-change criterion fired before the cap.
    cg_iterations:
        Total CG iterations summed over the solve (Approx only).
    cg_iteration_history:
        CG iterations per mirror-descent iteration (both solves summed; the
        step the stopping rule ends adds its one solve; empty for the exact
        solver).
    first_iteration_cg_history:
        Relative-residual trace of the first CG solve — the series shown in
        Fig. 1 (empty for the exact solver).
    timings:
        Wall-clock breakdown with the component names of Fig. 5(A)/(B).
    """

    weights: Array
    objective_trace: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    cg_iterations: int = 0
    cg_iteration_history: List[int] = field(default_factory=list)
    first_iteration_cg_history: List[float] = field(default_factory=list)
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    @property
    def budget(self) -> float:
        return float(self.weights.sum())


@dataclass
class RoundResult:
    """Output of a ROUND solve.

    Attributes
    ----------
    selected_indices:
        Pool indices of the ``b`` selected points, in selection order.
    eta:
        The FTRL learning rate actually used.
    eta_score:
        ``min_k lambda_min(H_k)`` of the selected batch (the quantity the η
        grid search maximizes); ``None`` when not computed.
    objective_trace:
        Value of the per-iteration selection objective at the chosen point.
    timings:
        Wall-clock breakdown with the component names of Fig. 5(C)/(D).
    """

    selected_indices: Array
    eta: float
    eta_score: Optional[float] = None
    objective_trace: List[float] = field(default_factory=list)
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    @property
    def budget(self) -> int:
        return int(len(self.selected_indices))


@dataclass
class SelectionResult:
    """End-to-end FIRAL selection: relaxed weights plus rounded indices."""

    selected_indices: Array
    relax: RelaxResult
    round: RoundResult
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def budget(self) -> int:
        return int(len(self.selected_indices))

    def total_time(self) -> float:
        return self.relax.timings.total() + self.round.timings.total()
