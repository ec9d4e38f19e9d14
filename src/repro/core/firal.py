"""User-facing FIRAL selectors combining the RELAX and ROUND steps.

``ApproxFIRAL`` is the paper's contribution (Algorithms 2 + 3);
``ExactFIRAL`` is the NeurIPS'23 baseline (Algorithm 1).  Both expose the
same ``select`` interface consumed by the active-learning experiment driver
and by the baseline strategies in :mod:`repro.baselines`, so methods can be
swapped freely in experiments (Fig. 2/3).

Both selectors run on whichever array backend is active (see
:func:`repro.set_backend` / ``REPRO_BACKEND``); selected indices are always
returned as host integer arrays regardless of backend.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.backend import Array, get_backend
from repro.core.approx_relax import approx_relax
from repro.core.approx_round import approx_round
from repro.core.config import RelaxConfig, RoundConfig
from repro.core.eta_selection import select_eta
from repro.core.exact_relax import exact_relax
from repro.core.exact_round import exact_round
from repro.core.result import SelectionResult
from repro.fisher.operators import FisherDataset
from repro.utils.validation import check_positive_real, require

__all__ = ["ExactFIRAL", "ApproxFIRAL"]


class _FIRALBase:
    """Shared RELAX → η selection → ROUND orchestration."""

    #: subclasses bind these to the exact / approximate solver functions
    _relax_solver = None
    _round_solver = None
    name = "firal"

    def __init__(
        self,
        relax_config: Optional[RelaxConfig] = None,
        round_config: Optional[RoundConfig] = None,
    ):
        self.relax_config = relax_config or RelaxConfig()
        self.round_config = round_config or RoundConfig()

    def _relax(self, dataset: FisherDataset, budget: int):
        """Run the bound RELAX solver from the uniform starting point (subclass hook)."""

        return type(self)._relax_solver(dataset, budget, self.relax_config)

    def _round(self, dataset: FisherDataset, weights: Array, budget: int, grid: Sequence[float]):
        """Run the § IV-A η search over the bound ROUND solver (subclass hook)."""

        return select_eta(
            type(self)._round_solver,
            dataset,
            weights,
            budget,
            eta_grid=grid,
            config=self.round_config,
        )

    def select(
        self,
        dataset: FisherDataset,
        budget: int,
        *,
        eta: Optional[float] = None,
    ) -> SelectionResult:
        """Select ``budget`` pool indices for labeling.

        Runs the RELAX step from the uniform point, then the ROUND step over
        an η grid with the paper's min-eigenvalue rule: ``RoundConfig.eta_grid``
        (one ROUND solve per entry, 5 by default), or the one-entry grid of
        a fixed η (one solve, no score).  The fixed η is ``eta`` when given
        — the session engine passes the previous round's winning η
        (``SessionConfig.reuse_eta``) — else ``RoundConfig.eta``.  A given
        ``eta`` must be a finite positive real, checked before RELAX runs.
        """

        require(budget > 0, "budget must be positive")
        require(
            budget <= dataset.num_pool,
            f"budget {budget} exceeds pool size {dataset.num_pool}",
        )
        eta = self.round_config.eta if eta is None else check_positive_real(eta, "eta")
        grid = self.round_config.eta_grid if eta is None else (eta,)
        relax_result = self._relax(dataset, budget)
        round_result = self._round(dataset, relax_result.weights, budget, grid)

        return SelectionResult(
            selected_indices=get_backend().index_array(round_result.selected_indices),
            relax=relax_result,
            round=round_result,
            metadata={"method": self.name, "budget": budget},
        )


class ExactFIRAL(_FIRALBase):
    """Exact FIRAL (Algorithm 1): dense RELAX gradients + dense FTRL ROUND.

    Storage ``O(c^2 d^2 + n c^2 d)`` and computation ``O(c^3 (n d^2 + b d^3 +
    b n))`` (Table II) restrict it to small problems, exactly as in the paper
    where it is only run on datasets up to ImageNet-50 scale.
    """

    _relax_solver = staticmethod(exact_relax)
    _round_solver = staticmethod(exact_round)
    name = "exact-firal"

    def __init__(self, relax_config: Optional[RelaxConfig] = None, round_config: Optional[RoundConfig] = None):
        if relax_config is None:
            relax_config = RelaxConfig(track_objective="exact")
        super().__init__(relax_config, round_config)


class ApproxFIRAL(_FIRALBase):
    """Approx-FIRAL (Algorithms 2 + 3): the paper's scalable solver.

    Storage ``O(n (d + c) + c d^2)`` and computation ``O(b n c d^2)``
    (Table II).  The default configuration matches § IV-A: 10 Rademacher
    probes, CG relative tolerance 0.1, mirror-descent objective tolerance
    1e-4.
    """

    _relax_solver = staticmethod(approx_relax)
    _round_solver = staticmethod(approx_round)
    name = "approx-firal"
