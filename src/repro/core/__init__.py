"""The paper's primary contribution: Exact-FIRAL and Approx-FIRAL solvers.

* :mod:`repro.core.exact_relax` / :mod:`repro.core.exact_round` — Algorithm 1
  (the NeurIPS'23 FIRAL baseline the paper compares against): dense Fisher
  matrices, exact trace gradients, dense FTRL round.
* :mod:`repro.core.approx_relax` — Algorithm 2: Hutchinson trace estimation,
  matrix-free Hessian matvecs (Lemma 2), preconditioned CG.
* :mod:`repro.core.approx_round` — Algorithm 3: block-diagonal ROUND step via
  the Sherman–Morrison-like update (Lemma 3) and Proposition 4's objective.
* :mod:`repro.core.eta_selection` — the η grid-search rule shared by both
  variants (§ IV-A).
* :mod:`repro.core.spmd` — the one-rank communicator: Algorithm 2's and 3's
  loops and the η grid loop are SPMD programs, and the serial solvers run
  them as the one-rank case (:mod:`repro.parallel` runs them on ranks).
* :mod:`repro.core.firal` — the user-facing ``ExactFIRAL`` / ``ApproxFIRAL``
  selector classes plugging RELAX + ROUND together.
"""

from repro.core.config import RelaxConfig, RoundConfig
from repro.core.result import RelaxResult, RoundResult, SelectionResult
from repro.core.exact_relax import exact_relax
from repro.core.exact_round import ExactRoundPrecompute, exact_round
from repro.core.approx_relax import approx_relax
from repro.core.approx_round import RoundPrecompute, approx_round
from repro.core.eta_selection import select_eta
from repro.core.firal import ApproxFIRAL, ExactFIRAL

__all__ = [
    "RelaxConfig",
    "RoundConfig",
    "RelaxResult",
    "RoundResult",
    "SelectionResult",
    "ExactRoundPrecompute",
    "RoundPrecompute",
    "exact_relax",
    "exact_round",
    "approx_relax",
    "approx_round",
    "select_eta",
    "ExactFIRAL",
    "ApproxFIRAL",
]
