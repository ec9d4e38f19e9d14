"""Configuration dataclasses for the RELAX and ROUND solvers.

Defaults follow the experimental setup of § IV-A of the paper:

* 10 Rademacher probe vectors,
* CG terminated at relative residual 0.1,
* mirror descent stopped when the relative objective change drops below
  1e-4 (always within 100 iterations in the paper's tests).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.utils.validation import check_positive_int, check_positive_real, require

__all__ = ["RelaxConfig", "RoundConfig", "SIGMA_REGULARIZATION", "check_eta_grid"]

#: Tikhonov term added to ``Sigma_z`` by RELAX and to ``Sigma_*`` by ROUND.
#: A tiny labeled set (one point per class in the first rounds) makes Sigma
#: near-singular.  One constant for both solvers, so ROUND rounds against
#: exactly the matrix RELAX optimized.
SIGMA_REGULARIZATION = 1e-6


def check_eta_grid(eta_grid: Sequence[float]) -> tuple:
    """Return a non-empty η grid as a tuple of floats, each entry checked by
    :func:`~repro.utils.validation.check_positive_real` as ``eta_grid[i]``."""

    grid = tuple(check_positive_real(eta, f"eta_grid[{i}]") for i, eta in enumerate(eta_grid))
    require(len(grid) > 0, "eta_grid must not be empty")
    return grid


@dataclass
class RelaxConfig:
    """Options for the RELAX (continuous relaxation) solver.

    ``Sigma_z`` carries the fixed :data:`SIGMA_REGULARIZATION` term, the
    same one ROUND adds to ``Sigma_*``, and the step size is the fixed
    :meth:`step_size` schedule; neither is an option.

    Parameters
    ----------
    max_iterations:
        Mirror-descent iteration cap ``T``.
    objective_tolerance:
        Relative-change stopping criterion on the objective (1e-4 in § IV-A).
    num_probes:
        Number of Rademacher probe vectors ``s`` (Approx only; 10 in § IV-A).
    cg_tolerance:
        CG relative-residual termination (Approx only; 0.1 in § IV-A).
    cg_max_iterations:
        CG iteration cap.
    track_objective:
        ``"estimate"`` reads a Hutchinson estimate of the objective off the
        Line-6/7 solve every step already makes, so it costs no solve.
        ``"exact"`` evaluates the dense objective after each update (small
        problems / Fig. 4).  ``"none"`` skips objective tracking and runs all
        ``max_iterations``; it is no faster than ``"estimate"`` and draws a
        different probe stream, so it returns different weights for a seed.
    seed:
        RNG seed for the Rademacher probes.
    """

    max_iterations: int = 100
    objective_tolerance: float = 1e-4
    num_probes: int = 10
    cg_tolerance: float = 0.1
    cg_max_iterations: int = 1000
    track_objective: str = "estimate"
    seed: Optional[int] = 0

    def __post_init__(self) -> None:
        for name in ("max_iterations", "num_probes", "cg_max_iterations"):
            check_positive_int(getattr(self, name), name)
        require(self.objective_tolerance >= 0, "objective_tolerance must be non-negative")
        require(self.cg_tolerance > 0, "cg_tolerance must be positive")
        require(
            self.track_objective in ("exact", "estimate", "none"),
            "track_objective must be 'exact', 'estimate' or 'none'",
        )

    def step_size(self, iteration: int, gradient_scale: float) -> float:
        """Step size ``beta_t = 1 / (sqrt(t) · ||g||_inf)`` of the entropic
        mirror-descent update ``z_i <- z_i * exp(-beta_t g_i)``.

        ``iteration`` is the 1-based ``t`` and ``gradient_scale`` the infinity
        norm of the current gradient; a zero gradient leaves ``1 / sqrt(t)``.
        Normalizing by the gradient's scale makes the step insensitive to the
        absolute Fisher scale, mirroring the robustness the paper reports
        across datasets.
        """

        require(iteration >= 1, "iteration is 1-based")
        beta = 1.0 / (iteration**0.5)
        if gradient_scale > 0:
            beta = beta / gradient_scale
        return beta

    def objective_stalled(self, trace: Sequence[float]) -> bool:
        """The stopping rule: the last two ``trace`` values differ by at most
        ``objective_tolerance`` relative to the earlier one."""

        if len(trace) < 2:
            return False
        prev, curr = trace[-2], trace[-1]
        return abs(prev - curr) <= self.objective_tolerance * max(abs(prev), 1e-30)


@dataclass
class RoundConfig:
    """Options for the ROUND (regret-minimization) solver.

    ``Sigma_*`` (and hence every ``B_t``) carries the fixed
    :data:`SIGMA_REGULARIZATION` term RELAX added to ``Sigma_z``, so ROUND
    rounds against the matrix RELAX optimized.  ROUND selects ``budget``
    distinct points: the paper's regret analysis permits repeats, practical
    active learning does not, so a selected point is masked from later steps.

    Parameters
    ----------
    eta:
        A fixed FTRL learning rate η, a finite positive real (as is every
        ``eta_grid`` entry): ROUND runs the one-entry grid
        ``(eta,)``, one solve with no score.  ``None`` searches ``eta_grid``
        with :func:`repro.core.eta_selection.select_eta` (the paper's rule:
        maximize ``min_k lambda_min(H_k)`` over the selected batch).
    eta_grid:
        The η grid searched when ``eta is None``, and the only grid.
    score_chunk_size:
        When set, the Proposition-4 candidate scoring streams the pool in
        chunks of this many points, bounding the scoring scratch memory at
        ``O(chunk · c · d)`` instead of ``O(n · c · d)`` on large pools.
        Chunked scoring selects identical indices — each candidate's score is
        an independent contraction (raw scores may differ by BLAS
        kernel-blocking ULPs).  ``None`` (default) scores the whole pool in
        one pass.  Must be a positive integer; fractional values are rejected
        rather than silently truncated.  Under a prefiltered session
        (``SessionConfig.prefilter``) the scored set is the *candidate* view,
        so chunking applies to ``keep_ratio · n`` rows — a chunk size tuned
        for the full pool simply degrades to fewer (or one) passes on the
        restricted set, and the two knobs compose: prefiltering bounds
        per-round work, chunking bounds its peak scratch memory.
    """

    eta: Optional[float] = None
    eta_grid: Sequence[float] = field(default_factory=lambda: (0.1, 0.5, 1.0, 2.0, 8.0))
    score_chunk_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.eta is not None:
            check_positive_real(self.eta, "eta")
        check_eta_grid(self.eta_grid)
        chunk = self.score_chunk_size
        require(
            chunk is None
            or (
                isinstance(chunk, numbers.Real)
                and not isinstance(chunk, bool)
                and chunk > 0
                and float(chunk).is_integer()
            ),
            "score_chunk_size must be a positive integer when set "
            f"(got {chunk!r}; fractional values would silently truncate in the "
            "chunking arithmetic)",
        )
