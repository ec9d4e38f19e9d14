"""Exact ROUND step (Lines 10–19 of Algorithm 1).

Given the relaxed weights ``z*``, the round solver selects ``b`` concrete
points by Follow-The-Regularized-Leader regret minimization.  All matrices
are dense ``dc x dc``: each candidate evaluation needs the trace of a dense
inverse (Eq. 9), and each selection updates the FTRL matrix via a full
eigendecomposition (Lines 16–18).  This is the ``O(b c^3 (d^3 + n))`` cost of
Table II, and the baseline against which Algorithm 3's block-diagonal round
is validated (Proposition 4) and timed (Table VI).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.backend import Array, COMPUTE_DTYPE, get_backend
from repro.core.config import SIGMA_REGULARIZATION, RoundConfig
from repro.core.result import RoundResult
from repro.fisher.hessian import coefficient_blocks, point_block_coefficients, point_hessian_dense
from repro.fisher.operators import FisherDataset
from repro.linalg.bisection import find_ftrl_nu
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import check_positive_real, require

__all__ = ["ExactRoundPrecompute", "exact_round"]


def _symmetric_inv_sqrt(matrix: Array) -> Array:
    """Inverse symmetric square root ``M^{-1/2}`` via eigendecomposition."""

    backend = get_backend()
    xp = backend.xp
    w, V = backend.eigh(0.5 * (matrix + backend.transpose_last(matrix)))
    require(bool(xp.all(w > 0)), "matrix must be positive definite for inverse sqrt")
    return (V * (1.0 / xp.sqrt(w))) @ backend.transpose_last(V)


@dataclass
class ExactRoundPrecompute:
    """η-independent state of a dense ROUND solve.

    The similarity transform of every candidate Hessian —
    ``~H_i = Sigma_*^{-1/2} H_i Sigma_*^{-1/2}``, an ``O(n c^3 d^3)`` loop —
    dominates the dense solver's setup and does not depend on η, so the
    § IV-A grid search builds this once and reuses it across every trial.
    ``X``/``gammas`` are the promoted pool rows :meth:`score` indexes, and
    ``timings`` the compute seconds spent through this context — its build
    (``"setup"``), every :func:`exact_round` that used it and every batch it
    scored (``"eta_scoring"``) — as in
    :class:`repro.core.approx_round.RoundPrecompute`.
    """

    sigma_star: Array
    h_labeled_tilde: Array
    candidate_tilde: Array
    X: Array
    gammas: Array
    z: Array
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    @classmethod
    def build(
        cls,
        dataset: FisherDataset,
        z_relaxed: Array,
    ) -> "ExactRoundPrecompute":
        backend = get_backend()
        z = backend.ascompute(z_relaxed).ravel()
        require(
            tuple(z.shape) == (dataset.num_pool,),
            "z_relaxed must have one weight per pool point",
        )
        n = dataset.num_pool
        dc = dataset.joint_dimension
        timings = TimingBreakdown()
        with timings.region("setup"):
            sigma_star = dataset.sigma_dense(z)
            sigma_star = sigma_star + SIGMA_REGULARIZATION * backend.eye(dc, dtype=sigma_star.dtype)
            sigma_inv_sqrt = _symmetric_inv_sqrt(sigma_star)
            h_labeled = dataset.labeled_hessian_dense()
            h_labeled_tilde = sigma_inv_sqrt @ h_labeled @ sigma_inv_sqrt
            # Transformed candidate Hessians ~H_i = Sigma^{-1/2} H_i Sigma^{-1/2}.
            candidate_tilde = backend.empty((n, dc, dc), dtype=COMPUTE_DTYPE)
            for i in range(n):
                h_i = point_hessian_dense(dataset.pool_features[i], dataset.pool_probabilities[i])
                candidate_tilde[i] = sigma_inv_sqrt @ h_i @ sigma_inv_sqrt
            precompute = cls(
                sigma_star=sigma_star,
                h_labeled_tilde=h_labeled_tilde,
                candidate_tilde=candidate_tilde,
                X=backend.ascompute(dataset.pool_features),
                gammas=point_block_coefficients(dataset.pool_probabilities),
                z=z,
                timings=timings,
            )
        return precompute

    @property
    def num_pool(self) -> int:
        return int(self.candidate_tilde.shape[0])

    def score(self, selected_indices: Array) -> float:
        """``min_k lambda_min(H_k)`` of a selected batch (the § IV-A η rule)."""

        selected = get_backend().index_array(selected_indices)
        require(selected.size > 0, "selection must not be empty")
        with self.timings.region("eta_scoring"):
            blocks = coefficient_blocks(self.X[selected], self.gammas[selected])
            return BlockDiagonalMatrix(blocks, copy=False).min_eigenvalue()


def exact_round(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    config: Optional[RoundConfig] = None,
    *,
    precompute: Optional[ExactRoundPrecompute] = None,
) -> RoundResult:
    """Select ``budget`` points with the dense FTRL round solver.

    Parameters
    ----------
    dataset:
        Fisher data for the current round.
    z_relaxed:
        Relaxed weights ``z*`` from the RELAX step (``sum z = b``).
    budget:
        Number of points ``b`` to select.
    eta:
        FTRL learning rate η (Eq. 9/10), a finite positive real; the η
        grid search lives in :mod:`repro.core.eta_selection`.
    config:
        Round options (``allow_repeats``).
    precompute:
        Optional η-independent state built with
        :meth:`ExactRoundPrecompute.build` for the same
        ``(dataset, z_relaxed)``; the η grid search passes one
        instance through every trial.
    """

    require(budget > 0, "budget must be positive")
    eta = check_positive_real(eta, "eta")
    cfg = config or RoundConfig(eta=eta)
    backend = get_backend()
    xp = backend.xp
    n = dataset.num_pool
    require(n >= budget or cfg.allow_repeats, "pool smaller than budget with allow_repeats=False")

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (n,), "z_relaxed must have one weight per pool point")

    timings = TimingBreakdown()
    d = dataset.dimension
    c = dataset.num_classes
    dc = d * c

    with timings.region("other"):
        if precompute is None:
            precompute = ExactRoundPrecompute.build(dataset, z_relaxed)
        require(precompute.num_pool == n, "precompute does not match the dataset pool")
        require(
            bool(xp.all(precompute.z == z_relaxed)),
            "precompute was built from different relaxed weights",
        )
        h_labeled_tilde = precompute.h_labeled_tilde
        candidate_tilde = precompute.candidate_tilde

    A_t = math.sqrt(dc) * backend.eye(dc, dtype=COMPUTE_DTYPE)
    accumulated = backend.zeros((dc, dc), dtype=COMPUTE_DTYPE)

    selected = []
    objective_trace = []
    available = backend.ones((n,), dtype=bool)

    for t in range(1, budget + 1):
        with timings.region("objective_function"):
            base = A_t + (eta / budget) * h_labeled_tilde
            best_index = -1
            best_value = xp.inf
            for i in range(n):
                if not cfg.allow_repeats and not bool(available[i]):
                    continue
                trial = base + eta * candidate_tilde[i]
                value = float(xp.trace(backend.inv(trial)))
                if value < best_value:
                    best_value = value
                    best_index = i
            require(best_index >= 0, "no candidate available for selection")
            selected.append(best_index)
            objective_trace.append(best_value)
            available[best_index] = False

        with timings.region("compute_eigenvalues"):
            accumulated += (1.0 / budget) * h_labeled_tilde + candidate_tilde[best_index]
            eigenvalues, eigenvectors = backend.eigh(eta * accumulated)
            nu = find_ftrl_nu(eigenvalues)
            A_t = (eigenvectors * (nu + eigenvalues)) @ backend.transpose_last(eigenvectors)

    precompute.timings = precompute.timings.merge(timings)
    return RoundResult(
        selected_indices=backend.index_array(selected),
        eta=float(eta),
        objective_trace=objective_trace,
        timings=timings,
    )
