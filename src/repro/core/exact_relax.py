"""Exact RELAX step (Lines 1–9 of Algorithm 1).

Entropic mirror descent on the relaxed Fisher Information Ratio (Eq. 5).  The
gradient (Eq. 6) is evaluated *exactly*:

    g_i = -Trace(H_i Sigma_z^{-1} H_p Sigma_z^{-1})

by materializing ``Sigma_z`` and ``H_p`` as dense ``dc x dc`` matrices.  The
cost per iteration is the ``O(n c^3 d^2)``-class term of Table II, which is
why the exact solver only appears in the small accuracy experiments of the
paper (and of this reproduction).
"""

from __future__ import annotations

from typing import Optional

from repro.backend import COMPUTE_DTYPE, Array, get_backend
from repro.core.config import SIGMA_REGULARIZATION, RelaxConfig
from repro.core.result import RelaxResult
from repro.fisher.objective import fisher_ratio_objective
from repro.fisher.operators import FisherDataset
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import require

__all__ = ["exact_relax", "exact_relax_gradient"]


def exact_relax_gradient(
    dataset: FisherDataset,
    z: Array,
    *,
    regularization: float = 0.0,
) -> Array:
    """Exact gradient ``g_i = -Trace(H_i Sigma_z^{-1} H_p Sigma_z^{-1})``.

    Using ``H_i = A_i ⊗ x_i x_i^T`` with ``A_i = diag(h_i) - h_i h_i^T``, the
    trace against any matrix ``M`` decomposes over class blocks:

        Trace(H_i M) = sum_{k,l} (A_i)_{kl} * x_i^T M_{lk} x_i

    so only the ``n x c x c`` tensor of block quadratic forms of
    ``M = Sigma_z^{-1} H_p Sigma_z^{-1}`` is needed, not per-point dense
    matrices.  This matches the algebra Exact-FIRAL performs, while keeping
    the reference implementation vectorized enough to run in tests.
    """

    backend = get_backend()
    z = backend.ascompute(z).ravel()
    require(tuple(z.shape) == (dataset.num_pool,), "z must have one weight per pool point")

    d = dataset.dimension
    c = dataset.num_classes
    sigma = dataset.sigma_dense(z)
    if regularization > 0.0:
        sigma = sigma + regularization * backend.eye(int(sigma.shape[0]), dtype=sigma.dtype)
    pool = dataset.pool_hessian_dense()
    # M = Sigma^{-1} H_p Sigma^{-1}
    inv_pool = backend.solve(sigma, pool)
    M = backend.transpose_last(backend.solve(sigma, backend.transpose_last(inv_pool)))
    # Block quadratic forms P[i, k, l] = x_i^T M_{kl} x_i
    Mr = M.reshape(c, d, c, d)
    X = backend.ascompute(dataset.pool_features)
    P = backend.einsum("id,kdle,ie->ikl", X, Mr, X, optimize=True)

    H = backend.ascompute(dataset.pool_probabilities)
    # Trace(H_i M) = sum_k h_ik P[i,k,k] - sum_{k,l} h_ik h_il P[i,l,k]
    diag_term = backend.einsum("ik,ikk->i", H, P)
    cross_term = backend.einsum("ik,il,ilk->i", H, H, P, optimize=True)
    return -(diag_term - cross_term)


def exact_relax(
    dataset: FisherDataset,
    budget: int,
    config: Optional[RelaxConfig] = None,
) -> RelaxResult:
    """Run the exact RELAX solver and return the relaxed weights ``z*``.

    Mirror descent starts from the uniform point, as Algorithm 1 prescribes,
    and ``Sigma_z`` carries the fixed
    :data:`~repro.core.config.SIGMA_REGULARIZATION` term.

    Parameters
    ----------
    dataset:
        Fisher data for the current round.
    budget:
        Number of points ``b`` to be selected (the simplex scale).
    config:
        Solver options; ``track_objective`` is forced to ``"exact"`` because
        the dense objective is already cheap relative to the exact gradient.
    """

    require(budget > 0, "budget must be positive")
    cfg = config or RelaxConfig()
    backend = get_backend()
    xp = backend.xp
    n = dataset.num_pool
    timings = TimingBreakdown()

    z = backend.full((n,), 1.0 / n, dtype=COMPUTE_DTYPE)
    objective_trace = []
    converged = False

    iterations = 0
    for t in range(1, cfg.max_iterations + 1):
        iterations = t
        with timings.region("gradient"):
            grad = exact_relax_gradient(dataset, budget * z, regularization=SIGMA_REGULARIZATION)
        with timings.region("other"):
            scale = float(xp.abs(grad).max()) if cfg.normalize_gradient else 1.0
            beta = cfg.step_size(t, scale)
            # Entropic mirror descent / exponentiated gradient update.
            log_z = xp.log(xp.clip(z, 1e-300, None)) - beta * grad
            log_z -= log_z.max()
            z = xp.exp(log_z)
            z /= z.sum()

        with timings.region("objective"):
            value = fisher_ratio_objective(dataset, budget * z, regularization=SIGMA_REGULARIZATION)
            objective_trace.append(value)
        if cfg.objective_stalled(objective_trace):
            converged = True
            break

    return RelaxResult(
        weights=budget * z,
        objective_trace=objective_trace,
        iterations=iterations,
        converged=converged,
        cg_iterations=0,
        first_iteration_cg_history=[],
        timings=timings,
    )
