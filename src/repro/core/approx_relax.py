"""Fast RELAX solver (Algorithm 2 of the paper).

Per mirror-descent iteration:

1. draw ``s`` Rademacher probe vectors ``V`` (Line 4),
2. assemble the block-diagonal preconditioner ``B(Sigma_z)^{-1}`` (Line 5),
3. solve ``Sigma_z W = V`` with preconditioned CG (Line 6),
4. apply ``H_p`` matrix-free (Line 7),
5. solve ``Sigma_z W' = H_p W`` with preconditioned CG (Line 8),
6. estimate every gradient entry ``g_i ≈ -(1/s) sum_j v_j^T H_i w'_j``
   (Line 9, Hutchinson / Lemma 2),
7. exponentiated-gradient update and renormalization (Lines 10–11).

The per-iteration cost is ``O(n c d (d + n_CG s) / p + c d^3)`` (Table IV);
the timing breakdown records the same components plotted in Fig. 5(A)/(B) and
Fig. 6.

All array math dispatches through the active backend.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import COMPUTE_DTYPE, Array, get_backend
from repro.core.config import RelaxConfig
from repro.core.result import RelaxResult
from repro.core.warm_start import initial_simplex_iterate
from repro.fisher.matvec import probe_hessian_quadratic_forms
from repro.fisher.objective import fisher_ratio_objective, fisher_ratio_objective_estimate
from repro.fisher.operators import FisherDataset, SigmaOperator
from repro.linalg.cg import conjugate_gradient
from repro.utils.random import as_generator
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import require

__all__ = ["approx_relax"]


def approx_relax(
    dataset: FisherDataset,
    budget: int,
    config: Optional[RelaxConfig] = None,
    *,
    initial_weights: Optional[Array] = None,
) -> RelaxResult:
    """Run the fast RELAX solver and return the relaxed weights ``z*``.

    Parameters
    ----------
    dataset:
        Fisher data for the current round.
    budget:
        Number of points ``b`` to be selected (the simplex scale).
    config:
        Solver options (probes, CG tolerance, schedule, objective tracking).
    initial_weights:
        Optional warm start for the mirror-descent iterate: non-negative
        weights over the pool (any positive scale — they are renormalized to
        the simplex).  A session running consecutive rounds over the same
        shrinking pool passes the previous round's ``z*`` restricted to the
        surviving points; the default ``None`` starts from the uniform
        distribution exactly as Algorithm 2 prescribes.  Warm starting moves
        the *starting point* of a convex mirror-descent solve, not its
        stationary points, but with a finite iteration budget /
        objective-change stopping rule the iterate path (and hence the
        returned ``z*``) differs from a cold start — which is why the session
        engine keeps it opt-in (``SessionConfig.relax_warm_start``).
    """

    require(budget > 0, "budget must be positive")
    cfg = config or RelaxConfig()
    backend = get_backend()
    xp = backend.xp
    rng = as_generator(cfg.seed)
    n = dataset.num_pool
    dc = dataset.joint_dimension
    timings = TimingBreakdown()

    z = initial_simplex_iterate(n, initial_weights)
    objective_trace = []
    first_cg_history: list = []
    cg_iteration_history: list = []
    total_cg_iterations = 0
    converged = False

    iterations = 0
    for t in range(1, cfg.max_iterations + 1):
        iterations = t
        # Line 4: fresh Rademacher probes each iteration.
        with timings.region("other"):
            probes = backend.rademacher((dc, cfg.num_probes), rng=rng, dtype=COMPUTE_DTYPE)

        # Line 5: block-diagonal preconditioner for the current Sigma_z.
        with timings.region("setup_preconditioner"):
            operator = SigmaOperator(dataset, budget * z, regularization=cfg.regularization)

        # Lines 6-8: W = Sigma^{-1} H_p Sigma^{-1} V via two PCG solves, each
        # started from zero.
        with timings.region("cg"):
            first_solve = conjugate_gradient(
                operator.matvec,
                probes,
                preconditioner=operator.block_diagonal_inverse.matvec,
                rtol=cfg.cg_tolerance,
                max_iterations=cfg.cg_max_iterations,
                record_history=(t == 1),
            )
            total_cg_iterations += first_solve.iterations
            if t == 1:
                first_cg_history = list(first_solve.residual_history)
        with timings.region("other"):
            pool_applied = dataset.pool_hessian_matvec(first_solve.solution)
        with timings.region("cg"):
            second_solve = conjugate_gradient(
                operator.matvec,
                pool_applied,
                preconditioner=operator.block_diagonal_inverse.matvec,
                rtol=cfg.cg_tolerance,
                max_iterations=cfg.cg_max_iterations,
                record_history=False,
            )
            total_cg_iterations += second_solve.iterations
            cg_iteration_history.append(first_solve.iterations + second_solve.iterations)

        # Line 9: gradient estimate for every pool point.
        with timings.region("gradient"):
            grad = -probe_hessian_quadratic_forms(
                dataset.pool_features,
                dataset.pool_probabilities,
                probes,
                second_solve.solution,
            )

        # Lines 10-11: exponentiated-gradient update on the simplex.
        with timings.region("other"):
            scale = float(xp.abs(grad).max()) if cfg.normalize_gradient else 1.0
            beta = cfg.step_size(t, scale)
            log_z = xp.log(xp.clip(z, 1e-300, None)) - beta * grad
            log_z -= log_z.max()
            z = xp.exp(log_z)
            z /= z.sum()

        # Optional objective tracking (Fig. 4) and stopping criterion.
        if cfg.track_objective != "none":
            with timings.region("objective"):
                if cfg.track_objective == "exact":
                    value = fisher_ratio_objective(
                        dataset, budget * z, regularization=cfg.regularization
                    )
                else:
                    value = fisher_ratio_objective_estimate(
                        dataset,
                        budget * z,
                        num_probes=cfg.num_probes,
                        cg_tolerance=cfg.cg_tolerance,
                        max_cg_iterations=cfg.cg_max_iterations,
                        regularization=cfg.regularization,
                        rng=rng,
                    )
                objective_trace.append(value)
            if len(objective_trace) >= 2:
                prev, curr = objective_trace[-2], objective_trace[-1]
                if abs(prev - curr) <= cfg.objective_tolerance * max(abs(prev), 1e-30):
                    converged = True
                    break

    return RelaxResult(
        weights=budget * z,
        objective_trace=objective_trace,
        iterations=iterations,
        converged=converged,
        cg_iterations=total_cg_iterations,
        cg_iteration_history=cg_iteration_history,
        first_iteration_cg_history=first_cg_history,
        timings=timings,
    )
