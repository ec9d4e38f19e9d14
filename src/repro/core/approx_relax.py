"""Fast RELAX solver (Algorithm 2 of the paper), one SPMD loop for any rank count.

Per mirror-descent iteration:

1. draw ``s`` Rademacher probe vectors ``V`` (Line 4),
2. assemble the block-diagonal preconditioner ``B(Sigma_z)^{-1}`` (Line 5),
3. solve ``Sigma_z W = V`` with preconditioned CG (Line 6),
4. apply ``H_p`` matrix-free (Line 7),
5. solve ``Sigma_z W' = H_p W`` with preconditioned CG (Line 8),
6. estimate every gradient entry ``g_i ≈ -(1/s) sum_j v_j^T H_i w'_j``
   (Line 9, Hutchinson / Lemma 2),
7. exponentiated-gradient update and renormalization (Lines 10–11).

The objective for the stopping rule is read off steps 3–4:
``f(z) = Tr(Sigma_z^{-1} H_p) ≈ (1/s) sum_j v_j^T (H_p W)_j`` (Eq. 12).

:func:`relax_loop` is the § III-C SPMD program for one rank holding a pool
shard: probes are broadcast from rank 0, ``B(Sigma_z)``, every ``Sigma_z``
matvec and ``H_p W`` are a local partial plus an allreduce, the update
allreduces three scalars.  Probes, CG state and ``H_p W`` are replicated, so
the estimate and the stopping rule run on every rank alike.

Every ``Sigma_z`` matvec is one Lemma-2 pass over one
:class:`~repro.fisher.SigmaOperator`, built once per RELAX solve: the
rank's pool rows followed by its ``block_partition`` share of the labeled
rows, so the labeled term is split across ranks instead of recomputed by
each.  Each mirror-descent step prepares it once with that step's ``z``
(:meth:`~repro.fisher.matvec.HessianSumOperator.prepare`), and both of the
step's CG solves apply that preparation, whose weights are already folded
in and whose scratch every iteration of a CG solve reuses.  ``H_p W`` and
the Line-9 gradient run on the operator over the pool rows of the same
arrays.  The solve holds one compute-dtype copy of the rank's rows,
``(n_r + m_r)(d + c)`` values, from its start to its end.  The prepared
scratch, ``(2 c + 1) s (n_r + m_r)`` values, lives only while a CG solve
runs, so it never adds to the scratch of ``H_p W`` or the gradient, and
RELAX's scratch peak stays the gradient's, about ``3 c s n_r`` values.
:func:`approx_relax` is the one-rank case (:data:`~repro.core.spmd.ONE_RANK`,
whose collectives return their input); ``track_objective="exact"`` needs
the whole pool, so it runs at one rank only.

The per-iteration cost is ``O(c d (n d + (n + m) n_CG s) / p + c d^3)``
(Table IV, with the labeled rows of the CG matvecs split like the pool's);
the timing breakdown records the components of Fig. 5(A)/(B) and Fig. 6,
collectives excluded.

All array math dispatches through the active backend.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import COMPUTE_DTYPE, Array, get_backend
from repro.core.config import SIGMA_REGULARIZATION, RelaxConfig
from repro.core.result import RelaxResult
from repro.core.spmd import ONE_RANK, block_partition
from repro.fisher.objective import fisher_ratio_objective
from repro.fisher.operators import FisherDataset, SigmaOperator
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.cg import conjugate_gradient
from repro.utils.random import as_generator
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import require

__all__ = ["approx_relax", "relax_loop"]


def approx_relax(
    dataset: FisherDataset,
    budget: int,
    config: Optional[RelaxConfig] = None,
) -> RelaxResult:
    """Run the fast RELAX solver and return the relaxed weights ``z*``.

    Mirror descent starts from the uniform point, as Algorithm 2 prescribes,
    and ``Sigma_z`` carries the fixed
    :data:`~repro.core.config.SIGMA_REGULARIZATION` term.

    Parameters
    ----------
    dataset:
        Fisher data for the current round.
    budget:
        Number of points ``b`` to be selected (the simplex scale).
    config:
        Solver options (probes, CG tolerance, objective tracking).
    """

    return relax_loop(ONE_RANK, dataset, dataset.num_pool, budget, config or RelaxConfig())


def relax_loop(comm, dataset: FisherDataset, pool_size: int, budget: int, cfg: RelaxConfig) -> RelaxResult:
    """Algorithm 2 on one rank of ``comm``, over its pool shard ``dataset``.

    ``comm`` is :data:`~repro.core.spmd.ONE_RANK` or a
    :class:`~repro.parallel.comm.Comm`; ``pool_size`` is the whole pool's
    size, so every rank starts its slice at the uniform point
    ``1 / pool_size`` without a collective.  Replicated state (probes, CG
    iterates, the preconditioner, the objective trace) is bit-identical
    across ranks: each rank computes it from the same reduced inputs with
    the same arithmetic.
    Returns the whole pool's weights, allgathered.
    """

    require(budget > 0, "budget must be positive")
    require(
        cfg.track_objective != "exact" or comm.size == 1,
        "track_objective='exact' needs the whole pool on one rank",
    )
    backend = get_backend()
    xp = backend.xp
    dc = dataset.joint_dimension
    timings = TimingBreakdown()
    sigma = SigmaOperator(dataset, block_partition(dataset.num_labeled, comm.size)[comm.rank])
    pool = sigma.pool
    local_z = backend.full((dataset.num_pool,), 1.0 / pool_size, dtype=COMPUTE_DTYPE)

    # Rank 0 owns the probe RNG stream (Line 4); peers receive via bcast.
    rng = as_generator(cfg.seed) if comm.rank == 0 else None
    objective_trace = []
    first_cg_history: list = []
    cg_iteration_history: list = []
    total_cg_iterations = 0
    converged = False

    def allreduce_scalar(value: float, op: str) -> float:
        with timings.excluded():
            return float(comm.allreduce(backend.ascompute(xp.asarray([value])), op=op)[0])

    iterations = 0
    for t in range(1, cfg.max_iterations + 1):
        # Line 4: fresh Rademacher probes each iteration.
        with timings.region("other"):
            probes = None
            if comm.rank == 0:
                probes = backend.rademacher((dc, cfg.num_probes), rng=rng, dtype=COMPUTE_DTYPE)
            with timings.excluded():
                probes = comm.bcast(probes, root=0)

        # Line 5: B(Sigma_z) from per-rank partial sums, plus B(H_o), inverted.
        with timings.region("setup_preconditioner"):
            weights = budget * local_z
            partial = dataset.pool_block_diagonal(weights=weights)
            with timings.excluded():
                summed = comm.allreduce(partial.blocks)
            sigma_blocks = BlockDiagonalMatrix(summed, copy=False) + dataset.labeled_block_diagonal()
            sigma_blocks = sigma_blocks.add_identity(SIGMA_REGULARIZATION)
            preconditioner = sigma_blocks.inverse()

        def sigma_matvec(V: Array) -> Array:
            """``Sigma_z V``: the local ``H_z + H_o`` partial, allreduced, regularized."""

            partial = sigma_z.matvec(V)
            with timings.excluded():
                reduced = comm.allreduce(partial)
            reduced += SIGMA_REGULARIZATION * V
            return reduced

        # Line 6: W = Sigma^{-1} V by PCG started from zero.
        with timings.region("cg"):
            sigma_z = sigma.prepare(weights)
            first_solve = conjugate_gradient(
                sigma_matvec,
                probes,
                preconditioner=preconditioner.matvec,
                rtol=cfg.cg_tolerance,
                max_iterations=cfg.cg_max_iterations,
                record_history=(t == 1),
            )
            total_cg_iterations += first_solve.iterations
            if t == 1:
                first_cg_history = list(first_solve.residual_history)
            # Free the scratch while Line 7 lays out its own; Line 8 lays it out again.
            sigma_z.release()
        # Line 7: H_p W.
        with timings.region("other"):
            partial = pool.matvec(first_solve.solution)
            with timings.excluded():
                pool_applied = comm.allreduce(partial)

        # Hutchinson estimate of f(z) for the stopping rule, from Lines 6-7.
        if cfg.track_objective == "estimate":
            with timings.region("objective"):
                objective_trace.append(float(xp.sum(probes * pool_applied)) / cfg.num_probes)
            if cfg.objective_stalled(objective_trace):
                cg_iteration_history.append(first_solve.iterations)
                converged = True
                break

        iterations = t
        # Line 8: W' = Sigma^{-1} H_p W by PCG started from zero.
        with timings.region("cg"):
            second_solve = conjugate_gradient(
                sigma_matvec,
                pool_applied,
                preconditioner=preconditioner.matvec,
                rtol=cfg.cg_tolerance,
                max_iterations=cfg.cg_max_iterations,
                record_history=False,
            )
            total_cg_iterations += second_solve.iterations
            cg_iteration_history.append(first_solve.iterations + second_solve.iterations)
            # The step's preparation is spent: free it, scratch and all, before the gradient.
            sigma_z = None

        # Line 9: gradient estimate for every point of the shard.
        with timings.region("gradient"):
            grad = -pool.probe_quadratic_forms(probes, second_solve.solution)

        # Lines 10-11: exponentiated-gradient update, normalized over all ranks.
        with timings.region("other"):
            local_max = float(xp.abs(grad).max()) if int(grad.shape[0]) else 0.0
            beta = cfg.step_size(t, allreduce_scalar(local_max, "max"))
            log_z = xp.log(xp.clip(local_z, 1e-300, None)) - beta * grad
            local_log_max = float(log_z.max()) if int(log_z.shape[0]) else -float("inf")
            expd = xp.exp(log_z - allreduce_scalar(local_log_max, "max"))
            local_z = expd / allreduce_scalar(float(expd.sum()), "sum")

        if cfg.track_objective == "estimate":
            if comm.rank == 0:
                # Discard s probes: each seed keeps the probe stream its pinned selections use.
                rng.integers(0, 2, size=(dc, cfg.num_probes))
        elif cfg.track_objective == "exact":
            # Dense objective after the update, aligned with exact_relax (Fig. 4).
            with timings.region("objective"):
                objective_trace.append(
                    fisher_ratio_objective(dataset, budget * local_z, regularization=SIGMA_REGULARIZATION)
                )
            if cfg.objective_stalled(objective_trace):
                converged = True
                break

    with timings.excluded():
        weights = comm.allgather(budget * local_z)
    return RelaxResult(
        weights=weights,
        objective_trace=objective_trace,
        iterations=iterations,
        converged=converged,
        cg_iterations=total_cg_iterations,
        cg_iteration_history=cg_iteration_history,
        first_iteration_cg_history=first_cg_history,
        timings=timings,
    )
