"""Block-diagonal ROUND solver (Algorithm 3 of the paper), one SPMD loop.

Under the approximation that every Fisher matrix keeps only its ``d x d``
class-diagonal blocks (Eq. 14), the FTRL round of Algorithm 1 collapses to
block-diagonal algebra:

* candidate scoring uses the closed form of Proposition 4 (Eq. 17) — a batch
  of quadratic forms per class block plus the Sherman–Morrison denominator,
* the FTRL matrix update needs only per-block generalized eigenvalues of the
  accumulated Hessian with respect to ``Sigma_*`` (Line 9) and the scalar ν
  (Line 10),
* ``B_{t+1}^{-1}`` is a batch of ``c`` dense ``d x d`` inverses (Line 11).

``Sigma_*`` is fixed for the whole solve, so Line 9 whitens with it: the
precompute factors ``Sigma_*,k = L_k L_k^T`` once and keeps ``W_k = L_k^{-1}``,
and each step takes the eigenvalues of ``W_k A_k W_k^T`` in one batched
``eigvalsh`` — the eigenvalues of ``A_k v = lambda Sigma_*,k v``.  Line 10
solves for ν by Newton's method (:func:`repro.linalg.bisection.find_ftrl_nu`).

Total cost ``O(b c d^2 (n/p + d))`` — the ROUND column of Table IV.  The
whitener, the eigensolve and the batched inverses run through the active
backend's promoted (float64) linear algebra.

One loop serves every rank count (§ III-C).  A :class:`RoundPrecompute`
holds one rank's η-independent state: ``Sigma_*`` summed over ranks, the
whitener of the rank's share of its class blocks, the promoted shard rows,
scoring buffers, the communicator and the global shard offsets; built
without a communicator it is the one-rank case
(:data:`~repro.core.spmd.ONE_RANK`).  Per step :func:`approx_round` scores
its shard with the fused kernel
(:func:`repro.linalg.sherman_morrison.fused_round_scores`, optionally in
chunks of ``RoundConfig.score_chunk_size``), takes the global winner from
``argmax_allreduce`` (ties to the lowest rank), has the owner broadcast its
``(x, γ)``, accumulates ``B_{t+1}`` in place through the precompute's
:class:`~repro.backend.Workspace`, and allgathers the eigenvalues of each
rank's share of the class blocks.  ``select_eta`` threads one precompute
through every grid trial and scores each batch with
:meth:`RoundPrecompute.score`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.backend import Array, COMPUTE_DTYPE, Workspace, get_backend
from repro.core.config import SIGMA_REGULARIZATION, RoundConfig
from repro.core.result import RoundResult
from repro.core.spmd import ONE_RANK, block_partition
from repro.fisher.hessian import coefficient_blocks, point_block_coefficients
from repro.fisher.operators import FisherDataset
from repro.linalg.bisection import find_ftrl_nu
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.sherman_morrison import fused_round_scores
from repro.utils.timing import TimingBreakdown
from repro.utils.validation import check_positive_real, require

__all__ = [
    "RoundPrecompute",
    "approx_round",
    "block_whitener",
    "generalized_block_eigenvalues",
]


@dataclass
class RoundPrecompute:
    """η-independent state of a block-diagonal ROUND solve on one rank.

    Everything here depends only on ``(dataset, z_relaxed)`` — not on the
    FTRL learning rate η — so the § IV-A grid search assembles
    one instance and threads it through all trials instead of letting each
    :func:`approx_round` call rebuild it: the ``Sigma_*`` assembly and the
    Cholesky whitening of its blocks, the compute-dtype promotion of the pool
    features / rank-one coefficients, and the scoring buffers are paid once
    per grid, not once per trial.

    Attributes
    ----------
    sigma_star:
        ``B(Sigma_*)`` over the whole pool, with
        :data:`~repro.core.config.SIGMA_REGULARIZATION` already added.
    whitener:
        :func:`block_whitener` of the rank's own class blocks of ``Sigma_*``
        (``block_partition(c, comm.size)[comm.rank]``, the blocks its Line-9
        eigensolve reads), in the compute dtype: ``L_k^{-1}`` for
        ``Sigma_*,k = L_k L_k^T``, shape ``(c_r, d, d)``.
    labeled_blocks:
        ``B(H_o)``, in the compute dtype.
    X:
        The shard's pool features promoted to the compute dtype, ``(n, d)``.
    gammas:
        Rank-one coefficients ``h_i^k (1 - h_i^k)`` promoted to the compute
        dtype, shape ``(n, c)``.
    z:
        The promoted relaxed weights this context was built from; the solver
        validates its ``z_relaxed`` argument against it so a stale context
        (same pool, different RELAX output) cannot be threaded in silently.
    offsets, comm:
        The global shard table — rank ``r`` owns pool indices
        ``offsets[r]:offsets[r + 1]`` — and the communicator
        (:data:`~repro.core.spmd.ONE_RANK` by default).
    workspace:
        Scratch-buffer pool shared by the scoring kernel and the in-place
        ``B_{t+1}`` accumulation across selection steps and η trials.
    timings:
        Compute seconds spent through this context, collectives excluded:
        its build (``"setup"``), every :func:`approx_round` that used it and
        every batch it scored (``"eta_scoring"``).
    """

    sigma_star: BlockDiagonalMatrix
    whitener: Array
    labeled_blocks: BlockDiagonalMatrix
    X: Array
    gammas: Array
    z: Array
    offsets: Tuple[int, ...]
    comm: object = ONE_RANK
    workspace: Workspace = field(default_factory=lambda: Workspace(get_backend()))
    timings: TimingBreakdown = field(default_factory=TimingBreakdown)

    @classmethod
    def build(
        cls,
        dataset: FisherDataset,
        z_relaxed: Array,
        *,
        comm=ONE_RANK,
        offsets: Optional[Sequence[int]] = None,
    ) -> "RoundPrecompute":
        """Assemble the η-independent state (Line 3 of Algorithm 3 + promotions).

        ``dataset`` and ``z_relaxed`` are this rank's shard and its slice of
        ``z*``; ``offsets`` is the global shard table (default: one rank
        owning the whole pool).  ``Sigma_*`` is the allreduce of the ranks'
        partial block diagonals plus the replicated ``B(H_o)`` and
        :data:`~repro.core.config.SIGMA_REGULARIZATION`; each rank whitens its
        own share of the class blocks.
        """

        backend = get_backend()
        z = backend.ascompute(z_relaxed).ravel()
        require(
            tuple(z.shape) == (dataset.num_pool,),
            "z_relaxed must have one weight per pool point",
        )
        offsets = (0, dataset.num_pool) if offsets is None else tuple(int(o) for o in offsets)
        require(
            len(offsets) == comm.size + 1
            and offsets[comm.rank + 1] - offsets[comm.rank] == dataset.num_pool,
            "offsets must give this rank's shard size",
        )
        timings = TimingBreakdown()
        with timings.region("setup"):
            partial = dataset.pool_block_diagonal(weights=z)
            with timings.excluded():
                summed = comm.allreduce(partial.blocks)
            labeled_blocks = dataset.labeled_block_diagonal()
            sigma_star = BlockDiagonalMatrix(summed, copy=False) + labeled_blocks
            sigma_star = sigma_star.add_identity(SIGMA_REGULARIZATION)
            own_classes = block_partition(dataset.num_classes, comm.size)[comm.rank]
            precompute = cls(
                sigma_star=sigma_star,
                whitener=block_whitener(sigma_star.blocks[own_classes]),
                labeled_blocks=labeled_blocks,
                X=backend.ascompute(dataset.pool_features),
                gammas=point_block_coefficients(dataset.pool_probabilities),
                z=z,
                offsets=offsets,
                comm=comm,
                timings=timings,
            )
        return precompute

    @property
    def num_pool(self) -> int:
        return int(self.X.shape[0])

    def score(self, selected_indices: Array) -> float:
        """``min_k lambda_min(H_k)`` of a selected batch (global pool indices).

        The § IV-A η rule.  Each rank contributes the block-Hessian partial
        of the selected points it owns; the partials are allreduced.
        """

        backend = get_backend()
        selected = backend.index_array(selected_indices)
        require(selected.size > 0, "selection must not be empty")
        first, stop = self.offsets[self.comm.rank], self.offsets[self.comm.rank + 1]
        with self.timings.region("eta_scoring"):
            owned = selected[(selected >= first) & (selected < stop)] - first
            blocks = coefficient_blocks(self.X[owned], self.gammas[owned])
            with self.timings.excluded():
                blocks = self.comm.allreduce(blocks)
            return BlockDiagonalMatrix(blocks, copy=False).min_eigenvalue()


def block_whitener(s_blocks: Array) -> Array:
    """``L_k^{-1}`` for ``S_k = L_k L_k^T``, per stacked ``(c, d, d)`` block.

    ``S`` must be symmetric positive definite; it is promoted to the compute
    dtype and symmetrized before the batched Cholesky factorization, and the
    result stays in the compute dtype.  This is the whitener
    :func:`generalized_block_eigenvalues` takes.
    """

    backend = get_backend()
    s = backend.ascompute(s_blocks)
    return backend.inv(backend.cholesky(0.5 * (s + backend.transpose_last(s))))


def generalized_block_eigenvalues(a_blocks: Array, whitener: Array) -> Array:
    """Eigenvalues of ``A_k v = lambda S_k v`` for stacked ``(c, d, d)`` blocks.

    ``whitener`` is :func:`block_whitener` of ``S``, ``W_k = L_k^{-1}``.  The
    result is ``eigvalsh(W_k A_k W_k^T)`` for all blocks in one batched
    call: the eigenvalues of ``S_k^{-1/2} A_k S_k^{-1/2}``, to which
    ``W_k A_k W_k^T`` is similar.  That is Line 9 of Algorithm 3 with
    ``S = Sigma_*``, factored once per solve.  ``A`` is promoted to the
    compute dtype and symmetrized.  Returns an array of shape ``(c, d)``,
    ascending per block.
    """

    backend = get_backend()
    xp = backend.xp
    a = backend.ascompute(a_blocks)
    whitened = a + backend.transpose_last(a)
    whitened *= 0.5
    # Rebinding frees the symmetrized copy before the second product exists.
    whitened = xp.matmul(whitener, whitened)
    return backend.eigvalsh(xp.matmul(whitened, backend.transpose_last(whitener)))


def approx_round(
    dataset: FisherDataset,
    z_relaxed: Array,
    budget: int,
    eta: float,
    config: Optional[RoundConfig] = None,
    *,
    precompute: Optional[RoundPrecompute] = None,
) -> RoundResult:
    """Select ``budget`` points with the block-diagonal round solver.

    Parameters
    ----------
    dataset:
        Fisher data for the current round (this rank's shard of it).
    z_relaxed:
        Relaxed weights ``z*`` from the RELAX step (this rank's slice).
    budget:
        Number of points ``b`` to select.
    eta:
        FTRL learning rate η, a finite positive real.
    config:
        Round options.
    precompute:
        Optional η-independent state built with :meth:`RoundPrecompute.build`
        for the same ``(dataset, z_relaxed)``.  The η grid search
        passes one instance through every trial; a rank program passes one
        built over its communicator.  When omitted the solve builds (and
        discards) a one-rank context.

    Returns global pool indices, identical on every rank.
    """

    require(budget > 0, "budget must be positive")
    eta = check_positive_real(eta, "eta")
    cfg = config or RoundConfig(eta=eta)
    backend = get_backend()
    xp = backend.xp
    n = dataset.num_pool

    z_relaxed = backend.ascompute(z_relaxed).ravel()
    require(tuple(z_relaxed.shape) == (n,), "z_relaxed must have one weight per pool point")

    timings = TimingBreakdown()
    d = dataset.dimension
    c = dataset.num_classes
    dc = d * c

    with timings.region("setup"):
        if precompute is None:
            precompute = RoundPrecompute.build(dataset, z_relaxed)
        require(precompute.num_pool == n, "precompute does not match the dataset pool")
        require(precompute.offsets[-1] >= budget, "pool smaller than budget")
        require(
            bool(xp.all(precompute.z == z_relaxed)),
            "precompute was built from different relaxed weights",
        )
        comm = precompute.comm
        offsets = precompute.offsets
        own_classes = block_partition(c, comm.size)[comm.rank]
        sigma_star = precompute.sigma_star
        labeled_blocks = precompute.labeled_blocks
        X = precompute.X
        gammas = precompute.gammas
        workspace = precompute.workspace

        # Line 4: B_1 = sqrt(dc) * Sigma_* + (eta/b) * H_o, inverted per block.
        b1 = sigma_star * math.sqrt(dc) + labeled_blocks * (eta / budget)
        bt_inv = b1.inverse()

        # Line 5: accumulated H starts at zero; hoisted per-step constants.
        accumulated = workspace.get("round_accumulated", (c, d, d), COMPUTE_DTYPE, zero=True)
        labeled_over_budget = labeled_blocks.blocks / budget
        labeled_eta_blocks = labeled_blocks.blocks * (eta / budget)
        scores_buf = workspace.get("round_scores", (n,), COMPUTE_DTYPE)

    selected = []
    objective_trace = []
    available = backend.ones((n,), dtype=bool)

    for t in range(1, budget + 1):
        # Line 7: candidate scoring via Proposition 4 (Eq. 17, with Sigma_* as
        # the middle matrix — see the note in fused_round_scores), over the
        # points not yet selected, then the global MAXLOC argmax.
        with timings.region("score"):
            scores = fused_round_scores(
                bt_inv,
                sigma_star,
                X,
                gammas,
                eta,
                chunk_size=cfg.score_chunk_size,
                workspace=workspace,
                out=scores_buf,
            )
            scores = xp.where(available, scores, -xp.inf)
            best_local = int(xp.argmax(scores))
            with timings.excluded():
                owner, best_local, best_value = comm.argmax_allreduce(
                    float(scores[best_local]), best_local
                )
            # Proposition 4's score is positive while B_t is positive definite.
            require(
                0.0 < best_value < math.inf,
                f"ROUND step {t}: best score {best_value!r} is not finite and positive, "
                f"so B_t lost definiteness in floating point at eta={eta!r}",
            )
            selected.append(offsets[owner] + best_local)
            objective_trace.append(best_value)
            if comm.rank == owner:
                available[best_local] = False

        # Line 8: the owner broadcasts the winner's (x, gamma); accumulate
        # (1/b) H_o + its block Hessian in place — no per-step reallocation.
        with timings.region("update_accumulated"):
            with timings.excluded():
                x_sel = comm.bcast(X[best_local] if comm.rank == owner else None, root=owner)
                gamma_sel = comm.bcast(
                    gammas[best_local] if comm.rank == owner else None, root=owner
                )
            rank_one = workspace.get("round_rank_one", (c, d, d), COMPUTE_DTYPE)
            xp.multiply(
                gamma_sel[:, None, None], (x_sel[:, None] * x_sel[None, :])[None], out=rank_one
            )
            accumulated += labeled_over_budget
            accumulated += rank_one

        # Lines 9-10: each rank's share of the class blocks' generalized
        # eigenvalues, whitened by the precompute, allgathered, and the FTRL
        # constant nu.
        with timings.region("compute_eigenvalues"):
            if own_classes.stop > own_classes.start:
                local_eigenvalues = generalized_block_eigenvalues(
                    accumulated[own_classes], precompute.whitener
                )
            else:
                local_eigenvalues = backend.zeros((0, d), dtype=COMPUTE_DTYPE)
            with timings.excluded():
                eigenvalues = comm.allgather(local_eigenvalues)
            nu = find_ftrl_nu(eta * eigenvalues)

        # Line 11: refresh B_{t+1}^{-1} (replicated on every rank).
        with timings.region("refresh_inverse"):
            next_b = workspace.get("round_next_b", (c, d, d), COMPUTE_DTYPE)
            xp.multiply(backend.ascompute(sigma_star.blocks), nu, out=next_b)
            next_b += eta * accumulated
            next_b += labeled_eta_blocks
            bt_inv = BlockDiagonalMatrix(backend.inv(next_b), copy=False)

    precompute.timings = precompute.timings.merge(timings)
    return RoundResult(
        selected_indices=backend.index_array(selected),
        eta=float(eta),
        objective_trace=objective_trace,
        timings=timings,
    )
