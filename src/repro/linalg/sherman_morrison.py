"""Proposition 4's closed-form ROUND score, through Lemma 3 of the paper.

Lemma 3 (block-wise Sherman–Morrison) states that for ``A`` block diagonal
with blocks ``A_k`` and ``gamma in R^c`` the inverse of
``A + diag(gamma) ⊗ (x x^T)`` is again block diagonal, with blocks

    A_k^{-1} - gamma_k A_k^{-1} x x^T A_k^{-1} / (1 + gamma_k x^T A_k^{-1} x).

Nothing here applies that update: ROUND refreshes ``B_{t+1}^{-1}`` with one
batched inverse per step (Line 11 of Algorithm 3).  The identity is what
turns the FTRL score of every candidate, ``Trace[(B_t + eta H_i)^{-1}
Sigma_*]``, into the closed form of Proposition 4 (Eq. 17), which needs only
the scalars ``x^T B_k^{-1} x`` and ``x^T B_k^{-1} Sigma_*,k B_k^{-1} x``:
:func:`fused_round_scores` evaluates it for a whole pool at once.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import Array, COMPUTE_DTYPE, Workspace, get_backend
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.utils.validation import require

__all__ = ["fused_round_scores"]


def fused_round_scores(
    a_inverse: BlockDiagonalMatrix,
    middle: BlockDiagonalMatrix,
    X: Array,
    gammas: Array,
    eta: float,
    *,
    chunk_size: Optional[int] = None,
    workspace: Optional[Workspace] = None,
    out: Optional[Array] = None,
) -> Array:
    """Fused evaluation of the Proposition-4 ROUND objective (Eq. 17).

    For each point ``x_i`` (rows of ``X``) and each class block ``k``

        gamma_{ik} * x_i^T B_k^{-1} M_k B_k^{-1} x_i
        / (1 + eta * gamma_{ik} * x_i^T B_k^{-1} x_i)

    summed over ``k``, with ``B^{-1} = a_inverse`` and ``M = middle``.  The
    shared contraction ``U_k = X B_k^{-1}`` is computed **once** and both the
    numerator ``einsum(U, M, U)`` and the Sherman–Morrison denominator
    ``einsum(U, X)`` derive from it, halving the dominant ``O(n c d^2)``
    contraction relative to evaluating the two quadratic forms independently.

    Note on the paper: Eq. (17) prints the middle matrix as
    ``(Sigma_*)^{-1}_k``, but expanding the trace identity of Eq. (18),
    ``r_i = Trace[(B_t + eta H_i)^{-1} Sigma_*]``, with Lemma 3 yields
    ``M_k = (Sigma_*)_k`` (no inverse).  The solver follows the derivation
    and passes ``Sigma_*``, which is also what reproduces the exact-round
    selections when Hessians are block diagonal — see
    ``tests/test_core_approx_round.py::TestProposition4Equivalence``.

    Parameters
    ----------
    a_inverse, middle:
        ``B_t^{-1}`` and the middle matrix ``M`` (``Sigma_*``, per the note
        above).
    X:
        Candidate features ``(n, d)``, **already promoted** to the compute
        dtype.  Promotion belongs to the caller (one promotion per ROUND
        solve / η grid, not one per selection step).
    gammas:
        Rank-one coefficients ``(n, c)``, already promoted.
    eta:
        FTRL learning rate.
    chunk_size:
        When given, candidates are streamed in chunks of this many points so
        peak scratch memory is ``O(chunk · c · d)`` instead of
        ``O(n · c · d)``.  Every candidate's score is an independent
        contraction, so chunking selects identical indices; the raw scores
        can differ by BLAS kernel-blocking ULPs (GEMM tiling depends on the
        row count).
    workspace:
        Optional :class:`~repro.backend.Workspace`; the two ``(c, m, d)``
        scratch tensors are reused across selection steps (and η trials)
        instead of reallocated.
    out:
        Optional ``(n,)`` compute-dtype output buffer.

    Returns
    -------
    Array of shape ``(n,)`` with the per-point objective values (compute
    dtype).  The point with the *maximum* value is the ROUND selection.
    """

    backend = get_backend()
    xp = backend.xp
    c = a_inverse.num_blocks
    d = a_inverse.block_size
    n = int(X.shape[0])
    require(X.ndim == 2 and int(X.shape[1]) == d, "X must have shape (n, d)")
    require(tuple(gammas.shape) == (n, c), "gammas must have shape (n, c)")
    require(eta > 0, "eta must be positive")
    require(chunk_size is None or chunk_size > 0, "chunk_size must be positive")

    inv_blocks = backend.ascompute(a_inverse.blocks)
    mid_blocks = backend.ascompute(middle.blocks)
    inv_promoted = BlockDiagonalMatrix(inv_blocks, copy=False)

    scores = out if out is not None else backend.empty((n,), dtype=COMPUTE_DTYPE)
    step = n if chunk_size is None else min(int(chunk_size), n)
    for start in range(0, n, max(step, 1)):
        stop = min(start + step, n)
        m = stop - start
        Xc = X[start:stop]
        Gc = gammas[start:stop]
        u_buf = workspace.get("fused_round_u", (c, m, d), COMPUTE_DTYPE) if workspace else None
        v_buf = workspace.get("fused_round_v", (c, m, d), COMPUTE_DTYPE) if workspace else None
        # U[k, i] = B_k^{-1} x_i — the single shared contraction.
        U = inv_promoted.apply_points(Xc, out=u_buf)
        # V[k, i] = M_k U[k, i]  (batched GEMM, one per class block).
        V = xp.matmul(U, mid_blocks, out=v_buf) if v_buf is not None else xp.matmul(U, mid_blocks)
        # numerator_{ik} = U[k,i] · V[k,i];  quad_{ik} = U[k,i] · x_i.
        numerator = backend.transpose_last(backend.einsum("kid,kid->ki", V, U))
        quad = backend.transpose_last(backend.einsum("kid,id->ki", U, Xc))
        denominator = 1.0 + eta * Gc * quad
        scores[start:stop] = backend.einsum("ik,ik->i", Gc, numerator / denominator)
    return scores
