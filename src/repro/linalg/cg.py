"""Matrix-free preconditioned conjugate gradients with multiple right-hand sides.

Algorithm 2 of the paper replaces the dense solves of Exact-FIRAL with CG:
Lines 6 and 8 solve ``Sigma_z W = V`` where ``V`` holds ``s`` Rademacher
probe vectors.  The operator ``Sigma_z`` is only available through the fast
matrix-free matvec of Lemma 2, and the block-diagonal preconditioner
``B(Sigma_z)^{-1}`` (Fig. 1) is applied per iteration.

The implementation below solves all ``s`` right-hand sides simultaneously
(blocked CG without cross-column coupling): each column keeps its own step
sizes, and columns that have converged are frozen.  This matches the paper's
implementation strategy, where the matvec cost is amortized over the probe
vectors (Table II lists the CG term as ``n_CG * s`` matvecs).

All arithmetic goes through the active array backend.  The iteration runs in
the backend's compute dtype (float64 per the § III-C policy) and updates its
state in place: ``alpha p`` and ``alpha A p`` are written into one work
buffer before they update the iterate and the residual, and the search
direction is scaled and shifted where it lies.  None of this changes the
arithmetic: for a given matvec the solution, the iteration count and the
history are bit-identical to the textbook loop (column norms are
``sqrt(sum(r * r, axis=0))``, the operations ``numpy.linalg.norm(r,
axis=0)`` runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.backend import Array, get_backend
from repro.utils.validation import require

__all__ = ["CGResult", "conjugate_gradient"]

MatVec = Callable[[Array], Array]


@dataclass
class CGResult:
    """Outcome of a (preconditioned) CG solve.

    Attributes
    ----------
    solution:
        Array with the same shape as the right-hand side, in its dtype when
        that is floating (float64 otherwise).
    iterations:
        Number of CG iterations performed (shared by all columns).
    converged:
        Whether every column reached the requested relative residual.
    residual_norms:
        Final relative residual per column, shape ``(s,)``.
    residual_history:
        List of per-iteration *maximum* relative residuals — this is the
        series plotted in Fig. 1 of the paper.
    """

    solution: Array
    iterations: int
    converged: bool
    residual_norms: Array
    residual_history: List[float] = field(default_factory=list)


def conjugate_gradient(
    matvec: MatVec,
    rhs: Array,
    *,
    preconditioner: Optional[MatVec] = None,
    rtol: float = 0.1,
    atol: float = 0.0,
    max_iterations: int = 1000,
    record_history: bool = True,
) -> CGResult:
    """Solve ``A x = b`` (columnwise for multiple RHS) with preconditioned CG.

    Parameters
    ----------
    matvec:
        Callable returning ``A @ X`` as an array, for an array ``X`` of
        shape ``(dim,)`` or ``(dim, s)`` that it must not modify.  ``A``
        must be symmetric positive definite.
    rhs:
        Right-hand side(s), shape ``(dim,)`` or ``(dim, s)``.
    preconditioner:
        Optional callable applying ``M^{-1}`` (e.g. the block-diagonal
        ``B(Sigma_z)^{-1}`` solve), under the same contract as ``matvec``.
        If omitted, plain CG is used.
    rtol:
        Relative residual tolerance; the paper's default is 0.1 for the
        RELAX solves (§ IV-A) and Fig. 4 studies values from 0.5 to 1e-3.
    atol:
        Absolute residual floor added to the tolerance test.
    max_iterations:
        Hard iteration cap.
    record_history:
        Whether to store the per-iteration max relative residual.

    Returns
    -------
    CGResult
    """

    require(rtol >= 0.0 and atol >= 0.0, "tolerances must be non-negative")
    require(max_iterations >= 0, "max_iterations must be non-negative")

    backend = get_backend()
    xp = backend.xp

    b = xp.asarray(rhs)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    require(b.ndim == 2, "rhs must be 1-D or 2-D")
    dim, num_rhs = int(b.shape[0]), int(b.shape[1])
    # Integer and bool right-hand sides solve in the compute dtype: casting
    # the iterates back to them would truncate every search direction.
    rhs_dtype = b.dtype if backend.is_floating(b) else backend.compute_dtype

    def apply(operator: MatVec, vectors: Array) -> Array:
        out = xp.asarray(operator(backend.astype(vectors, rhs_dtype)))
        return backend.ascompute(out.reshape(dim, num_rhs))

    def column_norms(vectors: Array) -> Array:
        return xp.sqrt(xp.sum(vectors * vectors, axis=0))

    # Iterate in the compute dtype (float64); cast the solution back at the end.
    b64 = backend.ascompute(b)

    # The iteration starts from x = 0, so the initial residual is b.
    x = xp.zeros_like(b64)
    r = backend.copy(b64)
    work = xp.empty_like(b64)

    b_norm = column_norms(b64)
    # Columns with a zero RHS are trivially solved by x = 0.
    safe_b_norm = xp.where(b_norm > 0, b_norm, 1.0)
    tol = xp.maximum(rtol * b_norm, atol)

    # Without a preconditioner z aliases r: nothing below mutates z, and r is
    # updated in place only after z's last read.
    z = r if preconditioner is None else apply(preconditioner, r)
    p = backend.copy(z)
    rz = backend.einsum("ij,ij->j", r, z)

    history: List[float] = []
    res_norm = column_norms(r)
    if record_history:
        history.append(float((res_norm / safe_b_norm).max()))

    active = res_norm > tol
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if not bool(active.any()):
            iterations -= 1
            break
        Ap = apply(matvec, p)
        pAp = backend.einsum("ij,ij->j", p, Ap)
        # Guard against numerically dead search directions on converged columns.
        curved = pAp > 0
        alpha = xp.where(curved, rz / xp.where(curved, pAp, 1.0), 0.0)
        alpha = xp.where(active, alpha, 0.0)
        xp.multiply(alpha, p, out=work)
        x += work
        xp.multiply(alpha, Ap, out=work)
        r -= work
        z = r if preconditioner is None else apply(preconditioner, r)
        rz_new = backend.einsum("ij,ij->j", r, z)
        positive = rz > 0
        beta = xp.where(positive, rz_new / xp.where(positive, rz, 1.0), 0.0)
        beta = xp.where(active, beta, 0.0)
        p *= beta
        p += z
        rz = rz_new

        res_norm = column_norms(r)
        if record_history:
            history.append(float((res_norm / safe_b_norm).max()))
        active = res_norm > tol

    converged = not bool(active.any())
    rel_res = res_norm / safe_b_norm
    solution = backend.astype(x, rhs_dtype)
    if single:
        solution = solution[:, 0]
        rel_res = rel_res[:1]
    return CGResult(
        solution=solution,
        iterations=iterations,
        converged=converged,
        residual_norms=rel_res,
        residual_history=history,
    )
