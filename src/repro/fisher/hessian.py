"""Dense Fisher-information (Hessian) construction and block diagonals.

The dense routines form the reference implementation used by Exact-FIRAL
and by the test suite to validate the fast matrix-free kernels.  Their costs
are the ``O(c^2 d^2)`` storage / ``O(n c^2 d^2)`` compute terms of Table II
that make Exact-FIRAL intractable at scale — which is precisely why
Approx-FIRAL avoids them.  Approx-FIRAL keeps only the block diagonal
(Eq. 14), which :func:`coefficient_blocks` assembles with one GEMM per class.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import Array, COMPUTE_DTYPE, get_backend
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.utils.validation import check_features, check_probabilities, require

__all__ = [
    "point_hessian_dense",
    "sum_hessian_dense",
    "block_diagonal_of_sum",
    "coefficient_blocks",
    "point_block_coefficients",
    "weighted_block_diagonal",
]


def point_hessian_dense(x: Array, h: Array) -> Array:
    """Dense per-point Hessian ``H_i = [diag(h) - h h^T] ⊗ (x x^T)`` (Eq. 2).

    Parameters
    ----------
    x:
        Feature vector of length ``d``.
    h:
        Class-probability vector of length ``c``.

    Returns
    -------
    Array of shape ``(dc, dc)``.  Block ``(k, l)`` of size ``d x d`` equals
    ``(diag(h) - h h^T)_{kl} * x x^T`` — consistent with the library-wide
    vectorization convention (class-major blocks).
    """

    backend = get_backend()
    xp = backend.xp
    x = backend.ascompute(x).ravel()
    h = backend.ascompute(h).ravel()
    require(int(x.shape[0]) > 0 and int(h.shape[0]) > 0, "x and h must be non-empty")
    require(bool(xp.all(h >= -1e-9)), "probabilities must be non-negative")
    require(float(h.sum()) <= 1.0 + 1e-6, "probabilities must sum to at most 1")

    prob_matrix = xp.diag(h) - xp.outer(h, h)
    return xp.kron(prob_matrix, xp.outer(x, x))


def sum_hessian_dense(
    X: Array,
    H: Array,
    weights: Optional[Array] = None,
) -> Array:
    """Dense weighted Hessian sum ``sum_i w_i H_i`` (Eq. 3).

    With ``weights=None`` this is ``H_o`` / ``H_p`` depending on which point
    set is passed; with ``weights=z`` it is ``H_z``.
    """

    backend = get_backend()
    X = check_features(X)
    H = check_probabilities(H, num_classes=None)
    require(X.shape[0] == H.shape[0], "X and H must describe the same points")
    n, d = int(X.shape[0]), int(X.shape[1])
    c = int(H.shape[1])
    if weights is None:
        w = backend.ones((n,), dtype=COMPUTE_DTYPE)
    else:
        w = backend.ascompute(weights).ravel()
        require(tuple(w.shape) == (n,), "weights must have shape (n,)")

    out = backend.zeros((d * c, d * c), dtype=COMPUTE_DTYPE)
    for i in range(n):
        if float(w[i]) == 0.0:
            continue
        out += w[i] * point_hessian_dense(X[i], H[i])
    return out


def point_block_coefficients(H: Array) -> Array:
    """Per-point, per-class rank-one coefficients ``h_i^k (1 - h_i^k)``.

    Eq. 15: the ``k``-th diagonal block of ``H_i`` is
    ``h_i^k (1 - h_i^k) x_i x_i^T``, so these scalars fully describe the block
    diagonal of every Hessian.  Shape ``(n, c)``.
    """

    return _block_coefficients(check_probabilities(H))


def _block_coefficients(H: Array) -> Array:
    """``H (1 - H)`` formed in the compute dtype.

    ``H`` is promoted first, so float32 probabilities give the same
    coefficients as the dense reference, which promotes before it
    multiplies.
    """

    H = get_backend().ascompute(H)
    return H * (1.0 - H)


def block_diagonal_of_sum(
    X: Array,
    H: Array,
    weights: Optional[Array] = None,
    *,
    dtype=COMPUTE_DTYPE,
) -> BlockDiagonalMatrix:
    """Block diagonal ``B(sum_i w_i H_i)`` assembled directly (Eq. 14).

    This is the preconditioner assembly of Line 5, Algorithm 2:

        B_k = sum_i w_i h_i^k (1 - h_i^k) x_i x_i^T = X^T diag(w γ_k) X

    one GEMM per class (:func:`coefficient_blocks`) at cost ``O(n c d^2)``
    and ``O(n d)`` scratch — no ``dc x dc`` matrix is ever formed.
    """

    X = check_features(X)
    H = check_probabilities(H)
    require(X.shape[0] == H.shape[0], "X and H must describe the same points")
    return weighted_block_diagonal(X, H, weights, dtype=dtype)


def weighted_block_diagonal(
    X: Array,
    H: Array,
    weights: Optional[Array] = None,
    *,
    dtype=COMPUTE_DTYPE,
) -> BlockDiagonalMatrix:
    """:func:`block_diagonal_of_sum` for arrays that already passed validation.

    :class:`~repro.fisher.FisherDataset` validates its arrays once when it is
    built; its block diagonals come from here, so the per-step
    preconditioner assembly does not check them again.  The weighted
    coefficients ``w_i γ_i`` go to :func:`coefficient_blocks`: ``c`` GEMMs,
    ``O(n d)`` scratch.
    """

    backend = get_backend()
    n = int(X.shape[0])
    coeff = _block_coefficients(H)
    if weights is not None:
        w = backend.ascompute(weights).ravel()
        require(tuple(w.shape) == (n,), "weights must have shape (n,)")
        coeff = coeff * w[:, None]

    blocks = coefficient_blocks(backend.ascompute(X), coeff)
    return BlockDiagonalMatrix(backend.astype(blocks, dtype), copy=False)


def coefficient_blocks(X: Array, coeff: Array) -> Array:
    """Blocks ``B_k = X^T diag(coeff[:, k]) X`` of a Hessian sum: ``(c, d, d)``.

    ``X`` is ``(n, d)`` and ``coeff`` is ``(n, c)``, both in the compute
    dtype; ``coeff`` holds the (weighted) rank-one coefficients
    ``w_i h_i^k (1 - h_i^k)`` of Eq. 14.  Each block is one GEMM of the
    column-scaled ``X^T`` with ``X``, written into a preallocated
    ``(c, d, d)`` array, so the scratch is one ``(d, n)`` product at a time:
    ``O(n d)``, never ``O(c n d)``.
    """

    backend = get_backend()
    xp = backend.xp
    c, d = int(coeff.shape[1]), int(X.shape[1])
    blocks = backend.empty((c, d, d), dtype=COMPUTE_DTYPE)
    XT = backend.transpose_last(X)
    for k in range(c):
        xp.matmul(XT * coeff[:, k], X, out=blocks[k])
    return blocks
