"""Block-diagonal matrices with ``c`` dense ``d x d`` blocks.

Definition 1 in the paper introduces the block-diagonal operation ``B(H)``
that keeps only the ``d x d`` diagonal blocks of a ``dc x dc`` matrix.  Both
the CG preconditioner of the fast RELAX step and every matrix appearing in
the diagonal ROUND step (Algorithm 3) are of this form, so the class below is
the workhorse data structure of Approx-FIRAL.

Storage is a single ``(c, d, d)`` array on the active array backend; all
operations are batched over the class axis, mirroring the batched BLAS /
``cupy.linalg`` calls described in § III-C.  The products the solvers run
per step are batched GEMMs: :meth:`BlockDiagonalMatrix.matvec` (the CG
preconditioner apply) is one ``matmul`` of the ``(c, d, d)`` blocks with the
``(c, d, s)`` right-hand sides, and :meth:`BlockDiagonalMatrix.apply_points`
one broadcast ``matmul`` over the points; the assembly of ``B(·)`` itself is
one GEMM per class (:func:`repro.fisher.hessian.coefficient_blocks`).
Numerically delicate routines (inverse, Cholesky, eigensolves, solves) go
through the backend's promoted linear algebra, which applies the
library-wide float64 compute policy and casts back to the storage dtype.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import Array, default_dtype, get_backend
from repro.utils.validation import check_square_blocks, require

__all__ = ["BlockDiagonalMatrix"]


class BlockDiagonalMatrix:
    """A ``dc x dc`` symmetric matrix stored as ``c`` diagonal blocks.

    Parameters
    ----------
    blocks:
        Array of shape ``(c, d, d)``.  Block ``k`` acts on the ``k``-th
        ``d``-dimensional slice of a vectorized weight ``v in R^{dc}``
        (column-major over classes, i.e. ``v.reshape(c, d)`` rows).
    copy:
        Whether to copy the input array (default ``True``).
    """

    def __init__(self, blocks: Array, *, copy: bool = True):
        arr = check_square_blocks(blocks)
        self.blocks = get_backend().copy(arr) if copy else arr
        self.num_blocks = int(arr.shape[0])
        self.block_size = int(arr.shape[1])

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def identity(cls, num_blocks: int, block_size: int, scale: float = 1.0, dtype=None) -> "BlockDiagonalMatrix":
        """Return ``scale * I`` with the given block structure."""

        require(num_blocks > 0, "num_blocks must be positive")
        require(block_size > 0, "block_size must be positive")
        backend = get_backend()
        xp = backend.xp
        eye = backend.eye(block_size, dtype=dtype if dtype is not None else default_dtype())
        eye = eye * scale
        blocks = backend.copy(xp.broadcast_to(eye, (num_blocks, block_size, block_size)))
        return cls(blocks, copy=False)

    @classmethod
    def zeros(cls, num_blocks: int, block_size: int, dtype=None) -> "BlockDiagonalMatrix":
        """Return the zero matrix with the given block structure."""

        backend = get_backend()
        dt = dtype if dtype is not None else default_dtype()
        return cls(backend.zeros((num_blocks, block_size, block_size), dtype=dt), copy=False)

    @classmethod
    def from_dense(cls, dense: Array, num_blocks: int) -> "BlockDiagonalMatrix":
        """Extract the block diagonal ``B(H)`` of a dense ``dc x dc`` matrix.

        This is the literal Definition 1 of the paper and is used in tests to
        validate the fast construction of ``B(Sigma_z)`` against the dense
        Hessian sum.
        """

        xp = get_backend().xp
        dense = xp.asarray(dense)
        require(dense.ndim == 2 and dense.shape[0] == dense.shape[1], "dense must be square")
        dim = dense.shape[0]
        require(dim % num_blocks == 0, f"matrix dim {dim} not divisible by num_blocks {num_blocks}")
        d = dim // num_blocks
        blocks = xp.empty((num_blocks, d, d), dtype=dense.dtype)
        for k in range(num_blocks):
            sl = slice(k * d, (k + 1) * d)
            blocks[k] = dense[sl, sl]
        return cls(blocks, copy=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple:
        dim = self.num_blocks * self.block_size
        return (dim, dim)

    @property
    def dtype(self):
        return self.blocks.dtype

    def copy(self) -> "BlockDiagonalMatrix":
        return BlockDiagonalMatrix(self.blocks, copy=True)

    def astype(self, dtype) -> "BlockDiagonalMatrix":
        return BlockDiagonalMatrix(get_backend().astype(self.blocks, dtype), copy=False)

    def to_dense(self) -> Array:
        """Materialize the full ``dc x dc`` matrix (test/diagnostic use only)."""

        xp = get_backend().xp
        dim = self.num_blocks * self.block_size
        out = xp.zeros((dim, dim), dtype=self.blocks.dtype)
        d = self.block_size
        for k in range(self.num_blocks):
            sl = slice(k * d, (k + 1) * d)
            out[sl, sl] = self.blocks[k]
        return out

    def symmetrize(self) -> "BlockDiagonalMatrix":
        """Return ``(A + A^T) / 2`` applied block-wise."""

        backend = get_backend()
        sym = 0.5 * (self.blocks + backend.transpose_last(self.blocks))
        return BlockDiagonalMatrix(sym, copy=False)

    # ------------------------------------------------------------------ #
    # algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "BlockDiagonalMatrix") -> "BlockDiagonalMatrix":
        self._check_compatible(other)
        return BlockDiagonalMatrix(self.blocks + other.blocks, copy=False)

    def __sub__(self, other: "BlockDiagonalMatrix") -> "BlockDiagonalMatrix":
        self._check_compatible(other)
        return BlockDiagonalMatrix(self.blocks - other.blocks, copy=False)

    def __mul__(self, scalar: float) -> "BlockDiagonalMatrix":
        return BlockDiagonalMatrix(self.blocks * scalar, copy=False)

    __rmul__ = __mul__

    def add_scaled(self, other: "BlockDiagonalMatrix", scale: float) -> "BlockDiagonalMatrix":
        """Return ``self + scale * other`` without an intermediate copy per op."""

        self._check_compatible(other)
        return BlockDiagonalMatrix(self.blocks + scale * other.blocks, copy=False)

    def add_identity(self, scale: float) -> "BlockDiagonalMatrix":
        """Return ``self + scale * I``."""

        backend = get_backend()
        out = backend.copy(self.blocks)
        idx = backend.xp.arange(self.block_size)
        out[:, idx, idx] += scale
        return BlockDiagonalMatrix(out, copy=False)

    def matmul(self, other: "BlockDiagonalMatrix") -> "BlockDiagonalMatrix":
        """Block-wise matrix product ``self @ other``."""

        self._check_compatible(other)
        product = get_backend().einsum("kij,kjl->kil", self.blocks, other.blocks)
        return BlockDiagonalMatrix(product, copy=False)

    def _check_compatible(self, other: "BlockDiagonalMatrix") -> None:
        require(isinstance(other, BlockDiagonalMatrix), "operand must be a BlockDiagonalMatrix")
        require(
            self.num_blocks == other.num_blocks and self.block_size == other.block_size,
            "block structures do not match",
        )

    # ------------------------------------------------------------------ #
    # matvec / solves
    # ------------------------------------------------------------------ #
    def _reshape_vec(self, v: Array) -> tuple:
        """Reshape ``(dc,)`` or ``(dc, s)`` input into ``(c, d, s)``."""

        v = get_backend().xp.asarray(v)
        dim = self.num_blocks * self.block_size
        single = v.ndim == 1
        if single:
            v = v[:, None]
        require(v.shape[0] == dim, f"vector length {v.shape[0]} != matrix dim {dim}")
        return v.reshape(self.num_blocks, self.block_size, v.shape[1]), single

    def matvec(self, v: Array) -> Array:
        """Compute ``A @ v`` for ``v`` of shape ``(dc,)`` or ``(dc, s)``.

        One batched ``matmul`` of the ``(c, d, d)`` blocks with ``v`` viewed
        as ``(c, d, s)`` — the preconditioner apply of every CG step.
        """

        vb, single = self._reshape_vec(v)
        out = get_backend().xp.matmul(self.blocks, vb)
        out = out.reshape(self.num_blocks * self.block_size, -1)
        return out[:, 0] if single else out

    __matmul__ = matvec

    def solve(self, v: Array) -> Array:
        """Solve ``A x = v`` block-by-block via the backend's promoted solve."""

        vb, single = self._reshape_vec(v)
        sol = get_backend().solve(self.blocks, vb, out_dtype=self.dtype)
        sol = sol.reshape(self.num_blocks * self.block_size, -1)
        return sol[:, 0] if single else sol

    def inverse(self) -> "BlockDiagonalMatrix":
        """Return the block-wise inverse ``A^{-1}``.

        This is the batched ``linalg.inv`` call in Line 5 of Algorithm 2 and
        Lines 4/11 of Algorithm 3.  The inverse is computed in float64 (the
        backend's compute dtype) and cast back to the storage dtype for
        robustness in single precision.
        """

        inv = get_backend().inv(self.blocks, out_dtype=self.dtype)
        return BlockDiagonalMatrix(inv, copy=False)

    def cholesky(self) -> "BlockDiagonalMatrix":
        """Return the block-wise lower Cholesky factor (requires SPD blocks)."""

        chol = get_backend().cholesky(self.blocks, out_dtype=self.dtype)
        return BlockDiagonalMatrix(chol, copy=False)

    def sqrt(self) -> "BlockDiagonalMatrix":
        """Return the symmetric positive-definite square root ``A^{1/2}``.

        Needed for the similarity transform of Eq. (8): the ROUND step works
        with ``Sigma_*^{1/2} A_t Sigma_*^{1/2}``.
        """

        backend = get_backend()
        xp = backend.xp
        w, V = backend.eigh(self.blocks)
        require(bool(xp.all(w > -1e-10)), "matrix must be PSD for sqrt")
        w = xp.clip(w, 0.0, None)
        sqrt_blocks = backend.einsum("kij,kj,klj->kil", V, xp.sqrt(w), V)
        return BlockDiagonalMatrix(backend.demote(sqrt_blocks, self.dtype), copy=False)

    # ------------------------------------------------------------------ #
    # spectra / scalar reductions
    # ------------------------------------------------------------------ #
    def eigenvalues(self) -> Array:
        """Eigenvalues of every block, shape ``(c, d)`` (ascending per block).

        Mirrors the batched ``cupy.linalg.eigvalsh`` call of Line 9 in
        Algorithm 3.
        """

        backend = get_backend()
        sym = 0.5 * (self.blocks + backend.transpose_last(self.blocks))
        return backend.eigvalsh(sym)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue over all blocks (used by the η selection rule)."""

        return float(self.eigenvalues().min())

    def trace(self) -> float:
        """Trace of the full matrix (sum of block traces)."""

        backend = get_backend()
        return float(backend.einsum("kii->", backend.ascompute(self.blocks)))

    def apply_points(self, X: Array, *, out: Optional[Array] = None) -> Array:
        """Batched contraction ``U[k, i] = A_k x_i`` for a batch of points.

        Parameters
        ----------
        X:
            Array of shape ``(n, d)`` in the compute dtype (callers promote;
            mixed-dtype ``matmul`` is rejected by some backends).
        out:
            Optional ``(c, n, d)`` output buffer (workspace reuse).

        Returns
        -------
        Array of shape ``(c, n, d)`` with ``[k, i] = A_k @ x_i``.

        This is the shared ``O(n c d^2)`` contraction of the fused ROUND
        scoring kernel (Prop. 4 / Eq. 17): both the Sherman–Morrison
        denominator and the ``Sigma_*`` numerator derive from one evaluation.
        Implemented as a broadcast batched ``matmul`` — one BLAS GEMM per
        class block — rather than an einsum, which array libraries without
        batched-contraction-aware einsum paths execute on slow non-BLAS
        kernels.
        """

        backend = get_backend()
        xp = backend.xp
        X = xp.asarray(X)
        require(X.ndim == 2 and X.shape[1] == self.block_size, "X must have shape (n, d)")
        # U[k, i, d] = sum_e A[k, d, e] X[i, e]  ==  X @ A_k^T, batched over k.
        at = backend.transpose_last(self.blocks)
        if out is not None:
            return xp.matmul(X[None, :, :], at, out=out)
        return xp.matmul(X[None, :, :], at)

    def quadratic_form(self, X: Array) -> Array:
        """Batched quadratic forms ``x_i^T A_k x_i`` for every point and block.

        Parameters
        ----------
        X:
            Array of shape ``(n, d)``.

        Returns
        -------
        Array of shape ``(n, c)`` with entry ``[i, k] = x_i^T A_k x_i``.
        This is the core einsum of the ROUND objective (Eq. 17).
        """

        backend = get_backend()
        X = backend.xp.asarray(X)
        require(X.ndim == 2 and X.shape[1] == self.block_size, "X must have shape (n, d)")
        # (n, c, d) intermediate avoided: contract in one einsum call
        return backend.einsum("nd,kde,ne->nk", X, self.blocks, X, optimize=True)

    def bilinear_form(self, X: Array, other: "BlockDiagonalMatrix") -> Array:
        """Batched forms ``x_i^T A_k M_k A_k x_i`` with ``M = other``.

        The ROUND objective of Proposition 4 needs
        ``x^T B_t^{-1} Sigma_*^{-1} B_t^{-1} x`` which is exactly this pattern
        with ``A = B_t^{-1}`` and ``M = Sigma_*^{-1}``.
        """

        self._check_compatible(other)
        backend = get_backend()
        X = backend.xp.asarray(X)
        require(X.ndim == 2 and X.shape[1] == self.block_size, "X must have shape (n, d)")
        # y_{n,k,d} = A_k x_n; result = y^T M y
        Y = backend.einsum("kde,ne->nkd", self.blocks, X, optimize=True)
        return backend.einsum("nkd,kde,nke->nk", Y, other.blocks, Y, optimize=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockDiagonalMatrix(num_blocks={self.num_blocks}, "
            f"block_size={self.block_size}, dtype={self.dtype})"
        )
