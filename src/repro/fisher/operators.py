"""Operator-level view of the Fisher information used by the solvers.

:class:`FisherDataset` bundles the quantities every FIRAL variant consumes —
pool features/probabilities and initially-labeled features/probabilities —
and exposes both dense (Exact-FIRAL) and matrix-free (Approx-FIRAL) views of
``H_o``, ``H_p`` and ``Sigma_z = H_o + H_z``.  :class:`SigmaOperator` holds
the rows one rank's ``Sigma_z`` partial runs over: its pool rows and the
labeled rows it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.backend import COMPUTE_DTYPE, Array, get_backend
from repro.fisher.hessian import sum_hessian_dense, weighted_block_diagonal
from repro.fisher.matvec import HessianSumOperator, PreparedHessianSum
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.utils.validation import check_features, check_probabilities, require

__all__ = ["FisherDataset", "SigmaOperator"]


@dataclass(frozen=True)
class FisherDataset:
    """Pool + labeled-point Fisher data for one active-learning round.

    The dataset is frozen: its arrays are validated once, when it is built,
    and ``B(H_o)`` is assembled from them on first use and kept.  The
    Lemma-2 rows of ``Sigma_z`` are a :class:`SigmaOperator`, built by each
    RELAX solve and dropped with it.  Treat the arrays as read-only.

    Attributes
    ----------
    pool_features:
        ``X_u`` of shape ``(n, d)`` — candidate points for selection.
    pool_probabilities:
        ``h_i`` for every pool point, shape ``(n, c)``, produced by the
        current classifier.
    labeled_features:
        ``X_o`` of shape ``(m, d)`` — the already-labeled points.
    labeled_probabilities:
        ``h_i`` for the labeled points, shape ``(m, c)``.
    """

    pool_features: Array
    pool_probabilities: Array
    labeled_features: Array
    labeled_probabilities: Array

    def __post_init__(self) -> None:
        validated = {
            "pool_features": check_features(self.pool_features, "pool_features"),
            "pool_probabilities": check_probabilities(
                self.pool_probabilities, name="pool_probabilities"
            ),
            "labeled_features": check_features(self.labeled_features, "labeled_features"),
            "labeled_probabilities": check_probabilities(
                self.labeled_probabilities, name="labeled_probabilities"
            ),
        }
        for name, value in validated.items():
            object.__setattr__(self, name, value)
        require(
            self.pool_features.shape[0] == self.pool_probabilities.shape[0],
            "pool features and probabilities must describe the same points",
        )
        require(
            self.labeled_features.shape[0] == self.labeled_probabilities.shape[0],
            "labeled features and probabilities must describe the same points",
        )
        require(
            self.pool_features.shape[1] == self.labeled_features.shape[1],
            "pool and labeled points must share the feature dimension",
        )
        require(
            self.pool_probabilities.shape[1] == self.labeled_probabilities.shape[1],
            "pool and labeled probabilities must share the class dimension",
        )

    # ------------------------------------------------------------------ #
    # sizes
    # ------------------------------------------------------------------ #
    @property
    def num_pool(self) -> int:
        return int(self.pool_features.shape[0])

    @property
    def num_labeled(self) -> int:
        return int(self.labeled_features.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.pool_features.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.pool_probabilities.shape[1])

    @property
    def joint_dimension(self) -> int:
        """The ``dc`` dimension of the vectorized weight space."""

        return self.dimension * self.num_classes

    # ------------------------------------------------------------------ #
    # block diagonals
    # ------------------------------------------------------------------ #
    @cached_property
    def _labeled_blocks(self) -> BlockDiagonalMatrix:
        return weighted_block_diagonal(self.labeled_features, self.labeled_probabilities)

    def labeled_block_diagonal(self) -> BlockDiagonalMatrix:
        """``B(H_o)``, assembled once (Eq. 14).

        The same object on every call; callers must not mutate it.
        """

        return self._labeled_blocks

    def pool_block_diagonal(self, weights: Optional[Array] = None) -> BlockDiagonalMatrix:
        """``B(H_p)`` or ``B(H_z)`` assembled directly."""

        return weighted_block_diagonal(self.pool_features, self.pool_probabilities, weights)

    def sigma_block_diagonal(self, z: Array) -> BlockDiagonalMatrix:
        """``B(Sigma_z)`` — the CG preconditioner of Algorithm 2 (Line 5)."""

        return self.labeled_block_diagonal() + self.pool_block_diagonal(weights=z)

    # ------------------------------------------------------------------ #
    # dense views (Exact-FIRAL / tests only)
    # ------------------------------------------------------------------ #
    def labeled_hessian_dense(self) -> Array:
        """Dense ``H_o`` (``dc x dc``)."""

        return sum_hessian_dense(self.labeled_features, self.labeled_probabilities)

    def pool_hessian_dense(self, weights: Optional[Array] = None) -> Array:
        """Dense ``H_p`` / ``H_z``."""

        return sum_hessian_dense(self.pool_features, self.pool_probabilities, weights=weights)

    def sigma_dense(self, z: Array) -> Array:
        """Dense ``Sigma_z``."""

        return self.labeled_hessian_dense() + self.pool_hessian_dense(weights=z)


class SigmaOperator:
    """The Lemma-2 rows of one rank's ``Sigma_z`` partial (§ III-C).

    Its rows are ``dataset``'s pool rows followed by the labeled rows in
    ``labeled_rows``, so one kernel pass gives ``H_z V`` plus those rows'
    part of ``H_o V``.  The default is every labeled row, the whole
    ``Sigma_z``; RELAX gives each rank its ``block_partition`` share, so the
    partials summed over ranks count every labeled row once.  A share may
    be empty.

    The rows are copied once into one compute-dtype array pair of
    ``(n_r + m_r) (d + c)`` values, held as long as the operator is.
    :attr:`pool` is the operator over the first ``n_r`` of those rows
    (views): ``H_p`` (Line 7 of Algorithm 2) and the Line-9 gradient.
    """

    def __init__(self, dataset: FisherDataset, labeled_rows: slice = slice(None)):
        backend = get_backend()
        labeled_features = dataset.labeled_features[labeled_rows]
        n = dataset.num_pool
        rows = n + int(labeled_features.shape[0])
        X = backend.empty((rows, dataset.dimension), dtype=COMPUTE_DTYPE)
        H = backend.empty((rows, dataset.num_classes), dtype=COMPUTE_DTYPE)
        X[:n] = dataset.pool_features
        X[n:] = labeled_features
        H[:n] = dataset.pool_probabilities
        H[n:] = dataset.labeled_probabilities[labeled_rows]
        self.rows = HessianSumOperator(X, H)
        self.pool = HessianSumOperator(X[:n], H[:n])
        self._labeled_weights = backend.ones((rows - n,), dtype=COMPUTE_DTYPE)

    def prepare(self, z: Array) -> PreparedHessianSum:
        """``V -> H_z V + (the labeled rows' part of H_o) V``, for the pool weights ``z``.

        ``z`` weights the pool rows and the labeled rows keep weight one; the
        weights are folded in once, for every apply of the result.
        """

        backend = get_backend()
        weights = backend.xp.concatenate([backend.ascompute(z).ravel(), self._labeled_weights])
        return self.rows.prepare(weights)
