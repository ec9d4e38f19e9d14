"""Operator-level view of the Fisher information used by the solvers.

:class:`FisherDataset` bundles the quantities every FIRAL variant consumes —
pool features/probabilities and initially-labeled features/probabilities —
and exposes both dense (Exact-FIRAL) and matrix-free (Approx-FIRAL) views of
``H_o``, ``H_p`` and ``Sigma_z = H_o + H_z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.backend import Array
from repro.fisher.hessian import block_diagonal_of_sum, sum_hessian_dense
from repro.fisher.matvec import hessian_sum_matvec
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.utils.validation import check_features, check_probabilities, require

__all__ = ["FisherDataset"]


@dataclass
class FisherDataset:
    """Pool + labeled-point Fisher data for one active-learning round.

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
    labeled_block_cache:
        Optional precomputed ``B(H_o)``.  The labeled-Fisher block diagonal
        is constant within a round (the classifier is fixed while a batch is
        selected), so a caller that already holds it — the session engine's
        :class:`~repro.fisher.LabeledFisherAccumulator`, or a per-round cache
        — can thread it in and every preconditioner refresh / ROUND
        precompute skips the ``O(m c d^2)`` reassembly.  Must equal
        ``block_diagonal_of_sum(labeled_features, labeled_probabilities)``
        for the stored probabilities; callers must not mutate it.
    """

    pool_features: Array
    pool_probabilities: Array
    labeled_features: Array
    labeled_probabilities: Array
    labeled_block_cache: Optional[BlockDiagonalMatrix] = None

    def __post_init__(self) -> None:
        self.pool_features = check_features(self.pool_features, "pool_features")
        self.pool_probabilities = check_probabilities(self.pool_probabilities, name="pool_probabilities")
        self.labeled_features = check_features(self.labeled_features, "labeled_features")
        self.labeled_probabilities = check_probabilities(
            self.labeled_probabilities, name="labeled_probabilities"
        )
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
    # matrix-free matvecs
    # ------------------------------------------------------------------ #
    def labeled_hessian_matvec(self, V: Array) -> Array:
        """``H_o V`` via Lemma 2."""

        return hessian_sum_matvec(self.labeled_features, self.labeled_probabilities, V)

    def pool_hessian_matvec(self, V: Array, weights: Optional[Array] = None) -> Array:
        """``H_p V`` (``weights=None``) or ``H_z V`` (``weights=z``) via Lemma 2."""

        return hessian_sum_matvec(self.pool_features, self.pool_probabilities, V, weights=weights)

    def sigma_matvec(self, V: Array, z: Array) -> Array:
        """``Sigma_z V = H_o V + H_z V``."""

        return self.labeled_hessian_matvec(V) + self.pool_hessian_matvec(V, weights=z)

    # ------------------------------------------------------------------ #
    # block diagonals
    # ------------------------------------------------------------------ #
    def labeled_block_diagonal(self) -> BlockDiagonalMatrix:
        """``B(H_o)`` assembled directly (Eq. 14), or the threaded-in cache."""

        if self.labeled_block_cache is not None:
            return self.labeled_block_cache
        return block_diagonal_of_sum(self.labeled_features, self.labeled_probabilities)

    def pool_block_diagonal(self, weights: Optional[Array] = None) -> BlockDiagonalMatrix:
        """``B(H_p)`` or ``B(H_z)`` assembled directly."""

        return block_diagonal_of_sum(self.pool_features, self.pool_probabilities, weights=weights)

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
