"""Operator-level view of the Fisher information used by the solvers.

:class:`FisherDataset` bundles the quantities every FIRAL variant consumes —
pool features/probabilities and initially-labeled features/probabilities —
and exposes both dense (Exact-FIRAL) and matrix-free (Approx-FIRAL) views of
``H_o``, ``H_p`` and ``Sigma_z = H_o + H_z``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.backend import Array
from repro.fisher.hessian import sum_hessian_dense, weighted_block_diagonal
from repro.fisher.matvec import HessianSumOperator
from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.utils.validation import check_features, check_probabilities, require

__all__ = ["FisherDataset"]


@dataclass(frozen=True)
class FisherDataset:
    """Pool + labeled-point Fisher data for one active-learning round.

    The dataset is frozen: its arrays are validated once, when it is built,
    and the solvers' kernels are prepared from them on first use and kept —
    the Lemma-2 operators :attr:`pool_operator` and :attr:`labeled_operator`,
    and ``B(H_o)``.  A strategy that never runs a matvec (Exact-FIRAL, the
    prefilters) never builds them.  Treat the arrays as read-only: a
    prepared operator holds them (or their compute-dtype copies).

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
    # matrix-free matvecs
    # ------------------------------------------------------------------ #
    @cached_property
    def pool_operator(self) -> HessianSumOperator:
        """Lemma 2 over the pool (``H_p``, ``H_z``), prepared on first use."""

        return HessianSumOperator(self.pool_features, self.pool_probabilities)

    @cached_property
    def labeled_operator(self) -> HessianSumOperator:
        """Lemma 2 over the labeled set (``H_o``), prepared on first use."""

        return HessianSumOperator(self.labeled_features, self.labeled_probabilities)

    def labeled_hessian_matvec(self, V: Array) -> Array:
        """``H_o V`` via Lemma 2."""

        return self.labeled_operator.matvec(V)

    def pool_hessian_matvec(self, V: Array, weights: Optional[Array] = None) -> Array:
        """``H_p V`` (``weights=None``) or ``H_z V`` (``weights=z``) via Lemma 2."""

        return self.pool_operator.matvec(V, weights)

    def sigma_matvec(self, V: Array, z: Array) -> Array:
        """``Sigma_z V = H_o V + H_z V``."""

        return self.labeled_hessian_matvec(V) + self.pool_hessian_matvec(V, weights=z)

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
