"""Fisher-information structure of the multinomial logistic model.

Everything FIRAL does revolves around per-point Fisher information (Hessian)
matrices

    H_i = [diag(h_i) - h_i h_i^T] ⊗ (x_i x_i^T)            (Eq. 2)

and their (weighted) sums ``H_o`` (labeled), ``H_p`` (pool) and ``H_z``
(z-weighted pool) of Eq. 3.  Exact-FIRAL materializes these as dense
``dc x dc`` matrices; Approx-FIRAL only ever touches them through the
matrix-free matvec of Lemma 2 (a :class:`HessianSumOperator`, prepared once
per point set) and their block diagonals (Eq. 14/15).

Vectorization convention: a weight vector ``v in R^{dc}`` corresponds to the
matrix ``V in R^{d x c}`` with ``vec(V) = v`` (column stacking), i.e. the slice
``v[k*d:(k+1)*d]`` is column ``k`` of ``V``.  All modules in the package (and
:class:`repro.linalg.BlockDiagonalMatrix`) share this convention.
"""

from repro.fisher.hessian import (
    point_hessian_dense,
    sum_hessian_dense,
    block_diagonal_of_sum,
    point_block_coefficients,
)
from repro.fisher.matvec import (
    HessianSumOperator,
    PreparedHessianSum,
    hessian_sum_matvec,
    single_point_hessian_matvec,
    probe_hessian_quadratic_forms,
)
from repro.fisher.operators import FisherDataset, SigmaOperator
from repro.fisher.objective import fisher_ratio_objective

__all__ = [
    "point_hessian_dense",
    "sum_hessian_dense",
    "block_diagonal_of_sum",
    "point_block_coefficients",
    "HessianSumOperator",
    "PreparedHessianSum",
    "hessian_sum_matvec",
    "single_point_hessian_matvec",
    "probe_hessian_quadratic_forms",
    "FisherDataset",
    "SigmaOperator",
    "fisher_ratio_objective",
]
