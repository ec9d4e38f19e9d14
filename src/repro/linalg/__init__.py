"""Numerical linear-algebra substrate used by Exact- and Approx-FIRAL.

This package contains the building blocks § III of the paper introduces to
make FIRAL scalable:

* :mod:`repro.linalg.block_diag` — the block-diagonal matrix type behind the
  CG preconditioner (Definition 1 / Eq. 14) and the whole diagonal ROUND step.
* :mod:`repro.linalg.cg` — matrix-free (preconditioned) conjugate gradients
  with multiple right-hand sides, used in Lines 6 and 8 of Algorithm 2.
* :mod:`repro.linalg.sherman_morrison` — the block-wise rank-one update of
  Lemma 3 powering the ROUND objective of Proposition 4.
* :mod:`repro.linalg.bisection` — the scalar root find for the FTRL constant
  ν (Line 17 of Algorithm 1 / Line 10 of Algorithm 3).
"""

from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.cg import CGResult, conjugate_gradient
from repro.linalg.sherman_morrison import (
    block_rank_one_inverse_update,
    block_rank_one_quadratic_forms,
    fused_round_scores,
)
from repro.linalg.bisection import find_ftrl_nu, bisect_scalar

__all__ = [
    "BlockDiagonalMatrix",
    "CGResult",
    "conjugate_gradient",
    "block_rank_one_inverse_update",
    "block_rank_one_quadratic_forms",
    "fused_round_scores",
    "find_ftrl_nu",
    "bisect_scalar",
]
