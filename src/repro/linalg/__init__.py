"""Numerical linear-algebra substrate used by Exact- and Approx-FIRAL.

This package contains the building blocks § III of the paper introduces to
make FIRAL scalable:

* :mod:`repro.linalg.block_diag` — the block-diagonal matrix type behind the
  CG preconditioner (Definition 1 / Eq. 14) and the whole diagonal ROUND step.
* :mod:`repro.linalg.cg` — matrix-free (preconditioned) conjugate gradients
  with multiple right-hand sides, used in Lines 6 and 8 of Algorithm 2.
* :mod:`repro.linalg.sherman_morrison` — Proposition 4's closed-form ROUND
  score, derived with Lemma 3's block-wise Sherman–Morrison identity.  ROUND
  inverts ``B_{t+1}`` in one batch, so no rank-one inverse update ships.
* :mod:`repro.linalg.bisection` — Newton's method for the FTRL constant ν
  (Line 17 of Algorithm 1 / Line 10 of Algorithm 3).
"""

from repro.linalg.block_diag import BlockDiagonalMatrix
from repro.linalg.cg import CGResult, conjugate_gradient
from repro.linalg.sherman_morrison import fused_round_scores
from repro.linalg.bisection import find_ftrl_nu

__all__ = [
    "BlockDiagonalMatrix",
    "CGResult",
    "conjugate_gradient",
    "fused_round_scores",
    "find_ftrl_nu",
]
