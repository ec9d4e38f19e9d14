"""The Fisher Information Ratio objective ``f(z)`` (Eq. 4/5).

FIRAL selects points by (approximately) minimizing

    f(z) = Trace[(H_o + H_z)^{-1} H_p]

over the scaled simplex ``{z >= 0, sum z = b}`` (RELAX) and then over binary
``z`` (ROUND).  The exact evaluation below is used by Exact-FIRAL and by the
Fig. 4 sensitivity study, which tracks ``f`` across mirror-descent iterations.
"""

from __future__ import annotations

from repro.backend import Array, get_backend
from repro.fisher.operators import FisherDataset
from repro.utils.validation import require

__all__ = ["fisher_ratio_objective"]


def fisher_ratio_objective(
    dataset: FisherDataset,
    z: Array,
    *,
    regularization: float = 0.0,
) -> float:
    """Exact ``f(z) = Trace(Sigma_z^{-1} H_p)`` via dense linear algebra.

    Cost is ``O((dc)^3)`` — only feasible for the modest ``d``/``c`` of the
    accuracy experiments, exactly as in the paper (Exact-FIRAL is not run on
    Caltech-101 or ImageNet-1k).
    """

    backend = get_backend()
    xp = backend.xp
    z = backend.ascompute(z).ravel()
    require(tuple(z.shape) == (dataset.num_pool,), "z must have one weight per pool point")
    sigma = dataset.sigma_dense(z)
    if regularization > 0.0:
        sigma = sigma + regularization * backend.eye(int(sigma.shape[0]), dtype=sigma.dtype)
    pool = dataset.pool_hessian_dense()
    solved = backend.solve(sigma, pool)
    return float(xp.trace(solved))

