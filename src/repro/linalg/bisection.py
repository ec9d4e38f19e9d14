"""Scalar root finding for the FTRL normalization constant ν.

The Follow-The-Regularized-Leader matrix of the ROUND step (Eq. 10) is
``A_t = nu_t I + eta * H_{t-1}`` where ``nu_t`` is the unique constant such
that ``Trace(A_t^{-2}) = 1``.  Given the eigenvalues ``lambda_j`` of
``eta * H_{t-1}`` this reduces to the monotone scalar equation

    phi(nu) = sum_j (nu + lambda_j)^{-2} = 1,   nu > -min_j lambda_j.

Both Exact-FIRAL (Line 17 of Algorithm 1) and Approx-FIRAL (Line 10 of
Algorithm 3, using the block-diagonal eigenvalues) solve it with
:func:`find_ftrl_nu`: Newton's method on ``phi(nu)^{-1/2}``, which needs no
bracket.
"""

from __future__ import annotations

import sys

from repro.backend import Array, get_backend
from repro.utils.validation import require

__all__ = ["find_ftrl_nu"]

#: Newton steps before :func:`find_ftrl_nu` gives up.  Random spectra of
#: 1 to 1e4 eigenvalues up to 1e12 took at most 7.
MAX_NEWTON_STEPS = 100

#: The iteration ends at the first step below this many units in the last
#: place of ``nu + min_j lambda_j``.
STOP_ULPS = 4.0


def find_ftrl_nu(eigenvalues: Array) -> float:
    """Solve ``sum_j (nu + lambda_j)^{-2} = 1`` for ν by Newton's method.

    The iteration runs on ``psi(nu) = phi(nu)^{-1/2}`` from
    ``nu_0 = 1 - min_j lambda_j``, where ``phi(nu_0) >= 1``::

        nu <- nu + (phi^{3/2} - phi) / sum_j (nu + lambda_j)^{-3}

    ``psi`` is concave and increasing on ``nu > -min_j lambda_j`` (Moré and
    Sorensen's observation for the trust-region secular equation), so each
    step lands at or below the root and the iterates increase to it.  They
    are carried as
    ``s = nu + min_j lambda_j``, which starts at 1 and ends in
    ``[1, sqrt(m)]`` (every ``nu + lambda_j`` is at least 1 at the root), so
    a large ``min_j lambda_j`` costs ν no digits before the last
    subtraction.  The loop stops at the first step below a few units in the
    last place of ``s``, a step that rounding makes non-positive included.
    One path covers a root above zero and the negative-shift regime of large
    eigenvalues, where the root lies in ``(-min_j lambda_j, 0)``.

    Parameters
    ----------
    eigenvalues:
        Eigenvalues of ``eta * H_{t-1}`` (any shape; flattened).  They must be
        non-negative up to round-off since ``H`` is a sum of PSD Fisher
        blocks.

    Returns
    -------
    float
        The unique ν making ``Trace((nu I + eta H)^{-2}) = 1``.  For the first
        round with ``H = 0`` and ``m`` eigenvalues this returns ``sqrt(m)``,
        matching the paper's initialization ``A_1 = sqrt(dc) I``.

    Raises
    ------
    RuntimeError
        If :data:`MAX_NEWTON_STEPS` steps do not converge.
    """

    backend = get_backend()
    xp = backend.xp
    lam = backend.ascompute(eigenvalues).ravel()
    require(int(lam.shape[0]) > 0, "eigenvalues must be non-empty")
    # Clip tiny negative eigenvalues coming from finite-precision eigensolves.
    # The tolerance is relative to the spectral scale: PSD matrices scaled by a
    # large eta produce round-off of the order eps * lam.max().
    lam_min = float(lam.min())
    require(
        lam_min > -1e-7 * max(1.0, float(lam.max()), -lam_min),
        "eigenvalues must be non-negative (PSD matrix expected)",
    )
    lam_min = max(lam_min, 0.0)
    gaps = xp.clip(lam, 0.0, None) - lam_min
    s = 1.0
    for _ in range(MAX_NEWTON_STEPS):
        inverse = 1.0 / (s + gaps)
        phi = float(inverse @ inverse)
        step = (phi**1.5 - phi) / float((inverse * inverse) @ inverse)
        s += step
        if step <= STOP_ULPS * sys.float_info.epsilon * s:
            return s - lam_min
    raise RuntimeError(f"find_ftrl_nu did not converge in {MAX_NEWTON_STEPS} Newton steps")
