"""Shared warm-start initialization for the RELAX mirror-descent solvers.

Both :func:`repro.core.approx_relax.approx_relax` and
:func:`repro.core.exact_relax.exact_relax` (and the distributed
:func:`repro.parallel.distributed_relax.distributed_relax`) accept an
optional ``initial_weights`` vector; the selectors and the session engine
never pass one, so every round starts from the uniform point.  The
projection onto the simplex with a strictly positive floor lives here so
the solvers cannot drift apart.
"""

from __future__ import annotations

from typing import Optional

from repro.backend import Array, COMPUTE_DTYPE, get_backend
from repro.utils.validation import require

__all__ = ["initial_simplex_iterate"]


def initial_simplex_iterate(n: int, initial_weights: Optional[Array] = None) -> Array:
    """The mirror-descent starting point ``z_0`` on the ``n``-simplex.

    ``None`` gives the uniform distribution (the algorithms' prescription).
    Otherwise ``initial_weights`` is validated (shape ``(n,)``, non-negative,
    positive mass) and renormalized, with every coordinate clipped strictly
    positive: exponentiated-gradient updates can never revive an exact zero,
    which would permanently exclude the point from selection.
    """

    backend = get_backend()
    if initial_weights is None:
        return backend.full((n,), 1.0 / n, dtype=COMPUTE_DTYPE)
    xp = backend.xp
    z = backend.ascompute(initial_weights).ravel()
    require(tuple(z.shape) == (n,), "initial_weights must have one weight per pool point")
    require(bool(xp.all(z >= 0.0)), "initial_weights must be non-negative")
    total = float(z.sum())
    require(total > 0.0, "initial_weights must have positive mass")
    z = xp.clip(z / total, 1e-12 / n, None)
    return z / z.sum()
