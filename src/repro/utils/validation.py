"""Input validation helpers shared across the library.

These checks fail fast with actionable messages instead of letting shape
mismatches surface as cryptic einsum errors deep inside the RELAX/ROUND
solvers.  They are deliberately cheap (O(1) or O(n)) so they can stay enabled
in production runs.

All helpers are backend-aware: inputs are converted with the *active* array
backend's ``asarray`` and returned as backend arrays, so a torch tensor
flowing through ``check_features`` stays a torch tensor instead of being
silently copied to the host.  Dtype introspection goes through the backend's
``is_floating``/``is_integer`` hooks, so no direct :mod:`numpy` import is
needed here either.
"""

from __future__ import annotations

import math
import numbers
from typing import Optional

from repro.backend import Array, get_backend

__all__ = [
    "require",
    "check_features",
    "check_labels",
    "check_probabilities",
    "check_square_blocks",
    "check_positive_int",
    "check_positive_real",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""

    if not condition:
        raise ValueError(message)


def check_positive_int(value, name: str) -> int:
    """Return a count argument as an ``int``, rejecting anything but a positive integer.

    NumPy integers are accepted; ``bool``, floats and strings are not, so a
    count of ``1.5``, ``True`` or ``"2"`` fails here instead of being
    truncated by a later ``int()``.
    """

    require(
        isinstance(value, numbers.Integral) and not isinstance(value, bool),
        f"{name} must be an integer (got {value!r})",
    )
    require(value > 0, f"{name} must be positive (got {value!r})")
    return int(value)


def check_positive_real(value, name: str) -> float:
    """Return a rate argument as a ``float``, rejecting anything but a finite positive real.

    NumPy floats and integers are accepted; ``bool`` and strings are not, so
    ``True`` does not run as ``1.0`` and ``"1"`` fails here with the
    argument's name, and neither do NaN or an infinity, which would
    otherwise fail only deep inside a solver.
    """

    require(
        isinstance(value, numbers.Real) and not isinstance(value, bool),
        f"{name} must be a real number (got {value!r})",
    )
    require(
        math.isfinite(value) and value > 0,
        f"{name} must be finite and positive (got {value!r})",
    )
    return float(value)


def check_features(X, name: str = "X") -> Array:
    """Validate a feature matrix of shape ``(n, d)`` and return it as a backend array."""

    backend = get_backend()
    xp = backend.xp
    arr = xp.asarray(X)
    require(arr.ndim == 2, f"{name} must be 2-D (n, d); got shape {tuple(arr.shape)}")
    require(arr.shape[0] > 0, f"{name} must contain at least one point")
    require(arr.shape[1] > 0, f"{name} must have at least one feature")
    require(backend.is_floating(arr), f"{name} must be floating point")
    require(bool(xp.all(xp.isfinite(arr))), f"{name} contains NaN or Inf values")
    return arr


def check_labels(y, num_classes: Optional[int] = None, name: str = "y") -> Array:
    """Validate an integer label vector with classes in ``[0, num_classes)``."""

    backend = get_backend()
    arr = backend.xp.asarray(y)
    require(arr.ndim == 1, f"{name} must be 1-D; got shape {tuple(arr.shape)}")
    require(
        backend.is_integer(arr),
        f"{name} must contain integer class indices; got dtype {arr.dtype}",
    )
    require(int(arr.shape[0]) > 0, f"{name} must contain at least one label")
    require(int(arr.min()) >= 0, f"{name} contains negative class indices")
    if num_classes is not None:
        require(
            int(arr.max()) < num_classes,
            f"{name} contains class index {int(arr.max())} >= num_classes={num_classes}",
        )
    return arr


def check_probabilities(H, num_classes: Optional[int] = None, name: str = "h") -> Array:
    """Validate an ``(n, c)`` matrix of class probabilities.

    Rows must be (numerically) *sub*-stochastic: non-negative entries summing
    to at most 1.  Both parameterizations of the multinomial model are
    therefore accepted — the full ``c``-column simplex and the reduced
    ``c - 1``-column form of the paper's Eq. 1 (where the last class's
    probability is implicit).  The Fisher information structure (Eq. 2) is
    positive semidefinite exactly under this condition, so this is a
    correctness guard and not just hygiene.
    """

    xp = get_backend().xp
    arr = xp.asarray(H)
    require(arr.ndim == 2, f"{name} must be 2-D (n, c); got shape {tuple(arr.shape)}")
    if num_classes is not None:
        require(
            arr.shape[1] == num_classes,
            f"{name} must have {num_classes} columns; got {arr.shape[1]}",
        )
    require(bool(xp.all(xp.isfinite(arr))), f"{name} contains NaN or Inf values")
    require(bool(xp.all(arr >= -1e-6)), f"{name} contains negative probabilities")
    row_sums = xp.sum(arr, axis=1)
    require(
        bool(xp.all(row_sums <= 1.0 + 1e-3)),
        f"rows of {name} must sum to at most 1 (max sum {float(row_sums.max()):.4f})",
    )
    require(bool(xp.all(row_sums > 0.0)), f"rows of {name} must not be all zero")
    return arr


def check_square_blocks(blocks, name: str = "blocks") -> Array:
    """Validate a stack of square matrices with shape ``(c, d, d)``."""

    xp = get_backend().xp
    arr = xp.asarray(blocks)
    require(arr.ndim == 3, f"{name} must be 3-D (c, d, d); got shape {tuple(arr.shape)}")
    require(
        arr.shape[1] == arr.shape[2],
        f"{name} blocks must be square; got shape {tuple(arr.shape)}",
    )
    require(bool(xp.all(xp.isfinite(arr))), f"{name} contains NaN or Inf values")
    return arr
