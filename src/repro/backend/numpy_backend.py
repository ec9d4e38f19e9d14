"""The default NumPy backend (the paper's CPU fallback path).

``xp`` is NumPy itself, so every algorithm routed through the dispatch layer
executes bit-for-bit the operations a direct ``import numpy`` implementation
would — the regression tests pin FIRAL's selected indices against the
pre-dispatch implementation to guarantee it.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Array, ArrayBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Array backend backed by NumPy (always available; the default)."""

    name = "numpy"
    xp = np

    # ------------------------------------------------------------------ #
    def native_dtype(self, dtype):
        return np.dtype(dtype)

    def asarray(self, a, dtype=None) -> np.ndarray:
        return np.asarray(a, dtype=None if dtype is None else np.dtype(dtype))

    def astype(self, a: Array, dtype) -> np.ndarray:
        return np.asarray(a).astype(np.dtype(dtype), copy=False)

    def copy(self, a: Array) -> np.ndarray:
        return np.array(a, copy=True)

    def to_numpy(self, a: Array) -> np.ndarray:
        return np.asarray(a)

    def from_host(self, a: np.ndarray, dtype=None) -> np.ndarray:
        return self.asarray(a, dtype=dtype)

    def is_floating(self, a: Array) -> bool:
        return bool(np.issubdtype(np.asarray(a).dtype, np.floating))

    def is_integer(self, a: Array) -> bool:
        return bool(np.issubdtype(np.asarray(a).dtype, np.integer))

    def nbytes(self, a: Array) -> int:
        return int(np.asarray(a).nbytes)

    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands, optimize: bool = False) -> np.ndarray:
        return np.einsum(subscripts, *operands, optimize=optimize)
