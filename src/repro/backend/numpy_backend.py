"""The default NumPy backend (the paper's CPU fallback path).

``xp`` is NumPy itself, so every algorithm routed through the dispatch layer
executes bit-for-bit the operations a direct ``import numpy`` implementation
would — the regression tests pin FIRAL's selected indices against the
pre-dispatch implementation to guarantee it.
"""

from __future__ import annotations

import numpy as np

from repro.backend.base import Array, ArrayBackend

try:  # SciPy's LAPACK wrapper: the generalized eigensolver the seed used.
    from scipy.linalg import get_lapack_funcs

    # dsygvd, the driver of scipy.linalg.eigh(a, b, eigvals_only=True).
    _sygvd = get_lapack_funcs("sygvd", dtype=np.float64)
except ImportError:  # pragma: no cover - scipy ships with the toolchain
    _sygvd = None

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

    def eigh_generalized(self, a: Array, b: Array) -> np.ndarray:
        a64 = self.ascompute(a)
        b64 = self.ascompute(b)
        if _sygvd is None:  # pragma: no cover - exercised only without scipy
            return super().eigh_generalized(a64, b64)
        if not (np.isfinite(a64).all() and np.isfinite(b64).all()):
            raise ValueError("array must not contain infs or NaNs")
        size = a64.shape[-1]
        flat_a = a64.reshape(-1, size, size)
        flat_b = b64.reshape(-1, size, size)
        out = np.empty(flat_a.shape[:2], dtype=np.float64)
        for k in range(flat_a.shape[0]):
            # The call scipy.linalg.eigh(a, b, eigvals_only=True) makes, without
            # its per-call argument parsing and driver lookup.
            w, _, info = _sygvd(flat_a[k], flat_b[k], itype=1, jobz="N", uplo="L")
            if info != 0:
                raise np.linalg.LinAlgError(
                    f"generalized eigensolve of block {k} failed (LAPACK sygvd info={info}); "
                    "b must be symmetric positive definite"
                )
            out[k] = w
        return out.reshape(a64.shape[:-1])
