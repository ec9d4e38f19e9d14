"""The :class:`ArrayBackend` protocol and the library-wide dtype policy.

The paper's implementation targets CuPy on NVIDIA A100 GPUs with a NumPy
fallback for CPUs: an array module is selected once and every kernel routes
through it (§ III-C).  This module generalizes that pattern into an explicit
backend object exposing

* ``xp`` — a NumPy-compatible namespace (NumPy itself, or a shim over
  another array library such as PyTorch) used for elementwise math, einsum
  contractions and array construction in the hot paths, and
* a small set of *policy-carrying* operations — promoted linear algebra
  (``solve``/``inv``/``cholesky``/``eigh``/…), the RNG bridge, and host/device
  conversion — whose semantics the algorithms rely on but whose
  implementation differs per array library.

Dtype policy
------------
The paper uses single-precision (float32) storage throughout (§ III-C) while
numerically delicate computations (eigenvalue solves, small dense inverses,
the CG iteration) promote to float64 internally and cast back.  The policy is
centralized here: :data:`DEFAULT_DTYPE` / :func:`default_dtype` give the
storage dtype, :data:`COMPUTE_DTYPE` the promotion target, and the promoted
linalg methods of :class:`ArrayBackend` apply the promote-compute-demote
cycle so individual solvers never hand-roll ``astype(float64)`` chains.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = [
    "Array",
    "ArrayBackend",
    "COMPUTE_DTYPE",
    "DEFAULT_DTYPE",
    "default_dtype",
]

#: Generic alias for a backend-native array (``numpy.ndarray``,
#: ``torch.Tensor``, …).  Used in annotations across the algorithm layers so
#: they stay import-free of any concrete array library.
Array = Any

#: Floating-point *storage* dtype, the paper's single-precision policy
#: (§ III-C).  Fixed: every session in a process stores float32.
DEFAULT_DTYPE = np.float32

#: Promotion target for numerically delicate computations (eigensolves,
#: dense inverses, CG iterations).  Fixed: every backend must support it.
COMPUTE_DTYPE = np.float64


def default_dtype() -> np.dtype:
    """Return the floating-point storage dtype, :data:`DEFAULT_DTYPE`."""

    return np.dtype(DEFAULT_DTYPE)


class ArrayBackend:
    """Dispatch target for all array math in :mod:`repro`.

    Subclasses provide the namespace ``xp`` plus the conversion hooks; the
    generic methods below implement the dtype-promotion policy and the RNG
    bridge on top of them so concrete backends stay small.

    Two invariants every implementation must preserve:

    1. **Determinism across backends** — all randomness is drawn on the host
       with a ``numpy.random.Generator`` and transferred via
       :meth:`from_host`, so the same seed yields the same probe vectors (and
       therefore the same selections, up to floating-point differences) on
       every backend.
    2. **Promotion policy** — the promoted linalg methods compute in
       :data:`COMPUTE_DTYPE` and cast back only when ``out_dtype`` is given,
       mirroring the paper's float32-storage / float64-solve split.
    """

    #: Registry name ("numpy", "torch", …).
    name: str = "abstract"

    #: NumPy-compatible namespace used by the algorithm layers.
    xp: Any = None

    # ------------------------------------------------------------------ #
    # identity / dtypes
    # ------------------------------------------------------------------ #
    @property
    def device(self) -> str:
        """Device the backend allocates on (informational)."""

        return "cpu"

    @property
    def compute_dtype(self):
        """Backend-native dtype object for :data:`COMPUTE_DTYPE`."""

        return self.native_dtype(COMPUTE_DTYPE)

    def native_dtype(self, dtype):
        """Translate a NumPy-style dtype spec into the backend's dtype."""

        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # conversion hooks (must be overridden)
    # ------------------------------------------------------------------ #
    def asarray(self, a, dtype=None) -> Array:
        """Convert ``a`` to a backend array (no copy when possible)."""

        raise NotImplementedError

    def astype(self, a: Array, dtype) -> Array:
        """Cast ``a`` to ``dtype`` (may return ``a`` if already right)."""

        raise NotImplementedError

    def copy(self, a: Array) -> Array:
        """Return a defensive copy of ``a``."""

        raise NotImplementedError

    def to_numpy(self, a: Array) -> np.ndarray:
        """Move ``a`` to host memory as a ``numpy.ndarray``."""

        raise NotImplementedError

    def from_host(self, a: np.ndarray, dtype=None) -> Array:
        """Transfer a host (NumPy) array into backend-native storage."""

        raise NotImplementedError

    def is_floating(self, a: Array) -> bool:
        """Whether ``a`` holds floating-point values."""

        raise NotImplementedError

    def is_integer(self, a: Array) -> bool:
        """Whether ``a`` holds integer values."""

        raise NotImplementedError

    def nbytes(self, a: Array) -> int:
        """Byte footprint of ``a`` (used by the communication log)."""

        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # allocation (generic over ``xp``)
    # ------------------------------------------------------------------ #
    def _alloc_dtype(self, dtype):
        return self.native_dtype(default_dtype() if dtype is None else dtype)

    def empty(self, shape, dtype=None) -> Array:
        return self.xp.empty(shape, dtype=self._alloc_dtype(dtype))

    def zeros(self, shape, dtype=None) -> Array:
        return self.xp.zeros(shape, dtype=self._alloc_dtype(dtype))

    def ones(self, shape, dtype=None) -> Array:
        return self.xp.ones(shape, dtype=self._alloc_dtype(dtype))

    def full(self, shape, fill_value, dtype=None) -> Array:
        return self.xp.full(shape, fill_value, dtype=self._alloc_dtype(dtype))

    def eye(self, n: int, dtype=None) -> Array:
        return self.xp.eye(n, dtype=self._alloc_dtype(dtype))

    # ------------------------------------------------------------------ #
    # dtype policy application
    # ------------------------------------------------------------------ #
    def ascompute(self, a) -> Array:
        """``asarray`` + promotion to :data:`COMPUTE_DTYPE`.

        The centralized replacement for the ad-hoc
        ``np.asarray(x, dtype=np.float64)`` promotions the hot paths used to
        carry; no copy is made when ``a`` is already a compute-dtype backend
        array.
        """

        return self.asarray(a, dtype=COMPUTE_DTYPE)

    def demote(self, a: Array, dtype) -> Array:
        """Cast a compute-dtype result back to a storage dtype."""

        return self.astype(a, dtype)

    # ------------------------------------------------------------------ #
    # einsum (the workhorse contraction of §III-C)
    # ------------------------------------------------------------------ #
    def einsum(self, subscripts: str, *operands, optimize: bool = False) -> Array:
        """Backend einsum.

        ``optimize`` mirrors ``numpy.einsum``'s contraction-path search and is
        forwarded verbatim on NumPy (contraction order affects floating-point
        rounding, so call sites choose it explicitly); other backends are free
        to ignore it.
        """

        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # promoted linear algebra
    # ------------------------------------------------------------------ #
    def solve(self, a: Array, b: Array, out_dtype=None) -> Array:
        """``a^{-1} b`` (batched over leading dims), computed in float64."""

        sol = self.xp.linalg.solve(self.ascompute(a), self.ascompute(b))
        return sol if out_dtype is None else self.demote(sol, out_dtype)

    def inv(self, a: Array, out_dtype=None) -> Array:
        """Batched dense inverse, computed in float64."""

        out = self.xp.linalg.inv(self.ascompute(a))
        return out if out_dtype is None else self.demote(out, out_dtype)

    def cholesky(self, a: Array, out_dtype=None) -> Array:
        """Batched lower Cholesky factor, computed in float64."""

        out = self.xp.linalg.cholesky(self.ascompute(a))
        return out if out_dtype is None else self.demote(out, out_dtype)

    def eigh(self, a: Array):
        """Symmetric eigendecomposition ``(w, V)`` in float64."""

        w, v = self.xp.linalg.eigh(self.ascompute(a))
        return w, v

    def eigvalsh(self, a: Array) -> Array:
        """Symmetric eigenvalues (batched), computed in float64."""

        return self.xp.linalg.eigvalsh(self.ascompute(a))

    def transpose_last(self, a: Array) -> Array:
        """Swap the last two axes (batched matrix transpose)."""

        return self.xp.swapaxes(a, -1, -2)

    def norm(self, a: Array, axis=None) -> Array:
        """Euclidean norm (no promotion — callers pick the dtype)."""

        return self.xp.linalg.norm(a, axis=axis)

    # ------------------------------------------------------------------ #
    # RNG bridge (host-side draws for cross-backend determinism)
    # ------------------------------------------------------------------ #
    def rademacher(self, shape, rng: np.random.Generator, dtype=None) -> Array:
        """Draw ±1 Rademacher probes.

        The integers are always drawn from the host generator so the probe
        sequence — and hence every Hutchinson estimate and FIRAL selection —
        is identical across backends for a fixed seed.
        """

        draw = rng.integers(0, 2, size=shape)
        out = self.empty(shape, dtype=COMPUTE_DTYPE if dtype is None else dtype)
        out[...] = self.from_host(draw)
        out *= 2
        out -= 1
        return out

    # ------------------------------------------------------------------ #
    # host-side index bookkeeping
    # ------------------------------------------------------------------ #
    def index_array(self, indices: Sequence[int]) -> np.ndarray:
        """Host int64 index array (selection results stay on the host)."""

        return np.asarray(indices, dtype=np.int64)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, device={self.device!r})"

