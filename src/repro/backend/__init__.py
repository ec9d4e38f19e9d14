"""Pluggable array-backend dispatch for :mod:`repro`.

The paper's implementation selects an array module once — ``cupy`` on A100
GPUs, ``numpy`` on CPUs — and routes every kernel through it (§ III-C).
This package is that seam, made real: an :class:`ArrayBackend` protocol with
a NumPy implementation (the default), an optional PyTorch implementation
(CPU or CUDA, import-guarded), and a registry selected via
:func:`repro.set_backend` or the ``REPRO_BACKEND`` environment variable.

Algorithm code obtains the active backend with :func:`get_backend` (or just
the namespace with :func:`get_array_module`) at call time, so backends can
be swapped without touching solver code — the property the seed repo
promised but never exercised.

Typical use::

    import repro
    repro.set_backend("torch")          # or REPRO_BACKEND=torch[:cuda]
    ...
    from repro.backend import get_backend
    B = get_backend()
    xp = B.xp                           # numpy-compatible namespace
    w = B.eigvalsh(blocks)              # float64-promoted batched eigvals

The dtype policy (float32 storage, float64 compute — § III-C) lives in
:mod:`repro.backend.base` and is enforced by the backend's promoted linear
algebra methods rather than by ``astype`` calls scattered through solvers.
"""

from __future__ import annotations

from repro.backend.base import (
    Array,
    ArrayBackend,
    COMPUTE_DTYPE,
    DEFAULT_DTYPE,
    default_dtype,
)
from repro.backend.numpy_backend import NumpyBackend
from repro.backend.registry import (
    available_backends,
    backend_from_spec,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.backend.torch_backend import TorchBackend, torch_available
from repro.backend.workspace import Workspace

__all__ = [
    "Array",
    "ArrayBackend",
    "COMPUTE_DTYPE",
    "DEFAULT_DTYPE",
    "NumpyBackend",
    "TorchBackend",
    "Workspace",
    "asarray",
    "available_backends",
    "backend_from_spec",
    "default_dtype",
    "get_array_module",
    "get_backend",
    "register_backend",
    "set_backend",
    "torch_available",
    "use_backend",
]


def get_array_module(*_arrays):
    """Return the active backend's NumPy-compatible namespace.

    Mirrors ``cupy.get_array_module``: given any number of arrays, return the
    module that should be used to operate on them.  The answer is the active
    backend's ``xp`` — NumPy under the default backend, the torch shim under
    the torch backend — so legacy call sites keep working unchanged.
    """

    return get_backend().xp


def asarray(a, dtype=None) -> Array:
    """Convert ``a`` to a backend array with the library's default dtype.

    Parameters
    ----------
    a:
        Anything accepted by the backend's ``asarray``.
    dtype:
        Optional override; defaults to :func:`default_dtype` (the paper's
        float32 storage policy).
    """

    return get_backend().asarray(a, dtype=dtype if dtype is not None else default_dtype())
